"""Pool accounting, payouts, bans and the public stats API.

Two accrual paths exist:

* the *wire path*: a :class:`MiningPool` is a
  :class:`~repro.stratum.server.ShareSink`, so Stratum sessions credit
  shares live (used by protocol-level tests and examples);
* the *bulk path*: :meth:`MiningPool.credit_mining_day` credits one
  wallet-day of hashrate at once — the corpus driver uses it to simulate
  years of mining for thousands of wallets in milliseconds.

Both paths meet in the same per-wallet account, so profit analysis sees
one consistent ledger.
"""

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.chain.emission import EmissionSchedule, MONERO_EMISSION, network_hashrate_hs
from repro.common.errors import PoolError
from repro.common.simtime import Date
from repro.stratum.server import ShareSink


class Transparency(enum.Enum):
    """How much a pool's public API reveals (§III-D)."""

    FULL_HISTORY = "full"        # totals + complete payment list
    RECENT_WINDOW = "recent"     # totals + payments of the last N days
    TOTALS_ONLY = "totals"       # totals, no payment list
    OPAQUE = "opaque"            # nothing (minergate)


@dataclass(frozen=True)
class BanPolicy:
    """How a pool reacts to abuse reports and botnet-like wallets.

    ``cooperative`` pools act on reports, but only when the wallet shows
    more than ``min_connections_to_ban`` distinct IPs — the behaviour
    the authors saw at minexmr (§V-A, Appendix A).  ``proactive`` pools
    ban on their own once the threshold is crossed (none of the large
    pools did this in practice).
    """

    cooperative: bool = True
    min_connections_to_ban: int = 100
    proactive: bool = False
    #: only wallets active within this many days of the report are
    #: banned — pools act on live evidence, not stale ledger entries.
    recent_activity_days: int = 120


@dataclass
class _WalletAccount:
    """Internal per-wallet ledger."""

    identifier: str
    hashes: float = 0.0
    balance: float = 0.0
    total_paid: float = 0.0
    payments: List[Tuple[Date, float]] = field(default_factory=list)
    last_share: Optional[Date] = None
    last_hashrate: float = 0.0
    src_ips: Set[str] = field(default_factory=set)
    hashrate_history: List[Tuple[Date, float]] = field(default_factory=list)
    banned: bool = False
    banned_on: Optional[Date] = None


@dataclass(frozen=True)
class WalletStats:
    """Public per-wallet view, as scraped from a pool's API (Table II)."""

    pool: str
    identifier: str
    hashes: float
    last_hashrate: float
    last_share: Optional[Date]
    balance: float
    total_paid: float
    num_payments: int
    payments: Optional[List[Tuple[Date, float]]]  # None when not exposed
    hashrate_history: Optional[List[Tuple[Date, float]]]


@dataclass(frozen=True)
class PoolConfig:
    """Static description of one pool."""

    name: str
    coin: str = "XMR"
    domains: Tuple[str, ...] = ()
    fee: float = 0.01
    payout_threshold: float = 0.3
    transparency: Transparency = Transparency.FULL_HISTORY
    recent_window_days: int = 30
    ban_policy: BanPolicy = BanPolicy()
    exposes_hashrate_history: bool = False  # minexmr does


class MiningPool(ShareSink):
    """One simulated mining pool."""

    def __init__(self, config: PoolConfig,
                 emission: EmissionSchedule = MONERO_EMISSION) -> None:
        self.config = config
        self._emission = emission
        self._accounts: Dict[str, _WalletAccount] = {}
        self._clock: Optional[Date] = None  # advanced by credit/settle calls
        self.total_paid_out = 0.0

    # -- ShareSink (wire path) ------------------------------------------

    def on_login(self, login: str, agent: str, src_ip: str) -> Optional[str]:
        account = self._accounts.get(login)
        if account is not None and account.banned:
            return "Your wallet is banned"
        self._account(login).src_ips.add(src_ip)
        return None

    def on_share(self, login: str, valid: bool, src_ip: str,
                 difficulty: int = 1) -> None:
        if not valid:
            return
        account = self._account(login)
        account.hashes += float(max(1, difficulty))
        account.src_ips.add(src_ip)
        if self._clock is not None:
            account.last_share = self._clock

    # -- bulk path --------------------------------------------------------

    def credit_mining_day(self, identifier: str, day: Date,
                          hashrate_hs: float, src_ips: int = 1) -> float:
        """Credit one day of mining at ``hashrate_hs`` for a wallet.

        Reward is the wallet's proportional slice of that day's network
        emission, minus the pool fee — the standard PPLNS approximation.
        Returns the XMR credited (0 when the wallet is banned).
        """
        if hashrate_hs < 0:
            raise PoolError("negative hashrate")
        account = self._account(identifier)
        if account.banned:
            return 0.0
        self._clock = day if self._clock is None else max(self._clock, day)
        network = network_hashrate_hs(day)
        share = min(1.0, hashrate_hs / network)
        reward = self._emission.daily_emission(day) * share
        reward *= 1.0 - self.config.fee
        account.balance += reward
        account.hashes += hashrate_hs * 86400
        account.last_share = day
        account.last_hashrate = hashrate_hs
        # The bulk path only ever adds the prefix bulk:{id}:0..n-1, so the
        # last of the day's IPs being present means all of them are, and
        # re-adding members would leave the set exactly as it is.
        if f"bulk:{identifier}:{src_ips - 1}" not in account.src_ips:
            for i in range(src_ips):
                account.src_ips.add(f"bulk:{identifier}:{i}")
        if self.config.exposes_hashrate_history:
            account.hashrate_history.append((day, hashrate_hs))
        self._maybe_pay(account, day)
        # Proactive pools ban as soon as the IP threshold is crossed.
        policy = self.config.ban_policy
        if (policy.proactive and not account.banned
                and len(account.src_ips) > policy.min_connections_to_ban):
            self._ban(account, day)
        return reward

    def _maybe_pay(self, account: _WalletAccount, day: Date) -> None:
        threshold = self.config.payout_threshold
        while account.balance >= threshold:
            amount = account.balance
            account.balance = 0.0
            account.total_paid += amount
            account.payments.append((day, amount))
            self.total_paid_out += amount

    # -- moderation -------------------------------------------------------

    def report_wallet(self, identifier: str, when: Date,
                      evidence: str = "") -> bool:
        """Report an illicit wallet, as the authors did in Sept 2018.

        Returns True when the pool banned the wallet.  Cooperative pools
        still 'err on the safe side': they only act when the wallet has
        botnet-scale distinct connections (§VI).
        """
        policy = self.config.ban_policy
        if not policy.cooperative:
            return False
        account = self._accounts.get(identifier)
        if account is None or account.banned:
            return False
        if len(account.src_ips) <= policy.min_connections_to_ban:
            return False
        # A wallet with live wire sessions (no dated ledger yet) counts
        # as active; a dated ledger must show recent shares.
        if (account.last_share is not None
                and (when - account.last_share).days
                > policy.recent_activity_days):
            return False
        self._ban(account, when)
        return True

    def _ban(self, account: _WalletAccount, when: Date) -> None:
        account.banned = True
        account.banned_on = when

    def is_banned(self, identifier: str) -> bool:
        """Whether the identifier is currently banned here."""
        account = self._accounts.get(identifier)
        return account is not None and account.banned

    # -- public API (what the paper scrapes) -------------------------------

    def api_wallet_stats(self, identifier: str,
                         query_date: Optional[Date] = None) -> Optional[WalletStats]:
        """Public stats for a wallet; None when unknown; raises if opaque."""
        if self.config.transparency is Transparency.OPAQUE:
            raise PoolError(
                f"pool {self.config.name} publishes no per-wallet statistics"
            )
        account = self._accounts.get(identifier)
        if account is None or not account.payments and account.hashes == 0:
            return None
        payments: Optional[List[Tuple[Date, float]]]
        if self.config.transparency is Transparency.FULL_HISTORY:
            payments = list(account.payments)
        elif self.config.transparency is Transparency.RECENT_WINDOW:
            if query_date is None:
                query_date = account.last_share or self._clock
            window = self.config.recent_window_days
            payments = [
                (d, a) for d, a in account.payments
                if query_date is not None and (query_date - d).days <= window
            ]
        else:
            payments = None
        history = (list(account.hashrate_history)
                   if self.config.exposes_hashrate_history else None)
        return WalletStats(
            pool=self.config.name,
            identifier=identifier,
            hashes=account.hashes,
            last_hashrate=account.last_hashrate,
            last_share=account.last_share,
            balance=account.balance,
            total_paid=account.total_paid,
            num_payments=len(account.payments),
            payments=payments,
            hashrate_history=history,
        )

    def distinct_connections(self, identifier: str) -> int:
        """Operator-side insight (shared with the authors on request)."""
        account = self._accounts.get(identifier)
        return len(account.src_ips) if account else 0

    def known_wallets(self) -> List[str]:
        """Every identifier with an account at this pool."""
        return list(self._accounts)

    # -- internals ----------------------------------------------------------

    def _account(self, identifier: str) -> _WalletAccount:
        account = self._accounts.get(identifier)
        if account is None:
            account = _WalletAccount(identifier)
            self._accounts[identifier] = account
        return account
