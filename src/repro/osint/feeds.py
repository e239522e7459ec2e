"""Known-operation and PPI-botnet indicator feeds."""

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set


@dataclass
class KnownOperation:
    """A publicly reported mining operation and its IoCs.

    The paper collected IoCs for Photominer [29], Adylkuzz [18],
    Smominru [17], Xbooster [30], Jenkins [31] and Rocke [32]; the
    methodology "is designed to easily include data collected from new
    operations", which :meth:`OsintFeeds.register_operation` provides.
    """

    name: str
    domains: Set[str] = field(default_factory=set)
    wallets: Set[str] = field(default_factory=set)
    sample_hashes: Set[str] = field(default_factory=set)
    reference: str = ""

    def matches_domain(self, domain: str) -> bool:
        """Whether ``domain`` matches this operation's domain IoCs."""
        domain = domain.lower()
        return any(domain == d or domain.endswith("." + d) for d in self.domains)


#: The six operations with public reporting the paper ingests.
KNOWN_OPERATION_NAMES = (
    "Photominer", "Adylkuzz", "Smominru", "Xbooster", "Jenkins", "Rocke",
)


@dataclass(frozen=True)
class PpiBotnet:
    """A pay-per-install botnet family, identified by AV label tokens."""

    name: str
    label_tokens: tuple

    def matches_label(self, label: str) -> bool:
        """Whether an AV label names this PPI family."""
        lowered = label.lower()
        return any(token in lowered for token in self.label_tokens)


#: The three PPI families the paper observes (511 Virut, 46 Ramnit,
#: 27 Nitol samples).
PPI_BOTNETS: List[PpiBotnet] = [
    PpiBotnet("Virut", ("virut",)),
    PpiBotnet("Ramnit", ("ramnit",)),
    PpiBotnet("Nitol", ("nitol",)),
]


def ppi_botnets_named(labels: Iterable[str]) -> Set[str]:
    """Names of the PPI families any of one sample's AV labels names.

    The labels are lower-cased once, joined by newlines: no token holds
    a newline, so a token is in the joined text exactly when it is in
    one label, which is :meth:`PpiBotnet.matches_label` over each.
    """
    lowered = "\n".join(labels).lower()
    return {botnet.name for botnet in PPI_BOTNETS
            if any(token in lowered for token in botnet.label_tokens)}


class OsintFeeds:
    """Aggregated OSINT state handed to the pipeline."""

    def __init__(self) -> None:
        self._operations: Dict[str, KnownOperation] = {
            name: KnownOperation(name) for name in KNOWN_OPERATION_NAMES
        }
        self.donation_wallets: Set[str] = set()

    # -- known operations -------------------------------------------------

    def register_operation(self, operation: KnownOperation) -> None:
        """Add (or replace) a reported operation and its IoCs."""
        self._operations[operation.name] = operation

    def operation(self, name: str) -> KnownOperation:
        """The operation named ``name`` (KeyError when unknown)."""
        return self._operations[name]

    def operations(self) -> List[KnownOperation]:
        """Every registered operation."""
        return list(self._operations.values())

    def operation_for_sample(self, sha256: str) -> Optional[KnownOperation]:
        """Operation listing this sample hash as an IoC, or None."""
        for op in self._operations.values():
            if sha256 in op.sample_hashes:
                return op
        return None

    def operation_for_wallet(self, wallet: str) -> Optional[KnownOperation]:
        """Operation listing this wallet as an IoC, or None."""
        for op in self._operations.values():
            if wallet in op.wallets:
                return op
        return None

    def operation_for_domain(self, domain: str) -> Optional[KnownOperation]:
        """Operation whose domain IoCs match, or None."""
        for op in self._operations.values():
            if op.matches_domain(domain):
                return op
        return None

    # -- donation whitelist -------------------------------------------------

    def whitelist_donation_wallet(self, wallet: str) -> None:
        """Add a developer donation wallet to the whitelist."""
        self.donation_wallets.add(wallet)

    def is_donation_wallet(self, wallet: str) -> bool:
        """Whether a wallet is on the donation whitelist."""
        return wallet in self.donation_wallets
