"""CryptoNote emission schedule and network hashrate model.

Monero's base block reward follows the CryptoNote recurrence

    reward_atomic = (M - S) >> 19        (minimum 0.6 XMR tail emission)

with ``M = 2^64 - 1`` atomic units (1 XMR = 1e12 atomic) and ``S`` the
already-generated supply.  Integrated at 720 blocks/day from the 2014
launch this yields ~16.9M XMR circulating by April 2019, matching the
denominator behind the paper's "4.37% of all Monero" headline figure.
"""

import bisect
import datetime
import itertools
import math
from typing import List

from repro.common.simtime import Date

ATOMIC_PER_XMR = 10 ** 12
_TOTAL_ATOMIC = 2 ** 64 - 1
_EMISSION_SPEED = 19
_BLOCKS_PER_DAY = 720
_TAIL_REWARD_ATOMIC = 600_000_000_000  # 0.6 XMR tail emission

MONERO_GENESIS = datetime.date(2014, 4, 18)


class EmissionSchedule:
    """Daily-resolution emission curve for a CryptoNote coin.

    The curve is integrated lazily, one day of ``blocks_per_day`` blocks
    at a time, and kept as the exact supply (atomic units) at the end of
    each day; lookups by date index into that table.

    The integration carries the unspent remainder ``d = total - supply``
    rather than the supply, so a block is the single update
    ``d -= d >> emission_speed`` and a day is ``blocks_per_day`` of them.
    The tail floor (0.6 XMR a block) needs no per-block ``max()``:
    rewards only fall, so when ``d >> emission_speed`` still reaches the
    floor at the end of a day, every block of that day paid the
    unfloored reward.  The first day whose end-of-day check fails is
    redone block by block with the floor, as is every later day.  The
    table equals the block-by-block ``max(reward, tail)`` recurrence
    element for element (``tests/reference_emission.py``).
    """

    def __init__(self, genesis: Date = MONERO_GENESIS,
                 total_atomic: int = _TOTAL_ATOMIC,
                 emission_speed: int = _EMISSION_SPEED,
                 blocks_per_day: int = _BLOCKS_PER_DAY) -> None:
        self.genesis = genesis
        self._total = total_atomic
        self._speed = emission_speed
        self._blocks_per_day = blocks_per_day
        self._supply_by_day: List[int] = [0]  # atomic units, index = day #

    def _extend_to(self, day_index: int) -> None:
        table = self._supply_by_day
        total, speed, tail = self._total, self._speed, _TAIL_REWARD_ATOMIC
        blocks = self._blocks_per_day
        remainder = total - table[-1]
        while len(table) <= day_index:
            if remainder >> speed >= tail:
                unfloored = remainder
                for _ in itertools.repeat(None, blocks):
                    unfloored -= unfloored >> speed
                if unfloored >> speed >= tail:
                    remainder = unfloored
                    table.append(total - remainder)
                    continue
            for _ in itertools.repeat(None, blocks):
                remainder -= max(remainder >> speed, tail)
            table.append(total - remainder)

    def _day_index(self, when: Date) -> int:
        return max(0, (when - self.genesis).days)

    def circulating_supply(self, when: Date) -> float:
        """Circulating coins (XMR units) at ``when``."""
        idx = self._day_index(when)
        self._extend_to(idx)
        return self._supply_by_day[idx] / ATOMIC_PER_XMR

    def block_reward(self, when: Date) -> float:
        """Base block reward (XMR) on a given day."""
        idx = self._day_index(when)
        self._extend_to(idx + 1)
        daily = self._supply_by_day[idx + 1] - self._supply_by_day[idx]
        return daily / self._blocks_per_day / ATOMIC_PER_XMR

    def daily_emission(self, when: Date) -> float:
        """Coins emitted on a given day (XMR units)."""
        return self.block_reward(when) * self._blocks_per_day

    def fraction_of_supply(self, amount_xmr: float, when: Date) -> float:
        """What fraction of circulating supply ``amount_xmr`` represents."""
        supply = self.circulating_supply(when)
        if supply <= 0:
            return 0.0
        return amount_xmr / supply


#: Shared Monero schedule instance used across the library.
MONERO_EMISSION = EmissionSchedule()


# -- network hashrate ------------------------------------------------------

#: Piecewise-linear anchor points (date -> network hashrate in H/s),
#: shaped like the public Monero hashrate series: tens of MH/s through
#: 2016, a steep 2017 ramp, ~1 GH/s around the 2018 peak, and a step drop
#: at the April 2018 fork when ASICs were expelled.
_HASHRATE_ANCHORS: List = [
    (datetime.date(2014, 4, 18), 5e6),
    (datetime.date(2015, 1, 1), 2e7),
    (datetime.date(2016, 1, 1), 4e7),
    (datetime.date(2017, 1, 1), 9e7),
    (datetime.date(2017, 9, 1), 2.5e8),
    (datetime.date(2018, 1, 1), 8e8),
    (datetime.date(2018, 4, 5), 1.0e9),
    (datetime.date(2018, 4, 7), 4.5e8),   # ASICs expelled at the fork
    (datetime.date(2018, 10, 17), 6.0e8),
    (datetime.date(2018, 10, 19), 4.0e8),
    (datetime.date(2019, 3, 8), 8.0e8),
    (datetime.date(2019, 3, 10), 3.0e8),  # CryptoNight-R fork
    (datetime.date(2019, 12, 31), 4.0e8),
]


_ANCHOR_DATES = tuple(d for d, _ in _HASHRATE_ANCHORS)
_ANCHOR_LOGS = tuple(math.log(h) for _, h in _HASHRATE_ANCHORS)


def network_hashrate_hs(when: Date) -> float:
    """Total network hashrate (H/s) at ``when``, log-interpolated."""
    if when <= _ANCHOR_DATES[0]:
        return _HASHRATE_ANCHORS[0][1]
    if when >= _ANCHOR_DATES[-1]:
        return _HASHRATE_ANCHORS[-1][1]
    idx = bisect.bisect_right(_ANCHOR_DATES, when)
    d0, d1 = _ANCHOR_DATES[idx - 1], _ANCHOR_DATES[idx]
    log0, log1 = _ANCHOR_LOGS[idx - 1], _ANCHOR_LOGS[idx]
    span = (d1 - d0).days or 1
    frac = (when - d0).days / span
    return math.exp(log0 + frac * (log1 - log0))
