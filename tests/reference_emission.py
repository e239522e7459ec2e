"""Independent oracle for the emission curve.

``repro.chain.emission.EmissionSchedule`` integrates the CryptoNote
reward on the unspent remainder, one shift per block, and applies the
tail floor only from the first day that can reach it.  This module keeps
the plain recurrence that integration replaced: the supply advances one
block at a time by ``max((total - supply) >> speed, tail)``.
``supply_table(...)`` is the list ``EmissionSchedule._supply_by_day``
must equal element for element; ``tests/test_chain.py`` checks the two
against each other.
"""

from typing import List

__all__ = ["TAIL_REWARD_ATOMIC", "supply_table"]

#: The 0.6 XMR tail emission in atomic units, as the seed wrote it.
TAIL_REWARD_ATOMIC = int(0.6 * 10 ** 12)


def supply_table(days: int, total_atomic: int = 2 ** 64 - 1,
                 emission_speed: int = 19,
                 blocks_per_day: int = 720) -> List[int]:
    """Supply (atomic units) at the end of each day ``0 .. days``."""
    supply_by_day = [0]
    supply = 0
    while len(supply_by_day) <= days:
        for _ in range(blocks_per_day):
            reward = (total_atomic - supply) >> emission_speed
            reward = max(reward, TAIL_REWARD_ATOMIC)
            supply += reward
        supply_by_day.append(supply)
    return supply_by_day
