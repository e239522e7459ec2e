"""Independent oracles for the world generator's inlined draw kernels.

Production generation (``repro.binfmt.codegen.pseudo_code``,
``DeterministicRNG.randbytes``/``hexbytes``,
``repro.binfmt.entropy.shannon_entropy`` and the bulk path of
``MiningPool.credit_mining_day``) inlines its random draws and skips
work that cannot change a result.  This module keeps the plain
implementations they replaced, written against the ``random.Random``
methods themselves, so ``tests/test_generator_kernels.py`` can check
that every kernel returns the same value and leaves the generator in
the same state.  A Python upgrade that changes how ``choice`` or
``randint`` consume the stream fails those tests instead of silently
changing every world.
"""

import math
from collections import Counter
from typing import List

from repro.binfmt.codegen import _BLOCK, _COMMON, _RARE
from repro.chain.emission import network_hashrate_hs
from repro.common.errors import PoolError
from repro.common.rng import DeterministicRNG
from repro.common.simtime import Date
from repro.pools.pool import MiningPool

__all__ = [
    "ReferenceMiningPool",
    "hexbytes",
    "pseudo_code",
    "randbytes",
    "shannon_entropy",
]


def pseudo_code(rng: DeterministicRNG, size: int) -> bytes:
    """``size`` bytes of code-like content, one ``choice`` per byte."""
    if size <= 0:
        return b""
    _random = rng._random.random
    _choice = rng._random.choice
    _randint = rng._random.randint
    library: List[bytes] = []
    for _ in range(max(4, size // (_BLOCK * 8))):
        block = bytearray()
        for _ in range(_BLOCK):
            if _random() < 0.8:
                block.append(_choice(_COMMON))
            else:
                block.append(_choice(_RARE))
        library.append(bytes(block))
    out = bytearray()
    while len(out) < size:
        out += _choice(library)
        if _random() < 0.3:
            out += b"\x90" * _randint(1, 6)
    return bytes(out[:size])


def randbytes(rng: DeterministicRNG, n: int) -> bytes:
    """``n`` random bytes, one ``getrandbits(8)`` each."""
    return bytes(rng._random.getrandbits(8) for _ in range(n))


def hexbytes(rng: DeterministicRNG, n: int) -> str:
    """``n`` random bytes as lowercase hex, one ``getrandbits(8)`` each."""
    return randbytes(rng, n).hex()


def shannon_entropy(data: bytes) -> float:
    """Entropy in bits per byte, summed in ``Counter`` order."""
    if not data:
        return 0.0
    total = len(data)
    entropy = 0.0
    for count in Counter(data).values():
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


class ReferenceMiningPool(MiningPool):
    """A pool whose bulk path re-adds every IP of every mining day."""

    def credit_mining_day(self, identifier: str, day: Date,
                          hashrate_hs: float, src_ips: int = 1) -> float:
        if hashrate_hs < 0:
            raise PoolError("negative hashrate")
        account = self._account(identifier)
        if account.banned:
            return 0.0
        self._clock = day if self._clock is None else max(self._clock, day)
        share = min(1.0, hashrate_hs / network_hashrate_hs(day))
        reward = self._emission.daily_emission(day) * share
        reward *= 1.0 - self.config.fee
        account.balance += reward
        account.hashes += hashrate_hs * 86400
        account.last_share = day
        account.last_hashrate = hashrate_hs
        for i in range(src_ips):
            account.src_ips.add(f"bulk:{identifier}:{i}")
        if self.config.exposes_hashrate_history:
            account.hashrate_history.append((day, hashrate_hs))
        self._maybe_pay(account, day)
        policy = self.config.ban_policy
        if (policy.proactive and not account.banned
                and len(account.src_ips) > policy.min_connections_to_ban):
            self._ban(account, day)
        return reward
