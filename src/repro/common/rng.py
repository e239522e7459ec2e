"""Deterministic randomness.

All stochastic components of the simulation draw from a
:class:`DeterministicRNG` seeded from a single root seed.  Sub-streams are
derived by hashing the parent seed with a label, so adding a new consumer
never perturbs the draws of existing ones (stable stream splitting).
"""

import hashlib
import math
import random
from typing import List, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(parent_seed: int, label: str) -> int:
    """Derive a child seed from ``parent_seed`` and a stream ``label``.

    The derivation is a SHA-256 of the parent seed and label, truncated to
    64 bits, so child streams are independent and reproducible.
    """
    digest = hashlib.sha256(f"{parent_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class DeterministicRNG:
    """A seeded random stream with the distributions the simulation needs.

    Wraps :class:`random.Random` and adds heavy-tailed samplers (Pareto,
    lognormal with explicit median) used to reproduce the skewed earnings
    distributions the paper reports (Fig. 4, Table VIII).
    """

    def __init__(self, seed: int, label: str = "root") -> None:
        self.seed = seed
        self.label = label
        # kept so substream() derives each child with one hash, not two
        self._derived = derive_seed(seed, label)
        self._random = random.Random(self._derived)

    def substream(self, label: str) -> "DeterministicRNG":
        """Return an independent child stream named ``label``."""
        return DeterministicRNG(self._derived, label)

    # -- thin wrappers -------------------------------------------------

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._random.randint(low, high)

    def choice(self, seq: Sequence[T]) -> T:
        """Pick one element of ``seq`` uniformly."""
        return self._random.choice(seq)

    def choices(self, seq: Sequence[T],
                cum_weights: Sequence[float]) -> List[T]:
        """Pick one element by running weight sums, as a 1-element list.

        ``cum_weights`` is ``itertools.accumulate`` of the weights: it
        draws exactly what ``random.choices(weights=...)`` draws, without
        rebuilding the sums on every call.
        """
        return self._random.choices(seq, cum_weights=cum_weights)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        """``k`` distinct elements of ``seq`` (without replacement)."""
        return self._random.sample(seq, k)

    def shuffle(self, seq: list) -> None:
        """Shuffle ``seq`` in place."""
        self._random.shuffle(seq)

    def gauss(self, mu: float, sigma: float) -> float:
        """Normal draw with mean ``mu`` and stddev ``sigma``."""
        return self._random.gauss(mu, sigma)

    def expovariate(self, lambd: float) -> float:
        """Exponentially distributed draw with rate ``lambd``."""
        return self._random.expovariate(lambd)

    def bernoulli(self, p: float) -> bool:
        """Return True with probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability out of range: {p}")
        return self._random.random() < p

    def hexbytes(self, n: int) -> str:
        """Return ``n`` random bytes rendered as lowercase hex."""
        return self.randbytes(n).hex()

    def randbytes(self, n: int) -> bytes:
        """``n`` random bytes: the top byte of each of ``n`` 32-bit draws.

        Byte ``i`` equals the ``i``-th of ``n`` ``getrandbits(8)`` calls,
        which keep the top 8 bits of one 32-bit generator output.  One
        ``getrandbits(32 * n)`` call makes the same ``n`` outputs and
        lays them out least significant word first, so taking the top
        byte of every little-endian word yields the same bytes and leaves
        the generator in the same state.
        """
        if n <= 0:
            return b""
        return self._random.getrandbits(32 * n).to_bytes(4 * n, "little")[3::4]

    # -- distribution helpers ------------------------------------------

    def pareto(self, alpha: float, xmin: float = 1.0) -> float:
        """Sample a Pareto(alpha) value with scale ``xmin``.

        Used for botnet sizes and campaign earnings, whose empirical
        distribution is heavy tailed (99% of campaigns earn < 100 XMR
        while the top campaign alone holds ~22% of all earnings).
        """
        u = self._random.random()
        # Guard against u == 0 which would produce infinity.
        u = max(u, 1e-12)
        return xmin / (u ** (1.0 / alpha))

    def lognormal_median(self, median: float, sigma: float) -> float:
        """Lognormal sample parameterised by its median."""
        return math.exp(self._random.gauss(math.log(median), sigma))

    def poisson(self, lam: float) -> int:
        """Knuth Poisson sampler (lam expected to be small-to-moderate)."""
        if lam <= 0:
            return 0
        if lam > 500:
            # Normal approximation keeps this O(1) for large rates.
            return max(0, int(round(self._random.gauss(lam, math.sqrt(lam)))))
        threshold = math.exp(-lam)
        k = 0
        p = 1.0
        while True:
            p *= self._random.random()
            if p <= threshold:
                return k
            k += 1

    def zipf_rank(self, n: int, s: float = 1.2) -> int:
        """Sample a 1-based rank in [1, n] with Zipf(s) popularity."""
        if n < 1:
            raise ValueError("zipf_rank needs n >= 1")
        weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
        total = sum(weights)
        target = self._random.random() * total
        acc = 0.0
        for rank, w in enumerate(weights, start=1):
            acc += w
            if target <= acc:
                return rank
        return n
