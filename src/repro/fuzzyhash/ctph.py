"""ssdeep-style context-triggered piecewise hashing.

Algorithm (following Kornblum 2006, the paper's citation [36]):

1. A 7-byte rolling hash scans the input.  Whenever
   ``rolling % blocksize == blocksize - 1`` a block boundary is emitted.
2. Each block is hashed with FNV-1a and mapped to one character of the
   base64 alphabet; the concatenation is the signature.
3. The block size is the smallest ``3 * 2**k`` whose signature fits in
   64 characters; the hash string also carries the signature at twice
   the block size, so hashes one octave apart remain comparable.
4. Similarity is a weighted edit distance between matching-blocksize
   signatures, scaled to [0, 100]; 100 means near-identical.

:func:`compute_many` hashes many inputs at once, one numpy pass per
stage over a group of concatenated inputs; :func:`compute` is its
one-input case.  ``tests/reference_ctph.py`` holds the per-byte loop
both must equal bit for bit.
"""

import functools
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

_B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_SPAMSUM_LENGTH = 64
_MIN_BLOCKSIZE = 3
_WINDOW = 7

#: inputs are hashed in groups of about this many concatenated bytes,
#: which bounds the kernel's transient arrays.
_GROUP_BYTES = 1 << 18
#: zero bytes ahead of a group: the rolling sums read one byte more
#: than the window.
_LEAD = _WINDOW + 1
#: the rolling hash runs over a group in slices of this many bytes.
_SLICE_BYTES = 1 << 14
#: below this many unfinished blocks, a numpy step costs more than the
#: bytes it hashes, and the rest of each block is folded in Python.
_LANE_MIN = 128
#: a boundary's ``total + 1`` is below ``2**32`` or ``2**32`` plus at
#: most 8,926, so its level is at most 31.
_LEVELS = 32

__all__ = [
    "FuzzyHash",
    "compare",
    "compute",
    "compute_many",
    "distance",
    "edit_distance",
    "score_with_grams",
    "signature_grams",
]


_FNV_INIT = 0x811C9DC5
_FNV_PRIME = 0x01000193
_B64_CODES = np.frombuffer(_B64.encode("ascii"), dtype=np.uint8)
#: the multiplicative inverse of 3 modulo 2**32: ``v`` is divisible by 3
#: exactly when ``v * _INV3 mod 2**32 <= _THIRD``.
_INV3 = np.uint32(0xAAAAAAAB)
_THIRD = np.uint32(0x55555555)
#: de Bruijn sequence and table: count trailing zeros of a power of two.
_DEBRUIJN = np.uint32(0x077CB531)
_DEBRUIJN_CTZ = np.zeros(32, dtype=np.int8)
_DEBRUIJN_CTZ[(((1 << np.arange(32, dtype=np.uint64)) * 0x077CB531)
               & 0xFFFFFFFF) >> 27] = np.arange(32, dtype=np.int8)


@functools.lru_cache(maxsize=1)
def _pair_table() -> bytes:
    """The 64x64x64 two-byte FNV step table (256 KiB), built on first
    use so that importing this module stays free.

    The low k bits of ``(x ^ b) * prime`` depend only on the low k bits
    of ``x`` and ``b``, so a block character (``piece % 64``) can be
    folded in 6-bit arithmetic, two bytes per lookup.  Entry
    ``(b1 & 63) << 12 | (b2 & 63) << 6 | state`` is the low 6 bits of
    the FNV-1a state after bytes ``b1``, ``b2``.
    """
    first = np.arange(64, dtype=np.uint32).reshape(64, 1, 1)
    second = np.arange(64, dtype=np.uint32).reshape(1, 64, 1)
    state = np.arange(64, dtype=np.uint32).reshape(1, 1, 64)
    prime = np.uint32(_FNV_PRIME & 63)
    after_first = ((state ^ first) * prime) & np.uint32(63)
    after_second = ((after_first ^ second) * prime) & np.uint32(63)
    return after_second.astype(np.uint8).tobytes()


def _fnv32(data: bytes, start: int, end: int, piece: int = _FNV_INIT) -> int:
    """FNV-1a over ``data[start:end]``, continuing from ``piece``."""
    for byte in memoryview(data)[start:end]:
        piece = ((piece ^ byte) * _FNV_PRIME) & 0xFFFFFFFF
    return piece


@dataclass(frozen=True)
class FuzzyHash:
    """A CTPH value: ``blocksize:sig:double_sig``."""

    blocksize: int
    signature: str
    double_signature: str

    def __str__(self) -> str:
        return f"{self.blocksize}:{self.signature}:{self.double_signature}"

    @classmethod
    def parse(cls, text: str) -> "FuzzyHash":
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"malformed fuzzy hash: {text!r}")
        return cls(int(parts[0]), parts[1], parts[2])


def compute(data: bytes) -> FuzzyHash:
    """Compute the CTPH of ``data``: :func:`compute_many` of one input."""
    return compute_many((data,))[0]


def compute_many(datas: Iterable[bytes]) -> List[FuzzyHash]:
    """The CTPH of every input, in order; equal to ``compute`` of each.

    Inputs are hashed in groups of about ``_GROUP_BYTES``.  A group is
    concatenated with ``_WINDOW - 1`` zero bytes ahead of each input,
    which is the rolling hash's initial window, so one vectorised pass
    gives every input's rolling values.  Each byte's *boundary level* is
    the largest ``k`` at which it closes a block (block size
    ``3 * 2**k``), so the block-size search reads the signature length
    at any candidate size from one count per level.  The two final
    signatures of every input are then hashed together, one FNV-1a lane
    per block (see :class:`_Group`).
    """
    inputs = [bytes(data) for data in datas]
    out: List[FuzzyHash] = []
    for lo, hi in _group_bounds([len(data) for data in inputs]):
        out.extend(_Group(inputs[lo:hi]).hashes())
    return out


def _group_bounds(sizes: Sequence[int]) -> List[Tuple[int, int]]:
    """``[lo, hi)`` index ranges of consecutive inputs, each range at
    most ``_GROUP_BYTES`` bytes unless it is a single input."""
    bounds: List[Tuple[int, int]] = []
    lo = used = 0
    for i, size in enumerate(sizes):
        cost = size + _WINDOW - 1
        if i > lo and used + cost > _GROUP_BYTES:
            bounds.append((lo, i))
            lo, used = i, 0
        used += cost
    if sizes:
        bounds.append((lo, len(sizes)))
    return bounds


class _Group:
    """One concatenated group of inputs, hashed in three stages:
    boundary levels, the block-size search, and the FNV lanes.

    ``buf`` is two zero bytes, then each input preceded by six zero
    bytes (the rolling hash's initial window).  ``levels[p]`` is the
    boundary level of the byte at ``p``: -1 if it closes no block at any
    size, or is a pad byte.  ``counts[i, k]`` is the number of bytes of
    input ``i`` at level ``k`` or above: the number of blocks it closes
    at block size ``3 * 2**k``.
    """

    def __init__(self, inputs: List[bytes]) -> None:
        pad = _WINDOW - 1
        self.buf = bytes(pad).join([bytes(_LEAD - pad), *inputs])
        self.arr = np.frombuffer(self.buf, dtype=np.uint8)
        self.sizes = [len(data) for data in inputs]
        # buffer positions fit 32 bits unless one input is 2 GiB
        self.position_type = (np.int32 if len(self.buf) < 1 << 31
                              else np.int64)
        sizes = np.array(self.sizes, dtype=self.position_type)
        self.ends = _LEAD + np.cumsum(sizes + pad,
                                      dtype=self.position_type) - pad
        self.starts = self.ends - sizes
        self.levels = np.full(len(self.buf), -1, dtype=np.int8)
        # the histogram's last row collects the pad bytes
        hist = np.zeros((len(inputs) + 1) * _LEVELS, dtype=np.int64)
        for lo in range(_LEAD, len(self.buf), _SLICE_BYTES):
            hist += self._level_slice(lo, min(lo + _SLICE_BYTES,
                                              len(self.buf)))
        self.levels[(self.starts[1:, None] - np.arange(1, pad + 1)).ravel()
                    ] = -1
        hist = hist.reshape(len(inputs) + 1, _LEVELS)[:-1, ::-1]
        self.counts = np.cumsum(hist, axis=1)[:, ::-1]
        self.last_levels = np.where(
            sizes > 0, self.levels[self.ends - 1], -1).tolist()

    def _level_slice(self, lo: int, hi: int):
        """Fill ``levels[lo:hi]``; returns the slice's level histogram
        per input, flattened.

        The rolling value at a byte is ``h1 + h2 + h3`` over the last
        seven bytes.  ``h1 + h2`` weighs the byte ``j`` places back by
        ``8 - j``, and ``h3`` xors it in shifted left by ``5 * j``; both
        are built by doubling the window (2, 4, then 8 bytes; the byte 7
        places back weighs 1 and is shifted out of ``h3``).  A byte
        closes a block of size ``3 * 2**k`` when ``u = total + 1`` is
        divisible by 3 and by ``2**k``.  ``u`` can exceed 32 bits, so it
        is kept as its low 32 bits plus the carry, which is all that
        ``u mod 3`` (``2**32 = 1 mod 3``) and its trailing zeros need.
        """
        b = self.arr[lo - _LEAD:hi]
        w = b.astype(np.uint32)
        x = w[1:] ^ (w[:-1] << np.uint32(5))
        y = x[2:] ^ (x[:-2] << np.uint32(10))
        h3 = y[5:] ^ (y[1:-4] << np.uint32(20))
        del w, x, y
        # windows of 2, 4 and 8 bytes: sums s and weights w, where the
        # newest byte weighs the window's width and the oldest 1
        s2 = b[1:].astype(np.uint16)
        s2 += b[:-1]
        w2 = s2 + b[1:]
        s4 = s2[2:] + s2[:-2]
        w4 = w2[2:] + w2[:-2]
        w4 += s2[2:] << np.uint16(1)
        w8 = w4[4:] + w4[:-4]
        w8 += s4[4:] << np.uint16(2)
        del s2, w2, s4, w4
        # h1 + h2 + 1 weighs the byte j places back by 8 - j, plus one
        u = w8[1:].astype(np.uint32)
        u -= b[1:hi - lo + 1]
        u += np.uint32(1)
        u += h3
        v = u + (u < h3)  # u mod 3, with the carry out of 32 bits
        v *= _INV3
        hits = np.flatnonzero(v <= _THIRD)
        low = u[hits]
        low &= -low
        low *= _DEBRUIJN
        low >>= np.uint32(27)
        ctz = _DEBRUIJN_CTZ[low]
        hits += lo
        self.levels[hits] = ctz
        # Histogram row of each hit: the hits in [starts[i], ends[i])
        # are input i's, the ones between two inputs go to the pad row.
        cuts = np.searchsorted(hits, np.stack((self.starts, self.ends),
                                              axis=1).ravel())
        owner = np.repeat(
            np.stack((np.full(len(self.sizes), len(self.sizes)),
                      np.arange(len(self.sizes))), axis=1).ravel(),
            np.diff(cuts, prepend=0))
        owner *= _LEVELS
        owner += ctz
        return np.bincount(owner, minlength=(len(self.sizes) + 1) * _LEVELS)

    def _length(self, i: int, k: int) -> int:
        """len() of input ``i``'s signature at block size ``3 * 2**k``.

        It is the block count plus the tail's character, which is
        emitted when the tail's FNV differs from the seed or no block
        closed.  An empty tail always equals the seed; a non-empty one
        is FNV-hashed only where one character decides a comparison of
        the block-size search (lengths 64 or 65, 15 or 16).
        """
        count = int(self.counts[i, k]) if k < _LEVELS else 0
        if count == 0:
            return 1
        if self.last_levels[i] >= k:
            return count
        if count not in (_SPAMSUM_LENGTH, _SPAMSUM_LENGTH // 4 - 1):
            return count + 1
        start, end = int(self.starts[i]), int(self.ends[i])
        last = start + int(np.flatnonzero(self.levels[start:end] >= k)[-1])
        return count + (_fnv32(self.buf, last + 1, end) != _FNV_INIT)

    def _blocksize_level(self, i: int) -> int:
        """The ``k`` of input ``i``'s block size ``3 * 2**k``: the
        length-guessed start, grown while the signature is too long and
        shrunk while it is degenerately short (ssdeep's search)."""
        level = 0
        while _MIN_BLOCKSIZE << level << 6 < self.sizes[i]:
            level += 1
        while self._length(i, level) > _SPAMSUM_LENGTH:
            level += 1
        while level > 0 and self._length(i, level) < _SPAMSUM_LENGTH // 4:
            if self._length(i, level - 1) > _SPAMSUM_LENGTH:
                break
            level -= 1
        return level

    def hashes(self) -> List[FuzzyHash]:
        """Every input's CTPH, in order.

        The blocks of both signatures of every input are hashed in one
        :func:`_fnv_lanes` call.  A signature is its blocks' characters,
        then its tail's unless the tail hashes to the FNV seed and some
        block closed.  Neither is longer than 64 characters: the search
        picks a size whose signature fits, and twice that size closes a
        subset of its blocks (the same tail if it closes them all).
        """
        count = len(self.sizes)
        levels = [self._blocksize_level(i) for i in range(count)]
        chosen = np.array(levels, dtype=np.int64)
        blocks = np.concatenate([
            np.where(octave < _LEVELS, self.counts[
                np.arange(count), np.minimum(octave, _LEVELS - 1)], 0)
            for octave in (chosen, chosen + 1)])
        edges = self._edges(chosen)
        # twice the block size closes the blocks whose level is higher
        double = edges[self.levels[edges - 1]
                       > np.repeat(chosen, blocks[:count])]
        starts = [np.sort(np.concatenate((self.starts, cut)))
                  for cut in (edges, double)]
        ends = [np.sort(np.concatenate((cut, self.ends)))
                for cut in (edges, double)]
        tails = np.cumsum(blocks + 1) - 1
        pieces = _fnv_lanes(self.buf, self.arr, np.concatenate(starts),
                            np.concatenate(ends), tails)
        keep = np.ones(len(pieces), dtype=bool)
        keep[tails] = (pieces[tails] != _FNV_INIT) | (blocks == 0)
        text = _B64_CODES[pieces[keep] & np.uint32(63)].tobytes().decode(
            "ascii")
        bounds = np.concatenate(([0], np.cumsum(blocks + keep[tails])))
        bounds = bounds.tolist()
        return [FuzzyHash(_MIN_BLOCKSIZE << level,
                          text[bounds[i]:bounds[i + 1]],
                          text[bounds[count + i]:bounds[count + i + 1]])
                for i, level in enumerate(levels)]

    def _edges(self, octave):
        """One past each position that closes a block of its input at
        block size ``3 * 2**octave[i]``, in buffer order (a slice at a
        time, so no per-byte threshold array spans the group)."""
        octave = octave.astype(np.int8)
        found = []
        for lo in range(0, len(self.buf), _SLICE_BYTES):
            hi = min(lo + _SLICE_BYTES, len(self.buf))
            # inputs first..last, each with the pad bytes before it
            first, last = np.searchsorted(self.ends, (lo, hi - 1),
                                          side="right").tolist()
            spans = np.diff(np.minimum(self.ends[first:last + 1], hi),
                            prepend=lo)
            threshold = np.repeat(octave[first:last + 1], spans)
            found.append((np.flatnonzero(self.levels[lo:hi] >= threshold)
                          + (lo + 1)).astype(self.position_type))
        return np.concatenate(found)


def _fnv_lanes(buf: bytes, arr, starts, ends, tails):
    """FNV-1a of every ``buf[starts[j]:ends[j]]``, one lane each.

    Lanes run longest first in numpy, a byte per step, so step ``t``
    touches only the lanes longer than ``t``.  Once fewer than
    ``_LANE_MIN`` remain, each is finished by :func:`_finish_lanes`.
    Only a result's low 6 bits, which make its block's character, are
    exact, except that a tail lane (``tails``) equals the FNV seed
    exactly when its block's hash does: a tail whose low 6 bits match
    the seed's is re-hashed on all 32 bits.
    """
    lengths = ends - starts
    order = np.argsort(-lengths, kind="stable")
    base, longest = starts[order], lengths[order]
    steps = int(longest[_LANE_MIN - 1]) if len(order) >= _LANE_MIN else 0
    state = np.full(len(order), _FNV_INIT, dtype=np.uint32)
    at = base.copy()
    byte = np.empty(len(order), dtype=np.uint8)
    prime = np.uint32(_FNV_PRIME)
    views = 0
    # lanes [0, active) are the ones longer than step
    for active in np.searchsorted(-longest, -np.arange(steps),
                                  side="left").tolist():
        if active != views:
            views = active
            lane, lane_at, lane_byte = (state[:active], at[:active],
                                        byte[:active])
        np.take(arr, lane_at, out=lane_byte)
        lane ^= lane_byte
        lane *= prime
        lane_at += 1
    rest = int(np.count_nonzero(longest > steps))
    if rest:
        state[:rest] = _finish_lanes(buf, arr, state[:rest], at[:rest],
                                     ends[order[:rest]])
    pieces = np.empty_like(state)
    pieces[order] = state
    seed = _FNV_INIT & 63
    for j in tails[(pieces[tails] & np.uint32(63)) == seed].tolist():
        pieces[j] = _fnv32(buf, int(starts[j]), int(ends[j]))
    return pieces


def _finish_lanes(buf: bytes, arr, state, pos, ends) -> List[int]:
    """The lanes' final low 6 bits, folded from ``pos`` to ``ends`` in
    Python, two bytes per :func:`_pair_table` lookup."""
    stops = ends - ((ends - pos) & 1)
    counts = (stops - pos) // 2
    first = np.cumsum(counts) - counts
    # the pair codes the lanes read, lane after lane
    at = np.repeat(pos - 2 * first, counts)
    at += 2 * np.arange(len(at))
    low = np.uint8(63)
    codes = ((arr[at] & low).astype(np.uint32) << 12
             | (arr[at + 1] & low).astype(np.uint32) << 6)
    # iterating a memoryview makes each int as it goes: no list of them
    codes = memoryview(codes)
    table = _pair_table()
    out = state.tolist()
    for j, (stop, end, at, count) in enumerate(zip(
            stops.tolist(), ends.tolist(), first.tolist(), counts.tolist())):
        piece = out[j] & 63
        for code in codes[at:at + count]:
            piece = table[code | piece]
        if stop < end:
            piece = ((piece ^ buf[stop]) * _FNV_PRIME) & 63
        out[j] = piece
    return out


def _edit_distance(a: str, b: str) -> int:
    """Levenshtein distance with O(min(len)) memory."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            )
        previous = current
    return previous[-1]


def _has_common_substring(a: str, b: str, length: int = 7) -> bool:
    """Require a common 7-gram, like ssdeep, to avoid random matches."""
    if len(a) < length or len(b) < length:
        return False
    grams = {a[i:i + length] for i in range(len(a) - length + 1)}
    return any(b[i:i + length] in grams for i in range(len(b) - length + 1))


def _score_strings(a: str, b: str, blocksize: int) -> int:
    if not _has_common_substring(a, b):
        return 0
    dist = _edit_distance(a, b)
    # Scale: identical -> 100; completely different -> 0.
    score = 100 - (100 * dist) // max(len(a), len(b))
    # Cap very short signatures which cannot support high confidence.
    cap = blocksize // _MIN_BLOCKSIZE * min(len(a), len(b))
    return max(0, min(score, cap))


def compare(h1: FuzzyHash, h2: FuzzyHash) -> int:
    """Similarity score in [0, 100] between two fuzzy hashes.

    Hashes are comparable when their block sizes are equal or one octave
    apart; otherwise the score is 0 (ssdeep semantics).
    """
    if h1.blocksize == h2.blocksize:
        return max(
            _score_strings(h1.signature, h2.signature, h1.blocksize),
            _score_strings(h1.double_signature, h2.double_signature,
                           h1.blocksize * 2),
        )
    if h1.blocksize == h2.blocksize * 2:
        return _score_strings(h1.signature, h2.double_signature, h1.blocksize)
    if h2.blocksize == h1.blocksize * 2:
        return _score_strings(h1.double_signature, h2.signature, h2.blocksize)
    return 0


def distance(h1: FuzzyHash, h2: FuzzyHash) -> float:
    """Distance in [0, 1]: the paper's stock-tool threshold is <= 0.1."""
    return 1.0 - compare(h1, h2) / 100.0


# -- bulk-matching helpers (used by catalog-scale attribution) -------------

def signature_grams(signature: str, length: int = 7) -> frozenset:
    """The 7-gram set of a signature (the common-substring prefilter)."""
    if len(signature) < length:
        return frozenset()
    return frozenset(signature[i:i + length]
                     for i in range(len(signature) - length + 1))


def score_with_grams(sig_a: str, grams_a: frozenset, sig_b: str,
                     grams_b: frozenset, blocksize: int) -> int:
    """Like the internal scorer, but with precomputed gram sets."""
    if not grams_a or not grams_b or grams_a.isdisjoint(grams_b):
        return 0
    dist = _edit_distance(sig_a, sig_b)
    score = 100 - (100 * dist) // max(len(sig_a), len(sig_b))
    cap = blocksize // _MIN_BLOCKSIZE * min(len(sig_a), len(sig_b))
    return max(0, min(score, cap))


def edit_distance(a: str, b: str) -> int:
    """Public alias for the Levenshtein helper."""
    return _edit_distance(a, b)
