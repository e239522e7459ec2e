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
"""

import functools
from dataclasses import dataclass
from typing import List, Optional

try:  # vectorised rolling-hash path; the pure-Python loop is the fallback
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a declared dependency
    _np = None

_B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_SPAMSUM_LENGTH = 64
_MIN_BLOCKSIZE = 3
_WINDOW = 7

#: below this size the numpy setup cost exceeds the per-byte win.
_VECTOR_MIN_BYTES = 64


__all__ = [
    "FuzzyHash",
    "compare",
    "compute",
    "distance",
    "edit_distance",
    "score_with_grams",
    "signature_grams",
]


_FNV_INIT = 0x811C9DC5
_FNV_PRIME = 0x01000193


def _piecewise_signature(data: bytes, blocksize: int) -> str:
    """Signature at one block size (uncapped length).

    The rolling hash is inlined here: this loop runs once per input byte
    and is the hot path of catalog-scale fuzzy matching.
    """
    window = bytearray(_WINDOW)
    pos = 0
    h1 = h2 = h3 = 0
    piece = _FNV_INIT
    trigger = blocksize - 1
    out: List[str] = []
    for byte in data:
        piece = ((piece ^ byte) * _FNV_PRIME) & 0xFFFFFFFF
        widx = pos % _WINDOW
        old = window[widx]
        h2 = h2 - h1 + _WINDOW * byte
        h1 = h1 + byte - old
        window[widx] = byte
        pos += 1
        h3 = ((h3 << 5) ^ byte) & 0xFFFFFFFF
        if (h1 + h2 + h3) % blocksize == trigger:
            out.append(_B64[piece % 64])
            piece = _FNV_INIT
    if piece != _FNV_INIT or not out:
        out.append(_B64[piece % 64])
    return "".join(out)


def _rolling_totals(data: bytes):
    """The rolling-hash value at every byte position, vectorised.

    All three components of the spamsum rolling hash are functions of
    only the last 7 bytes (h3's older contributions shift past the
    32-bit mask), so each is a sliding-window reduction: one numpy pass
    replaces the per-byte Python loop.  Returns None when numpy is
    unavailable or the input is too small to amortise array setup.
    """
    if _np is None or len(data) < _VECTOR_MIN_BYTES:
        return None
    arr = _np.frombuffer(bytes(data), dtype=_np.uint8)
    n = arr.shape[0]
    padded = _np.zeros(n + _WINDOW - 1, dtype=_np.uint64)
    padded[_WINDOW - 1:] = arr
    h1 = _np.zeros(n, dtype=_np.uint64)
    h2 = _np.zeros(n, dtype=_np.uint64)
    h3 = _np.zeros(n, dtype=_np.uint64)
    for lag in range(_WINDOW):
        window = padded[_WINDOW - 1 - lag:_WINDOW - 1 - lag + n]
        h1 += window
        h2 += _np.uint64(_WINDOW - lag) * window
        h3 ^= window << _np.uint64(5 * lag)
    return h1 + h2 + (h3 & _np.uint64(0xFFFFFFFF))


def _fnv_span(data: bytes, start: int, end: int) -> int:
    """FNV-1a over ``data[start:end]`` (the per-block piece hash)."""
    piece = _FNV_INIT
    for byte in memoryview(data)[start:end]:
        piece = ((piece ^ byte) * _FNV_PRIME) & 0xFFFFFFFF
    return piece


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
    first = _np.arange(64, dtype=_np.uint32).reshape(64, 1, 1)
    second = _np.arange(64, dtype=_np.uint32).reshape(1, 64, 1)
    state = _np.arange(64, dtype=_np.uint32).reshape(1, 1, 64)
    prime = _np.uint32(_FNV_PRIME & 63)
    after_first = ((state ^ first) * prime) & _np.uint32(63)
    after_second = ((after_first ^ second) * prime) & _np.uint32(63)
    return after_second.astype(_np.uint8).tobytes()


def _byte_pairs(data: bytes) -> List[int]:
    """``(data[i] & 63) << 12 | (data[i + 1] & 63) << 6`` for every
    ``i``: the pair part of a :func:`_pair_table` index."""
    low = (_np.frombuffer(bytes(data), dtype=_np.uint8)
           & _np.uint8(63)).astype(_np.uint32)
    return ((low[:-1] << _np.uint32(12)) | (low[1:] << _np.uint32(6))).tolist()


def _fnv_low6(data: bytes, pairs: List[int], start: int, end: int) -> int:
    """``_fnv_span(data, start, end) % 64``, two bytes per step."""
    table = _pair_table()
    piece = _FNV_INIT & 63
    stop = end - ((end - start) & 1)
    for pair in pairs[start:stop:2]:
        piece = table[pair | piece]
    if stop < end:
        piece = ((piece ^ data[stop]) * _FNV_PRIME) & 63
    return piece


def _boundaries(totals, blocksize: int):
    """Indices where the rolling hash triggers a block boundary."""
    return _np.nonzero(totals % _np.uint64(blocksize)
                       == _np.uint64(blocksize - 1))[0]


def _signature_from_totals(data: bytes, totals, pairs: List[int],
                           blocksize: int) -> str:
    """Same output as :func:`_piecewise_signature`, boundary positions
    taken from the precomputed rolling-hash array.

    Non-tail blocks contribute only ``piece % 64`` and are folded by
    :func:`_fnv_low6`; the tail keeps the full 32-bit hash, because it
    is emitted only when it differs from the FNV seed.
    """
    out: List[str] = []
    prev = 0
    for idx in _boundaries(totals, blocksize).tolist():
        out.append(_B64[_fnv_low6(data, pairs, prev, idx + 1)])
        prev = idx + 1
    tail_piece = _fnv_span(data, prev, len(data))
    if tail_piece != _FNV_INIT or not out:
        out.append(_B64[tail_piece % 64])
    return "".join(out)


def _signature_length(data: bytes, totals, blocksize: int) -> int:
    """len() of the signature at ``blocksize`` without hashing every
    block — only the tail piece needs an FNV pass, which lets the
    block-size search below discard candidate sizes almost for free."""
    positions = _boundaries(totals, blocksize)
    count = int(positions.shape[0])
    prev = int(positions[-1]) + 1 if count else 0
    if count == 0 or _fnv_span(data, prev, len(data)) != _FNV_INIT:
        count += 1
    return count


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
    """Compute the CTPH of ``data``.

    The block size is first *guessed* from the input length (expected
    signature length ~= len/blocksize), then adjusted at most a couple
    of steps — the ssdeep trick that avoids a full doubling search and
    keeps hashing at ~2 passes over the input.

    When numpy is available the rolling hash is evaluated once as a
    vectorised sliding-window pass; the block-size search then probes
    candidate sizes via boundary *counts* (near-free) and only the two
    final signatures pay a per-block FNV pass, folded in 6-bit
    arithmetic two bytes per table lookup.  Output is bit-identical to
    the pure-Python loop.
    """
    totals = _rolling_totals(data)
    blocksize = _MIN_BLOCKSIZE
    while blocksize * _SPAMSUM_LENGTH < len(data):
        blocksize *= 2
    if totals is not None:
        # Adjust on signature *lengths* only, then hash the winner.
        while _signature_length(data, totals, blocksize) > _SPAMSUM_LENGTH:
            blocksize *= 2
        while (blocksize > _MIN_BLOCKSIZE
               and _signature_length(data, totals, blocksize)
               < _SPAMSUM_LENGTH // 4):
            if _signature_length(data, totals,
                                 blocksize // 2) > _SPAMSUM_LENGTH:
                break
            blocksize //= 2
        pairs = _byte_pairs(data)
        signature = _signature_from_totals(data, totals, pairs, blocksize)
        double_signature = _signature_from_totals(
            data, totals, pairs, blocksize * 2)[:_SPAMSUM_LENGTH]
        return FuzzyHash(blocksize, signature[:_SPAMSUM_LENGTH],
                         double_signature)
    signature = _piecewise_signature(data, blocksize)
    # Adjust: too long -> grow; degenerately short -> shrink (bounded).
    while len(signature) > _SPAMSUM_LENGTH:
        blocksize *= 2
        signature = _piecewise_signature(data, blocksize)
    while (blocksize > _MIN_BLOCKSIZE
           and len(signature) < _SPAMSUM_LENGTH // 4):
        candidate = _piecewise_signature(data, blocksize // 2)
        if len(candidate) > _SPAMSUM_LENGTH:
            break
        blocksize //= 2
        signature = candidate
    double_signature = _piecewise_signature(data, blocksize * 2)[:_SPAMSUM_LENGTH]
    return FuzzyHash(blocksize, signature[:_SPAMSUM_LENGTH], double_signature)


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
