"""Independent oracle for the CTPH kernel.

Production code hashes inputs with ``repro.fuzzyhash.ctph.compute_many``:
one vectorised rolling-hash pass per group of concatenated inputs,
boundary levels, and FNV-1a lanes over every block at once.  This module
keeps the plain spamsum loop that kernel replaced: the rolling hash and
the block hash advance one byte at a time, and the block-size search
re-hashes the whole input at every size it probes.  ``reference(data)``
is the value ``compute(data)`` must equal bit for bit;
``tests/test_ctph_kernel.py`` checks the two against each other.
"""

from typing import List

from repro.fuzzyhash.ctph import FuzzyHash

__all__ = ["fnv_span", "piecewise_signature", "reference"]

_B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_WINDOW = 7
_FNV_INIT = 0x811C9DC5
_FNV_PRIME = 0x01000193


def fnv_span(data: bytes, start: int, end: int) -> int:
    """FNV-1a over ``data[start:end]`` (the per-block piece hash)."""
    piece = _FNV_INIT
    for byte in data[start:end]:
        piece = ((piece ^ byte) * _FNV_PRIME) & 0xFFFFFFFF
    return piece


def piecewise_signature(data: bytes, blocksize: int) -> str:
    """Signature at one block size (uncapped length)."""
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


def reference(data: bytes) -> FuzzyHash:
    """The CTPH of ``data`` by the per-byte loop: guess the block size
    from the length, grow it while the signature exceeds 64 characters,
    shrink it while the signature is shorter than 16 (unless the
    halved size overflows), and add the signature at twice the size."""
    data = bytes(data)
    blocksize = 3
    while blocksize * 64 < len(data):
        blocksize *= 2
    signature = piecewise_signature(data, blocksize)
    while len(signature) > 64:
        blocksize *= 2
        signature = piecewise_signature(data, blocksize)
    while blocksize > 3 and len(signature) < 16:
        candidate = piecewise_signature(data, blocksize // 2)
        if len(candidate) > 64:
            break
        blocksize //= 2
        signature = candidate
    double = piecewise_signature(data, blocksize * 2)
    return FuzzyHash(blocksize, signature[:64], double[:64])
