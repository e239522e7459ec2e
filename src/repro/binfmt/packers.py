"""Packer / crypter transforms (Table X of the paper).

A *packer* wraps the original binary behind a stub: the executable magic
is preserved (the file still looks like a PE), followed by a packer
signature and the transformed payload.  Known packers (UPX, NSIS, ...)
are fingerprintable by signature and reversible — the analog of the
F-Prot unpacker the paper uses.  Crypters (Enigma-style, or custom ones
bought in underground markets) leave no signature and produce
high-entropy payloads, so the only static signal left is entropy.
"""

import hashlib
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import BinaryFormatError
from repro.binfmt.format import ExecutableKind, magic_kind

_STUB = b"\x90" * 16  # pseudo decompression stub


__all__ = [
    "PackedBinary",
    "Packer",
    "identify_packer",
    "is_packed",
    "pack",
    "pack_chain",
    "packer_names",
]


def _xor_stream(data: bytes, key: bytes) -> bytes:
    """XOR ``data`` with a SHA-256-expanded keystream (involutive)."""
    stream = bytearray()
    counter = 0
    while len(stream) < len(data):
        stream += hashlib.sha256(key + counter.to_bytes(4, "big")).digest()
        counter += 1
    return bytes(b ^ s for b, s in zip(data, stream))


@dataclass(frozen=True)
class Packer:
    """One packer family.

    ``signature`` is the on-disk fingerprint (empty for crypters, which
    is what makes them invisible to signature-based packer ID).
    ``compresses`` selects zlib (low-ish entropy, like real UPX output of
    structured binaries) versus an XOR keystream (entropy ~8.0).
    ``unpackable`` marks families our F-Prot analog can reverse.
    ``is_compression_only`` marks plain archive formats the paper does
    not count as obfuscation (§IV-E: 'compression algorithms ... are not
    considered obfuscation').
    """

    name: str
    signature: bytes
    compresses: bool = True
    unpackable: bool = True
    is_compression_only: bool = False

    def reverse(self, raw: bytes, key: bytes = b"k3y") -> bytes:
        """Undo this packer on ``raw``, which it was identified in."""
        if not self.unpackable:
            raise BinaryFormatError(f"packer {self.name} is not unpackable")
        magic = magic_kind(raw).magic
        prefix = magic + _STUB + self.signature + b"\x00"
        payload = raw[len(prefix):]
        if self.compresses:
            try:
                inner = zlib.decompress(payload)
            except zlib.error as exc:
                raise BinaryFormatError(
                    f"corrupt packed payload: {exc}") from exc
        else:
            inner = _xor_stream(payload, key)
        return magic + inner


#: Families from Table X, most common first (UPX 328,493 samples).
PACKERS: Dict[str, Packer] = {
    "UPX": Packer("UPX", b"UPX!"),
    "NSIS": Packer("NSIS", b"NullsoftInst", is_compression_only=False),
    "maxorder": Packer("maxorder", b"MAXORDER"),
    "SFX": Packer("SFX", b"SFX7z\x00", is_compression_only=True),
    "INNO": Packer("INNO", b"Inno Setup"),
    "eval": Packer("eval", b"EVALPK\x01", compresses=False, unpackable=False),
    "docwrite": Packer("docwrite", b"DOCWRITE", compresses=False, unpackable=False),
    "ARJ": Packer("ARJ", b"\x60\xea", is_compression_only=True),
    "CAB": Packer("CAB", b"MSCF", is_compression_only=True),
    "Enigma": Packer("Enigma", b"", compresses=False, unpackable=False),
}

#: Crypters sold in underground markets: no signature, not unpackable.
CUSTOM_CRYPTER = Packer("custom", b"", compresses=False, unpackable=False)


@dataclass
class PackedBinary:
    """Raw bytes of a packed binary plus which packer produced it."""

    raw: bytes
    packer: Packer


def pack(raw: bytes, packer: Packer, key: bytes = b"k3y") -> bytes:
    """Pack ``raw`` with ``packer``, preserving the executable magic."""
    kind = magic_kind(raw)
    if kind in (ExecutableKind.SCRIPT, ExecutableKind.DATA):
        raise BinaryFormatError("can only pack executables")
    magic = kind.magic
    inner = raw[len(magic):]
    if packer.compresses:
        payload = zlib.compress(inner, level=9)
    else:
        payload = _xor_stream(inner, key)
    return magic + _STUB + packer.signature + b"\x00" + payload


def identify_packer(raw: bytes) -> Optional[Packer]:
    """Fingerprint a packed binary by signature (the F-Prot analog).

    Returns None for unpacked binaries and for signature-less crypters
    (Enigma/custom), for which only the entropy heuristic remains.
    """
    kind = magic_kind(raw)
    if kind in (ExecutableKind.SCRIPT, ExecutableKind.DATA):
        return None
    window = raw[len(kind.magic):len(kind.magic) + len(_STUB) + 16]
    for packer in PACKERS.values():
        if packer.signature and packer.signature in window:
            return packer
    return None


def is_packed(raw: bytes) -> bool:
    """True when a known packer signature is present."""
    return identify_packer(raw) is not None


def packer_names() -> List[str]:
    """Names of every registered packer family."""
    return list(PACKERS)


def pack_chain(raw: bytes, packers: Tuple[Packer, ...]) -> bytes:
    """Apply several packers in sequence (seen in layered droppers)."""
    for packer in packers:
        raw = pack(raw, packer)
    return raw
