"""Synthetic executable substrate.

The paper's static analysis inspects real PE/ELF/JAR malware: magic-number
checks (§III-B), embedded-string extraction (wallets, pool URLs), packer
identification with the F-Prot unpacker, and Shannon entropy as a fallback
obfuscation signal (threshold 7.5, §IV-E).

We cannot ship real malware, so this package defines the ``SXE`` container:
a byte-level executable format carrying genuine PE/ELF/JAR magic numbers,
sections with code/data/config, and packer transforms that behave like the
packers in Table X (UPX unpackable and fingerprintable; Enigma-style
crypters fingerprint-less and high-entropy).  Every static-analysis code
path of the paper runs unmodified against these binaries.
"""

from repro.binfmt.format import (
    ExecutableKind,
    Section,
    SynthBinary,
    build_binary,
    magic_kind,
    parse_binary,
)
from repro.binfmt.entropy import shannon_entropy
from repro.binfmt.packers import (
    PACKERS,
    PackedBinary,
    Packer,
    identify_packer,
    pack,
)
from repro.binfmt.strings import extract_strings

__all__ = [
    "ExecutableKind",
    "Section",
    "SynthBinary",
    "build_binary",
    "magic_kind",
    "parse_binary",
    "shannon_entropy",
    "PACKERS",
    "PackedBinary",
    "Packer",
    "identify_packer",
    "pack",
    "extract_strings",
]
