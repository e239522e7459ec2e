"""Unit tests for the synthetic executable format, packers and entropy."""

import pytest

from repro.binfmt.codegen import pseudo_code
from repro.binfmt.entropy import (
    OBFUSCATION_THRESHOLD,
    looks_obfuscated,
    shannon_entropy,
)
from repro.binfmt.format import (
    ExecutableKind,
    build_binary,
    magic_kind,
    parse_binary,
)
from repro.binfmt.packers import (
    CUSTOM_CRYPTER,
    PACKERS,
    identify_packer,
    is_packed,
    pack,
    pack_chain,
)
from repro.binfmt.strings import extract_strings
from repro.common.errors import BinaryFormatError
from repro.common.rng import DeterministicRNG


def unpack(raw):
    """Reverse the packer identified in ``raw``; raises when none is."""
    packer = identify_packer(raw)
    if packer is None:
        raise BinaryFormatError("no known packer signature")
    return packer.reverse(raw)


@pytest.fixture
def sample_binary():
    rng = DeterministicRNG(11)
    return build_binary(
        ExecutableKind.PE,
        code=pseudo_code(rng, 2000),
        strings=["stratum+tcp://pool.example.com:4444", "-u WALLET"],
        config={"url": "stratum+tcp://pool.example.com:4444", "user": "W"},
        resources=b"RSRC" * 10,
    )


class TestFormat:
    def test_roundtrip(self, sample_binary):
        parsed = parse_binary(sample_binary)
        assert parsed.kind is ExecutableKind.PE
        assert parsed.config["user"] == "W"
        assert "stratum+tcp://pool.example.com:4444" in parsed.data_strings

    def test_magic_kinds(self):
        assert magic_kind(b"MZ....") is ExecutableKind.PE
        assert magic_kind(b"\x7fELF....") is ExecutableKind.ELF
        assert magic_kind(b"PK\x03\x04..") is ExecutableKind.JAR
        assert magic_kind(b"#!/bin/sh") is ExecutableKind.SCRIPT
        assert magic_kind(b"<script>") is ExecutableKind.SCRIPT
        assert magic_kind(b"\x00\x01\x02") is ExecutableKind.DATA

    def test_elf_and_jar_build(self):
        for kind in (ExecutableKind.ELF, ExecutableKind.JAR):
            raw = build_binary(kind, code=b"\x90" * 10)
            assert parse_binary(raw).kind is kind

    def test_parse_rejects_non_executable(self):
        with pytest.raises(BinaryFormatError):
            parse_binary(b"#!/bin/sh\necho hi")

    def test_parse_rejects_truncation(self, sample_binary):
        with pytest.raises(BinaryFormatError):
            parse_binary(sample_binary[:20])

    def test_missing_sections(self):
        raw = build_binary(ExecutableKind.PE)
        parsed = parse_binary(raw)
        assert parsed.data_strings == []
        assert parsed.config is None
        assert parsed.section(".text") is None


class TestEntropy:
    def test_empty(self):
        assert shannon_entropy(b"") == 0.0

    def test_uniform_zero(self):
        assert shannon_entropy(b"\x00" * 100) == 0.0

    def test_random_near_eight(self):
        rng = DeterministicRNG(2)
        assert shannon_entropy(rng.randbytes(8192)) > 7.9

    def test_bounds(self):
        rng = DeterministicRNG(2)
        for size in (1, 10, 100):
            e = shannon_entropy(rng.randbytes(size))
            assert 0.0 <= e <= 8.0

    def test_pseudo_code_below_threshold(self):
        rng = DeterministicRNG(3)
        code = pseudo_code(rng, 4000)
        assert shannon_entropy(code) < OBFUSCATION_THRESHOLD

    def test_looks_obfuscated(self):
        rng = DeterministicRNG(4)
        assert looks_obfuscated(rng.randbytes(4096))
        assert not looks_obfuscated(b"A" * 4096)


class TestPackers:
    def test_pack_preserves_magic(self, sample_binary):
        packed = pack(sample_binary, PACKERS["UPX"])
        assert packed[:2] == b"MZ"

    def test_identify_each_signature_family(self, sample_binary):
        for name, packer in PACKERS.items():
            if not packer.signature:
                continue
            packed = pack(sample_binary, packer)
            found = identify_packer(packed)
            assert found is not None and found.name == name

    def test_unpack_roundtrip(self, sample_binary):
        packed = pack(sample_binary, PACKERS["UPX"])
        assert unpack(packed) == sample_binary

    def test_crypter_has_no_signature(self, sample_binary):
        packed = pack(sample_binary, CUSTOM_CRYPTER)
        assert identify_packer(packed) is None

    def test_crypter_high_entropy(self, sample_binary):
        packed = pack(sample_binary, CUSTOM_CRYPTER)
        assert shannon_entropy(packed) > OBFUSCATION_THRESHOLD

    def test_packed_binary_unparseable(self, sample_binary):
        packed = pack(sample_binary, PACKERS["UPX"])
        with pytest.raises(BinaryFormatError):
            parse_binary(packed)

    def test_unpack_without_packer_raises(self, sample_binary):
        with pytest.raises(BinaryFormatError):
            unpack(sample_binary)

    def test_unpack_crypter_raises(self, sample_binary):
        packed = pack(sample_binary, PACKERS["Enigma"])
        # Enigma has no signature so it cannot even be identified
        with pytest.raises(BinaryFormatError):
            unpack(packed)

    def test_pack_non_executable_raises(self):
        with pytest.raises(BinaryFormatError):
            pack(b"#!/bin/sh", PACKERS["UPX"])

    def test_is_packed(self, sample_binary):
        assert not is_packed(sample_binary)
        assert is_packed(pack(sample_binary, PACKERS["NSIS"]))

    def test_pack_chain(self, sample_binary):
        layered = pack_chain(sample_binary,
                             (PACKERS["UPX"], PACKERS["NSIS"]))
        outer = identify_packer(layered)
        assert outer is not None and outer.name == "NSIS"
        inner = unpack(layered)
        assert identify_packer(inner).name == "UPX"
        assert unpack(inner) == sample_binary


class TestStrings:
    def test_extracts_embedded(self, sample_binary):
        strings = extract_strings(sample_binary)
        assert any("stratum+tcp://" in s for s in strings)

    def test_min_length_filter(self):
        data = b"ab\x00abcdef\x00"
        assert extract_strings(data, min_length=6) == ["abcdef"]

    def test_min_length_validation(self):
        with pytest.raises(ValueError):
            extract_strings(b"abc", min_length=0)

    def test_binary_noise_filtered(self):
        rng = DeterministicRNG(5)
        noise = bytes(b for b in rng.randbytes(500) if b < 0x20)
        assert extract_strings(noise) == []


class TestCodegen:
    def test_size_exact(self):
        rng = DeterministicRNG(6)
        assert len(pseudo_code(rng, 1234)) == 1234

    def test_zero_size(self):
        rng = DeterministicRNG(6)
        assert pseudo_code(rng, 0) == b""

    def test_deterministic(self):
        assert pseudo_code(DeterministicRNG(7), 500) == \
            pseudo_code(DeterministicRNG(7), 500)

    def test_different_seeds_differ(self):
        assert pseudo_code(DeterministicRNG(7), 500) != \
            pseudo_code(DeterministicRNG(8), 500)
