"""Property-based tests (hypothesis) on the core data structures."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binfmt.entropy import shannon_entropy
from repro.binfmt.format import ExecutableKind, build_binary, parse_binary
from repro.binfmt.packers import PACKERS, identify_packer, pack
from repro.binfmt.strings import extract_strings
from repro.common.rng import DeterministicRNG, derive_seed
from repro.fuzzyhash.ctph import compare, compute, edit_distance
from repro.stratum.framing import LineFramer, encode_frame
from repro.wallets.base58 import b58decode, b58encode
from repro.wallets.detect import classify_identifier


class TestBase58Properties:
    @given(st.binary(max_size=128))
    def test_roundtrip(self, data):
        assert b58decode(b58encode(data)) == data

    @given(st.binary(min_size=1, max_size=64))
    def test_alphabet(self, data):
        encoded = b58encode(data)
        assert all(c not in "0OIl" for c in encoded)


class TestEntropyProperties:
    @given(st.binary(min_size=1, max_size=4096))
    def test_bounds(self, data):
        assert 0.0 <= shannon_entropy(data) <= 8.0

    @given(st.binary(min_size=1, max_size=512))
    def test_concatenation_with_self_preserves(self, data):
        # duplicating content never changes the byte distribution
        assert abs(shannon_entropy(data) - shannon_entropy(data * 2)) < 1e-9

    @given(st.integers(min_value=1, max_value=255),
           st.integers(min_value=1, max_value=2000))
    def test_constant_is_zero(self, byte, length):
        assert shannon_entropy(bytes([byte]) * length) == 0.0


class TestEditDistanceProperties:
    texts = st.text(alphabet=string.ascii_letters, max_size=40)

    @given(texts)
    def test_identity(self, a):
        assert edit_distance(a, a) == 0

    @given(texts, texts)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(texts, texts)
    def test_length_bound(self, a, b):
        d = edit_distance(a, b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @settings(max_examples=30)
    @given(texts, texts, texts)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= \
            edit_distance(a, b) + edit_distance(b, c)


class TestFuzzyHashProperties:
    @given(st.binary(min_size=0, max_size=8192))
    @settings(max_examples=50)
    def test_self_similarity(self, data):
        fh = compute(data)
        assert compare(fh, fh) >= 0
        if len(data) > 1024:  # long enough for a meaningful signature
            assert compare(fh, fh) == 100

    @given(st.binary(min_size=64, max_size=4096))
    @settings(max_examples=50)
    def test_deterministic(self, data):
        assert str(compute(data)) == str(compute(bytes(data)))

    @given(st.binary(min_size=0, max_size=2048), st.binary(min_size=0, max_size=2048))
    @settings(max_examples=50)
    def test_symmetry(self, a, b):
        ha, hb = compute(a), compute(b)
        assert compare(ha, hb) == compare(hb, ha)

    @given(st.binary(min_size=0, max_size=2048), st.binary(min_size=0, max_size=2048))
    @settings(max_examples=50)
    def test_score_range(self, a, b):
        assert 0 <= compare(compute(a), compute(b)) <= 100


class TestFramingProperties:
    json_values = st.recursive(
        st.none() | st.booleans() | st.integers(min_value=-10**9,
                                                max_value=10**9)
        | st.text(alphabet=string.printable.replace("\n", ""), max_size=20),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(alphabet=string.ascii_letters,
                                  min_size=1, max_size=8),
                          children, max_size=4),
        max_leaves=10,
    )

    @given(st.lists(st.dictionaries(
        st.text(alphabet=string.ascii_letters, min_size=1, max_size=8),
        json_values, max_size=4), min_size=1, max_size=8))
    @settings(max_examples=50)
    def test_stream_roundtrip(self, messages):
        wire = b"".join(encode_frame(m) for m in messages)
        framer = LineFramer()
        decoded = []
        # feed in 7-byte chunks to exercise partial-read handling
        for i in range(0, len(wire), 7):
            decoded.extend(framer.feed(wire[i:i + 7]))
        assert decoded == messages
        assert framer.pending_bytes == 0


class TestBinaryFormatProperties:
    @given(st.binary(max_size=2048),
           st.lists(st.text(alphabet=string.ascii_letters, min_size=1,
                            max_size=30), max_size=5))
    @settings(max_examples=50)
    def test_build_parse_roundtrip(self, code, strings):
        raw = build_binary(ExecutableKind.PE, code=code, strings=strings)
        parsed = parse_binary(raw)
        expected = [s for s in strings if s]
        assert parsed.data_strings == expected

    @given(st.binary(min_size=1, max_size=2048))
    @settings(max_examples=30)
    def test_pack_unpack_roundtrip(self, code):
        raw = build_binary(ExecutableKind.ELF, code=code)
        for name in ("UPX", "NSIS", "SFX"):
            packed = pack(raw, PACKERS[name])
            assert identify_packer(packed).reverse(packed) == raw


class TestStringsProperties:
    @given(st.binary(max_size=2048), st.integers(min_value=1, max_value=10))
    @settings(max_examples=50)
    def test_all_results_meet_min_length(self, data, min_length):
        for s in extract_strings(data, min_length=min_length):
            assert len(s) >= min_length
            assert all(0x20 <= ord(c) <= 0x7E for c in s)


class TestRngProperties:
    @given(st.integers(min_value=0, max_value=2**32),
           st.text(alphabet=string.ascii_letters, min_size=1, max_size=16))
    def test_derive_seed_stable(self, seed, label):
        assert derive_seed(seed, label) == derive_seed(seed, label)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20)
    def test_substream_reproducible(self, seed):
        a = DeterministicRNG(seed).substream("x").randbytes(16)
        b = DeterministicRNG(seed).substream("x").randbytes(16)
        assert a == b


class TestClassifierProperties:
    @given(st.text(alphabet=string.printable, max_size=120))
    @settings(max_examples=100)
    def test_never_crashes(self, text):
        classified = classify_identifier(text)
        assert classified.kind is not None
