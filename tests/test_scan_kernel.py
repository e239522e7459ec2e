"""Equivalence suite: the one-pass scan kernel vs the legacy oracles.

The kernel (`repro.perf.scan`) must fire exactly the same rules,
identifiers and IoCs as the per-pattern evaluators it replaced
(`RuleSet.scan_legacy`, `classify_identifier_legacy`,
`extract_identifiers_legacy`), on random blobs, generated-world
samples, and the overlapping-needle / nocase / hex edge cases.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binfmt.format import ExecutableKind, build_binary
from repro.binfmt.packers import PACKERS, Packer, pack
from repro.binfmt.strings import extract_strings
from repro.common.errors import RuleSyntaxError
from repro.common.rng import DeterministicRNG
from repro.core.static_analysis import StaticAnalyzer
from repro.perf.scan import (
    _DENSE_NEEDLE_CUTOVER,
    BLOB_MIN_RUN,
    AhoCorasick,
    ScanContext,
    build_blob,
    printable_min_len,
    reset_scan_stats,
    scan_stats,
)
from repro.wallets.addresses import COINS, WalletFactory
from repro.wallets.detect import (
    classify_identifier,
    classify_identifier_legacy,
    extract_identifiers,
    extract_identifiers_legacy,
)
from repro.yarm.builtin import builtin_miner_rules
from repro.yarm.engine import compile_rules

# --------------------------------------------------------------------------
# Edge-case rule set: overlapping needles, nocase text, hex (plain and
# nocase — the legacy evaluator ignores nocase for hex), short and
# non-printable needles, blob-safe and raw-only regexes, negated and
# counted conditions, duplicate identifiers sharing one automaton slot.
# --------------------------------------------------------------------------

EDGE_RULES_SOURCE = '''
rule Overlap {
    strings:
        $a = "abcdef"
        $b = "abcdefg"
        $c = "bcdefg"
    condition:
        2 of them
}
rule NocaseShort {
    strings:
        $a = "NoCasePool" nocase
        $b = "-u 4"
    condition:
        any of them
}
rule HexBytes {
    strings:
        $h = { DE AD BE EF }
        $i = { 1F 8B 08 } nocase
    condition:
        all of them
}
rule Regexes {
    strings:
        $safe = /xmrig[0-9]{2}/
        $raw = /port=\\d+/
    condition:
        any of them
}
rule Negated {
    strings:
        $mark = "minermark"
        $clean = "cleanmark"
    condition:
        $mark and not $clean
}
rule SharedSlot {
    strings:
        $x = "sharedneedle"
        $y = "sharedneedle"
        $z = "othermark"
    condition:
        2 of them
}
'''

#: fragments chosen to tickle every rule above, plus builtin triggers.
FRAGMENTS = [
    b"abcdef", b"abcdefg", b"bcdefg", b"nocasepool", b"NOCASEPOOL",
    b"-u 4", b"\xde\xad\xbe\xef", b"\x1f\x8b\x08", b"xmrig42",
    b"port=8080", b"minermark", b"cleanmark", b"sharedneedle",
    b"othermark", b"stratum+tcp://pool.example.com:3333",
    b"donate.v2.xmrig.com", b"cryptonight",
]


@pytest.fixture(scope="module")
def edge_rules():
    return compile_rules(EDGE_RULES_SOURCE)


@pytest.fixture(scope="module")
def builtin_rules():
    return builtin_miner_rules()


def _inject(noise: bytes, fragments, offset: int) -> bytes:
    data = bytearray(noise)
    for index, fragment in enumerate(fragments):
        position = (offset * (index + 1)) % (len(data) + 1)
        data[position:position] = fragment
    return bytes(data)


class TestKernelEqualsLegacy:
    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=300),
           st.lists(st.sampled_from(FRAGMENTS), max_size=6),
           st.integers(min_value=0, max_value=997))
    def test_edge_rules_random_blobs(self, edge_rules, noise, frags, off):
        data = _inject(noise, frags, off)
        assert edge_rules.scan(data) == edge_rules.scan_legacy(data)

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=300),
           st.lists(st.sampled_from(FRAGMENTS), max_size=6),
           st.integers(min_value=0, max_value=997))
    def test_builtin_rules_random_blobs(self, builtin_rules, noise,
                                        frags, off):
        data = _inject(noise, frags, off)
        assert builtin_rules.scan(data) == builtin_rules.scan_legacy(data)

    def test_every_fragment_alone(self, edge_rules, builtin_rules):
        for fragment in FRAGMENTS:
            for rules in (edge_rules, builtin_rules):
                assert rules.scan(fragment) == rules.scan_legacy(fragment)

    def test_world_samples(self, small_world, builtin_rules):
        for sample in small_world.samples:
            ctx = ScanContext.for_sample(sample.raw)
            assert (builtin_rules.scan(ctx)
                    == builtin_rules.scan_legacy(ctx.data))

    def test_unknown_identifier_still_raises(self):
        rules = compile_rules('''
        rule Bad {
            strings:
                $a = "abcdef"
            condition:
                $a or $missing
        }
        ''')
        with pytest.raises(RuleSyntaxError):
            rules.scan(b"whatever")

    def test_accepts_bytes_and_context(self, builtin_rules):
        data = b"config stratum+tcp://pool.example.com:3333 xx"
        assert (builtin_rules.scan(data)
                == builtin_rules.scan(ScanContext(data)))


class TestAhoCorasick:
    needles = st.lists(st.binary(max_size=5), max_size=12)

    @settings(max_examples=150, deadline=None)
    @given(needles, st.binary(max_size=120))
    def test_walk_equals_find(self, needles, data):
        automaton = AhoCorasick(needles)
        assert automaton.walk(data) == automaton.find(data)

    def test_overlapping_needles_all_fire(self):
        automaton = AhoCorasick([b"abc", b"abcd", b"bcd", b"abc"])
        assert automaton.walk(b"xxabcdxx") == frozenset({0, 1, 2, 3})

    def test_empty_needle_always_fires(self):
        automaton = AhoCorasick([b"", b"zz"])
        assert automaton.find(b"anything") == frozenset({0})
        assert automaton.walk(b"zz") == frozenset({0, 1})

    # Needles over a two-letter alphabet, so that at least 128 unique ones
    # exist and many of them occur in data over nearly the same alphabet.
    dense_needles = st.lists(
        st.text("ab", min_size=1, max_size=8).map(str.encode),
        min_size=_DENSE_NEEDLE_CUTOVER, max_size=_DENSE_NEEDLE_CUTOVER + 40,
        unique=True)

    @settings(max_examples=40, deadline=None)
    @given(dense_needles, st.lists(st.integers(0, 7), max_size=6),
           st.text("abc", max_size=300).map(str.encode))
    def test_dense_find_equals_substring_search(self, needles, extra, data):
        # repeated needles and an empty one keep their own indices
        needles = needles + [needles[i] for i in extra] + [b""]
        automaton = AhoCorasick(needles)
        assert len(automaton._unique) >= _DENSE_NEEDLE_CUTOVER
        assert automaton.find(data) == frozenset(
            i for i, needle in enumerate(needles) if needle in data)


class TestIdentifierEquivalence:
    @pytest.fixture(scope="class")
    def identifiers(self):
        factory = WalletFactory(DeterministicRNG(7))
        made = [factory.new_address(t) for t in COINS for _ in range(3)]
        made += [factory.new_email() for _ in range(5)]
        made += ["worker_ab12cd34", "not-an-identifier", "4short"]
        # mutations: truncations, corrupted checksums, flipped case
        mutated = [m[:-1] for m in made] + [m + "x" for m in made]
        mutated += [m[0] + "0" + m[2:] for m in made if len(m) > 2]
        mutated += [m.swapcase() for m in made]
        return made + mutated

    def test_classify_matches_legacy(self, identifiers):
        for value in identifiers:
            assert (classify_identifier(value)
                    == classify_identifier_legacy(value))

    @settings(max_examples=150, deadline=None)
    @given(st.text(max_size=40))
    def test_classify_random_text(self, value):
        assert classify_identifier(value) == classify_identifier_legacy(value)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_extract_matches_legacy(self, identifiers, data):
        tokens = data.draw(st.lists(
            st.sampled_from(identifiers)
            | st.text(alphabet="azX4@._- =\"';,", max_size=12),
            max_size=12))
        delimiters = data.draw(st.lists(
            st.sampled_from([" ", "\n", "\t", "=", '"', "',", ";("]),
            min_size=max(len(tokens) - 1, 0),
            max_size=max(len(tokens) - 1, 0)))
        text = "".join(
            token + (delimiters[i] if i < len(delimiters) else "")
            for i, token in enumerate(tokens))
        assert (extract_identifiers(text)
                == extract_identifiers_legacy(text))

    def test_extract_on_world_strings(self, small_world):
        for sample in small_world.samples[:200]:
            blob = ScanContext.for_sample(sample.raw).text
            assert (extract_identifiers(blob)
                    == extract_identifiers_legacy(blob))


class TestScanContext:
    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=3000))
    def test_blob_equals_regex_reference(self, data):
        runs = re.compile(rb"[\x20-\x7e]{%d,}" % BLOB_MIN_RUN)
        assert build_blob(data) == b"\n".join(runs.findall(data))

    def test_blob_vector_path_on_large_input(self):
        data = (b"\x00\x01printable run here\xff" * 200
                + b"tiny\x02" + b"ends with a run of text")
        runs = re.compile(rb"[\x20-\x7e]{%d,}" % BLOB_MIN_RUN)
        assert len(data) > 1024
        assert build_blob(data) == b"\n".join(runs.findall(data))

    def test_strings_equal_extract_strings(self, small_world):
        for sample in small_world.samples[:100]:
            ctx = ScanContext.for_sample(sample.raw)
            assert ctx.strings == extract_strings(ctx.data)

    def test_unpack_shared_between_consumers(self, monkeypatch):
        """One context, two consumers, one unpack."""
        inner = build_binary(
            ExecutableKind.PE, code=b"\x90" * 64,
            strings=["stratum+tcp://pool.example.com:3333"])
        packed = pack(inner, PACKERS["UPX"])
        reversals = []
        reverse = Packer.reverse

        def counting_reverse(packer, raw, key=b"k3y"):
            reversals.append(packer.name)
            return reverse(packer, raw, key)

        monkeypatch.setattr(Packer, "reverse", counting_reverse)
        reset_scan_stats()
        ctx = ScanContext.for_sample(packed)
        findings = StaticAnalyzer().analyze(ctx)
        assert builtin_miner_rules().scan(ctx)
        assert reversals == ["UPX"]
        assert scan_stats()["contexts_built"] == 1
        assert (findings.packer, findings.unpacked) == ("UPX", True)
        assert (ctx.data, ctx.unpacked) == (inner, True)

    def test_cached_unpack_flags(self):
        inner = build_binary(ExecutableKind.PE, code=b"\x90" * 64,
                             strings=["some content string"])
        packed = pack(inner, PACKERS["UPX"])
        ctx = ScanContext.for_sample(packed)
        assert (ctx.data, ctx.unpacked, ctx.packer) == (
            inner, True, PACKERS["UPX"])
        plain = ScanContext.for_sample(b"plain bytes")
        assert (plain.data, plain.unpacked, plain.packer) == (
            b"plain bytes", False, None)


class TestBlobSafetyAnalysis:
    def test_builtin_wallet_regex_is_blob_safe(self):
        length = printable_min_len(rb"4[0-9AB][1-9A-HJ-NP-Za-km-z]{93}")
        assert length == 95

    def test_literals_and_classes(self):
        assert printable_min_len(rb"abcdef") == 6
        assert printable_min_len(rb"(?:abc|defgh)") == 3
        assert printable_min_len(rb"ab{2,4}c") == 4

    def test_unsafe_constructs_rejected(self):
        for pattern in (rb"\d+", rb"a.c", rb"^abcdef", rb"abcdef$",
                        rb"[^ab]cdef", rb"(?=abc)def", rb"\w{8}"):
            assert printable_min_len(pattern) is None


class TestPackerRendering:
    def test_compression_only_renders_archive(self):
        inner = build_binary(ExecutableKind.PE, code=b"\x90" * 64,
                             strings=["plain old content"])
        findings = StaticAnalyzer().analyze(
            ScanContext.for_sample(pack(inner, PACKERS["SFX"])))
        assert findings.packer == "SFX (archive)"

    def test_crypter_renders_plain_name(self):
        inner = build_binary(ExecutableKind.PE, code=b"\x90" * 64,
                             strings=["plain old content"])
        findings = StaticAnalyzer().analyze(
            ScanContext.for_sample(pack(inner, PACKERS["UPX"])))
        assert findings.packer == "UPX"


class TestBatchIngestParity:
    def test_streaming_matches_batch_with_kernel(self, tmp_path):
        from repro.core.pipeline import MeasurementPipeline
        from repro.corpus.generator import generate_world
        from repro.corpus.model import ScenarioConfig
        from repro.ingest import IngestionService
        from repro.ingest.service import diff_measurements
        world = generate_world(ScenarioConfig(seed=5, scale=0.004))
        ingest = IngestionService(world, str(tmp_path / "ck"),
                                  batch_days=120).run()
        batch = MeasurementPipeline(world).run()
        assert diff_measurements(batch, ingest.result) == []


#: scan contexts one pass over the seed-2019, scale-0.004 world builds:
#: one per stage-1 analysis, deferral, wallet-exception sweep and
#: dropper-chain recovery.  Measured on a batch pass just before the
#: content-keyed ``scan_context`` memo was deleted: 1,248 lookups, of
#: which 389 were rule scans reusing their own analysis' context.  The
#: memo held to one entry missed the other 859.  At its 2,048 entries it
#: missed 791: it also served the 68 dropper-chain recoveries, each a
#: second analysis of a sample rejected earlier in the pass.
CONTEXTS_PER_PASS = 859


class TestOneContextPerAnalysis:
    @pytest.fixture(scope="class")
    def world(self):
        from repro.corpus.generator import generate_world
        from repro.corpus.model import ScenarioConfig
        return generate_world(ScenarioConfig(seed=2019, scale=0.004))

    def test_batch_pass_builds_one_context_per_analysis(self, world):
        from repro.core.pipeline import MeasurementPipeline
        reset_scan_stats()
        MeasurementPipeline(world).run()
        assert scan_stats()["contexts_built"] == CONTEXTS_PER_PASS

    def test_ingest_pass_builds_one_context_per_analysis(self, world,
                                                         tmp_path):
        from repro.ingest import IngestionService
        reset_scan_stats()
        IngestionService(world, str(tmp_path / "ck"), batch_days=30,
                         fsync=False).run()
        assert scan_stats()["contexts_built"] == CONTEXTS_PER_PASS

    def test_stage1_consumers_share_one_context(self, world, monkeypatch):
        import repro.binfmt.packers as packers
        import repro.perf.scan as scan
        from repro.core.pipeline import (
            build_analysis_components,
            stage1_analyze,
        )
        from repro.core.sanity import (
            MALWARE_POSITIVES_THRESHOLD,
            SanityChecker,
        )
        seen = {"analyze": [], "is_miner": [], "identify": 0}
        analyze, is_miner = StaticAnalyzer.analyze, SanityChecker.is_miner
        identify = packers.identify_packer

        def spy_analyze(self, ctx):
            seen["analyze"].append(ctx)
            return analyze(self, ctx)

        def spy_is_miner(self, sample, ctx, sandbox_report=None):
            seen["is_miner"].append(ctx)
            return is_miner(self, sample, ctx, sandbox_report)

        def spy_identify(raw):
            seen["identify"] += 1
            return identify(raw)

        monkeypatch.setattr(StaticAnalyzer, "analyze", spy_analyze)
        monkeypatch.setattr(SanityChecker, "is_miner", spy_is_miner)
        monkeypatch.setattr(scan, "identify_packer", spy_identify)
        monkeypatch.setattr(packers, "identify_packer", spy_identify)
        checker, engine = build_analysis_components(
            world, MALWARE_POSITIVES_THRESHOLD)
        analysed = scanned = 0
        for index, sample in enumerate(world.samples):
            seen.update(analyze=[], is_miner=[], identify=0)
            stage1_analyze(sample, index, checker, engine)
            if not seen["analyze"]:
                continue  # not an executable, or below the threshold
            analysed += 1
            assert len(seen["analyze"]) == 1
            assert seen["identify"] == 1
            if seen["is_miner"]:
                scanned += 1
                assert seen["is_miner"] == seen["analyze"]
                assert seen["is_miner"][0] is seen["analyze"][0]
        assert analysed > scanned > 0
