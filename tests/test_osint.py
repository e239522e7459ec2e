"""Unit tests for OSINT feeds and the stock-tool catalog."""

import datetime
import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.binfmt.codegen import pseudo_code
from repro.common.rng import DeterministicRNG
from repro.fuzzyhash import ctph
from repro.osint.feeds import (
    KNOWN_OPERATION_NAMES,
    KnownOperation,
    OsintFeeds,
    PPI_BOTNETS,
    ppi_botnets_named,
)
from repro.osint.stock_tools import StockToolCatalog, TOOL_FRAMEWORKS

D = datetime.date


class TestOsintFeeds:
    def test_six_default_operations(self):
        feeds = OsintFeeds()
        names = {op.name for op in feeds.operations()}
        assert names == set(KNOWN_OPERATION_NAMES)
        assert "Photominer" in names and "Rocke" in names

    def test_register_new_operation(self):
        """The methodology 'easily includes data from new operations'."""
        feeds = OsintFeeds()
        feeds.register_operation(KnownOperation(
            "NewBotnet", wallets={"W1"}))
        assert feeds.operation_for_wallet("W1").name == "NewBotnet"

    def test_lookup_by_sample_hash(self):
        feeds = OsintFeeds()
        feeds.operation("Adylkuzz").sample_hashes.add("abc")
        assert feeds.operation_for_sample("abc").name == "Adylkuzz"
        assert feeds.operation_for_sample("zzz") is None

    def test_lookup_by_domain_suffix(self):
        feeds = OsintFeeds()
        feeds.operation("Smominru").domains.add("evil.example")
        assert feeds.operation_for_domain("sub.evil.example").name == \
            "Smominru"
        assert feeds.operation_for_domain("evil.example.org") is None

    def test_donation_whitelist(self):
        feeds = OsintFeeds()
        feeds.whitelist_donation_wallet("DON1")
        assert feeds.is_donation_wallet("DON1")
        assert not feeds.is_donation_wallet("OTHER")


class TestPpiBotnets:
    def test_three_families(self):
        assert [b.name for b in PPI_BOTNETS] == ["Virut", "Ramnit", "Nitol"]

    def test_label_matching(self):
        virut = PPI_BOTNETS[0]
        assert virut.matches_label("Win32.Virut.ab")
        assert virut.matches_label("WIN32.VIRUT.AB")
        assert not virut.matches_label("Trojan.CoinMiner.x")

    #: whole labels, family tokens and halves of tokens (which only a
    #: neighbouring label could complete), in any case, and characters
    #: whose lower case is longer or context-dependent (final sigma)
    _PIECES = ("virut", "ViRuT", "rAmNiT", "NITOL", "vir", "UT", "ram",
               "nit", "ol", "ΣΑΣ", "Σ", "İ", "ẞ", "ǅ", "\n")
    _LABELS = st.one_of(
        st.text(), st.sampled_from(_PIECES),
        st.tuples(st.text(max_size=3), st.sampled_from(_PIECES),
                  st.text(max_size=3)).map("".join))

    @given(st.lists(_LABELS, max_size=8))
    @example(["vir", "UT"])
    @example(["Nit", "ol", "AΣ", "Σ"])
    @settings(max_examples=300, deadline=None)
    def test_one_pass_per_sample_equals_per_label_loop(self, labels):
        per_label = {botnet.name for label in labels
                     for botnet in PPI_BOTNETS
                     if botnet.matches_label(label)}
        assert ppi_botnets_named(labels) == per_label


class TestStockToolCatalog:
    def test_thirteen_frameworks(self, stock_catalog):
        assert len(stock_catalog.frameworks()) == 13
        assert len(TOOL_FRAMEWORKS) == 13

    def test_fourteen_donation_wallets(self, stock_catalog):
        """The paper white-lists exactly 14 donation wallets."""
        assert len(stock_catalog.donation_wallets()) == 14

    def test_version_counts_follow_table9(self, stock_catalog):
        per_framework = {}
        for binary in stock_catalog.binaries():
            per_framework.setdefault(binary.framework, set()).add(
                binary.version_index)
        assert len(per_framework["xmrig"]) == 59
        assert len(per_framework["claymore"]) == 14
        assert len(per_framework["niceHash"]) == 11
        assert len(per_framework["ccminer"]) == 1

    def test_whitelist_covers_all_builds(self, stock_catalog):
        assert len(stock_catalog.whitelist_hashes()) == len(stock_catalog)

    def test_releases_inside_window(self, stock_catalog):
        for binary in stock_catalog.binaries():
            assert binary.release_date <= D(2019, 4, 30)

    def test_latest_version_as_of(self, stock_catalog):
        early = stock_catalog.latest_version("xmrig", as_of=D(2017, 8, 1))
        late = stock_catalog.latest_version("xmrig", as_of=D(2019, 4, 1))
        assert early.version_index < late.version_index

    def test_latest_version_before_release_none(self, stock_catalog):
        assert stock_catalog.latest_version("xmrig",
                                            as_of=D(2016, 1, 1)) is None

    def test_exact_hash_match(self, stock_catalog):
        tool = stock_catalog.latest_version("claymore")
        assert stock_catalog.by_hash(
            hashlib.sha256(tool.raw).hexdigest()) is tool
        match = stock_catalog.match(ctph.compute(tool.raw))
        assert match is not None
        assert match[1] == 0.0
        assert match[0].framework == "claymore"

    def test_fork_matches_within_threshold(self, stock_catalog):
        """Donation-stripped forks stay attributable (§III-E)."""
        tool = stock_catalog.latest_version("xmrig")
        fork = stock_catalog.fork_tool(tool, DeterministicRNG(77))
        match = stock_catalog.match(ctph.compute(fork), threshold=0.1)
        assert match is not None
        assert match[0].framework == "xmrig"
        assert 0.0 < match[1] <= 0.1

    def test_unrelated_binary_no_match(self, stock_catalog):
        rng = DeterministicRNG(88)
        assert stock_catalog.match(
            ctph.compute(rng.randbytes(4400))) is None

    def test_cross_framework_no_match(self, stock_catalog):
        """Different frameworks must not match each other."""
        xmrig = stock_catalog.latest_version("xmrig")
        match = stock_catalog.match(xmrig.fuzzy, threshold=0.1)
        assert match[0].framework == "xmrig"

    def test_deterministic_catalog(self):
        c1 = StockToolCatalog(DeterministicRNG(5))
        c2 = StockToolCatalog(DeterministicRNG(5))
        assert c1.whitelist_hashes() == c2.whitelist_hashes()


def _reference_match(catalog, data, threshold):
    """``match`` as a full scan: every fuzzy-index entry scored in
    order, the first strict minimum within ``threshold`` kept."""
    candidate = ctph.compute(data)
    index = catalog._fuzzy_index()
    best = None
    for blocksize, signature in (
            (candidate.blocksize, candidate.signature),
            (candidate.blocksize * 2, candidate.double_signature)):
        grams = ctph.signature_grams(signature)
        if not grams:
            continue
        entries, _ = index.get(blocksize, ([], {}))
        for cat_sig, cat_grams, tool in entries:
            score = ctph.score_with_grams(signature, grams, cat_sig,
                                          cat_grams, blocksize)
            dist = 1.0 - score / 100.0
            if dist <= threshold and (best is None or dist < best[1]):
                best = (tool, dist)
    return best


def _equivalence_inputs(catalog):
    builds = catalog.binaries()[::37]
    rng = DeterministicRNG(2019)
    inputs = [build.raw for build in builds]
    # one byte changed: the SHA-256 misses, the fuzzy path runs
    inputs += [build.raw[:-1] + bytes([build.raw[-1] ^ 1])
               for build in builds]
    inputs += [catalog.fork_tool(build, rng.substream(f"fork:{i}"))
               for i, build in enumerate(builds)]
    inputs += [pseudo_code(rng.substream(f"blob:{size}"), size)
               for size in (1200, 2300, 4400, 8800, 17600)]
    # one block-size octave above and below a build
    inputs += [build.raw * 2 for build in builds]
    inputs += [build.raw[:len(build.raw) // 2] for build in builds]
    return inputs


class TestPostingsMatch:
    """The postings-pruned ``match`` equals a scan of the whole index."""

    @pytest.mark.parametrize("threshold", [0.1, 0.95])
    def test_equals_full_scan(self, stock_catalog, threshold):
        inputs = _equivalence_inputs(stock_catalog)
        matched = 0
        for data in inputs:
            got = stock_catalog.match(ctph.compute(data),
                                      threshold=threshold)
            want = _reference_match(stock_catalog, data, threshold)
            if want is None:
                assert got is None
                continue
            matched += 1
            assert got is not None
            assert got[0] is want[0] and got[1] == want[1]
        assert 0 < matched < len(inputs)

    def test_threshold_of_no_similarity_rejected(self, stock_catalog):
        with pytest.raises(ValueError):
            stock_catalog.match(ctph.compute(b"\x00" * 4400),
                                threshold=1.0)
