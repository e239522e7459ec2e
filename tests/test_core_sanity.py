"""Unit tests for the sanity checks (§III-B)."""

import datetime

import pytest

from repro.binfmt.codegen import pseudo_code
from repro.binfmt.format import ExecutableKind, build_binary
from repro.common.rng import DeterministicRNG
from repro.core.sanity import SanityChecker
from repro.corpus.model import SampleRecord
from repro.intel.vt import AV_VENDORS, AvReport, VtService
from repro.netsim.flows import FlowRecord
from repro.osint.feeds import OsintFeeds
from repro.perf.scan import ScanContext
from repro.pools.directory import default_directory
from repro.sandbox.behavior import BehaviorScript
from repro.sandbox.emulator import SandboxReport

D = datetime.date


def make_sample(sha="s1", strings=None, kind=ExecutableKind.PE,
                raw=None):
    rng = DeterministicRNG(hash(sha) % 2**32)
    if raw is None:
        raw = build_binary(kind, code=pseudo_code(rng, 800),
                           strings=strings or [])
    return SampleRecord(sha256=sha, md5="", raw=raw,
                        behavior=BehaviorScript(), first_seen=None,
                        source="test", kind="miner")


def context(sample):
    return ScanContext.for_sample(sample.raw)


def vt_with(sha, positives, label="Trojan.CoinMiner.x", domains=()):
    vt = VtService()
    detections = {v: (label, D(2018, 1, 1))
                  for v in AV_VENDORS[:positives]}
    vt.add_report(AvReport(sha256=sha, detections=detections,
                           contacted_domains=list(domains)))
    return vt


def checker(vt, whitelist=None, threshold=10):
    return SanityChecker(vt, OsintFeeds(), default_directory(),
                         tool_whitelist=whitelist or set(),
                         positives_threshold=threshold)


class TestIsExecutable:
    def test_pe_elf_jar_accepted(self):
        c = checker(VtService())
        for kind in (ExecutableKind.PE, ExecutableKind.ELF,
                     ExecutableKind.JAR):
            assert c.is_executable(build_binary(kind, code=b"\x90"))

    def test_script_and_data_rejected(self):
        c = checker(VtService())
        assert not c.is_executable(b"#!/bin/sh\necho hi")
        assert not c.is_executable(b"<script>mine()</script>")
        assert not c.is_executable(b"\x00\x01\x02garbage")


class TestIsMalware:
    def test_threshold(self):
        c = checker(vt_with("s1", 10))
        assert c.is_malware("s1")
        c2 = checker(vt_with("s2", 9))
        assert not c2.is_malware("s2")

    def test_custom_threshold(self):
        """The paper's proposed 5-AV greedy trade-off (§VI)."""
        c = checker(vt_with("s1", 6), threshold=5)
        assert c.is_malware("s1")

    def test_whitelisted_tool_not_malware(self):
        c = checker(vt_with("tool1", 20), whitelist={"tool1"})
        assert not c.is_malware("tool1")

    def test_unknown_sample_not_malware(self):
        assert not checker(VtService()).is_malware("ghost")

    def test_illicit_wallet_exception(self):
        """A 5-positive sample sharing a confirmed wallet is kept."""
        c = checker(vt_with("s1", 5))
        assert not c.is_malware("s1", {"WALLET-A"})
        c.confirm_wallets({"WALLET-A"})
        assert c.is_malware("s1", {"WALLET-A"})
        assert not c.is_malware("s1", {"WALLET-B"})


class TestIsMiner:
    def test_yara_on_strings(self):
        sample = make_sample(
            strings=["stratum+tcp://pool.example:3333"])
        c = checker(vt_with(sample.sha256, 12))
        assert c.is_miner(sample, context(sample))

    def test_plain_malware_not_miner(self):
        sample = make_sample(strings=["nothing suspicious"])
        c = checker(vt_with(sample.sha256, 12, label="Trojan.Generic.a"))
        assert not c.is_miner(sample, context(sample))

    def test_stratum_flow_ioc(self):
        sample = make_sample(strings=["no static evidence"])
        report = SandboxReport(sample_sha256=sample.sha256)
        report.flows.record(FlowRecord("10.0.0.1", "10.0.0.1", 4444,
                                       "stratum", login="W"))
        c = checker(vt_with(sample.sha256, 12, label="Trojan.Generic.a"))
        assert c.is_miner(sample, context(sample), report)

    def test_pool_dns_ioc(self):
        sample = make_sample(strings=["nothing"])
        report = SandboxReport(sample_sha256=sample.sha256)
        report.dns_queries.append("xmr-eu.dwarfpool.com")
        c = checker(vt_with(sample.sha256, 12, label="Trojan.Generic.a"))
        assert c.is_miner(sample, context(sample), report)

    def test_vt_contacted_pool_domain(self):
        sample = make_sample(strings=["nothing"])
        c = checker(vt_with(sample.sha256, 12, label="Trojan.Generic.a",
                            domains=["pool.minexmr.com"]))
        assert c.is_miner(sample, context(sample))

    def test_miner_labels_query(self):
        sample = make_sample(strings=["nothing"])
        c = checker(vt_with(sample.sha256, 12, label="Riskware.CoinMiner"))
        assert c.is_miner(sample, context(sample))

    def test_osint_ioc(self):
        sample = make_sample(strings=["nothing"])
        vt = vt_with(sample.sha256, 12, label="Trojan.Generic.a")
        feeds = OsintFeeds()
        feeds.operation("Rocke").sample_hashes.add(sample.sha256)
        c = SanityChecker(vt, feeds, default_directory())
        assert c.is_miner(sample, context(sample))

    def test_packed_sample_unpacked_before_scan(self):
        from repro.binfmt.packers import PACKERS, pack
        inner = build_binary(
            ExecutableKind.PE, code=b"\x90" * 200,
            strings=["stratum+tcp://pool.example:3333"])
        packed = pack(inner, PACKERS["UPX"])
        sample = make_sample(raw=packed)
        c = checker(vt_with(sample.sha256, 12))
        assert c.is_miner(sample, context(sample))


class TestCombinedVerdict:
    def test_accepted_path(self):
        sample = make_sample(strings=["stratum+tcp://p:3333"])
        verdict = checker(vt_with(sample.sha256, 15)).check(sample)
        assert verdict.accepted

    def test_rejected_not_executable(self):
        sample = make_sample(raw=b"#!/bin/sh")
        verdict = checker(VtService()).check(sample)
        assert not verdict.accepted
        assert "executable" in verdict.reasons

    def test_rejected_low_positives(self):
        sample = make_sample(strings=["stratum+tcp://p:3333"])
        verdict = checker(vt_with(sample.sha256, 3)).check(sample)
        assert not verdict.accepted
        assert "positives" in verdict.reasons

    def test_whitelisted_tool_verdict(self):
        sample = make_sample(strings=["stratum+tcp://p:3333"])
        c = checker(vt_with(sample.sha256, 20),
                    whitelist={sample.sha256})
        verdict = c.check(sample)
        assert verdict.whitelisted_tool
        assert not verdict.accepted

    def test_wallet_exception_flagged(self):
        sample = make_sample(strings=["stratum+tcp://p:3333"])
        c = checker(vt_with(sample.sha256, 5))
        c.confirm_wallets({"W-CONF"})
        verdict = c.check(sample, sample_wallets={"W-CONF"})
        assert verdict.accepted
        assert verdict.used_wallet_exception
