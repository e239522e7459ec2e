"""Unit tests for static analysis, dynamic analysis and extraction."""

import datetime

import pytest

from repro.binfmt.codegen import pseudo_code
from repro.binfmt.format import ExecutableKind, build_binary
from repro.binfmt.packers import CUSTOM_CRYPTER, PACKERS, pack
from repro.common.rng import DeterministicRNG
from repro.core.dynamic_analysis import DynamicAnalyzer
from repro.core.extraction import ExtractionEngine
from repro.core.static_analysis import StaticAnalyzer
from repro.corpus.model import SampleRecord
from repro.intel.vt import VtService, AvReport
from repro.netsim.dns import DnsZone, PassiveDns, Resolver
from repro.perf.scan import ScanContext
from repro.pools.directory import default_directory
from repro.sandbox.behavior import (
    BehaviorScript,
    DnsQuery,
    DropFile,
    SpawnProcess,
    StratumSession,
)
from repro.sandbox.emulator import Sandbox, SandboxEnvironment

D = datetime.date

WALLET = ("4" + "7" * 90 +
          "")  # placeholder replaced in fixture


@pytest.fixture
def wallet():
    from repro.wallets.addresses import WalletFactory
    return WalletFactory(DeterministicRNG(31)).new_address("XMR")


def _record(engine, sample):
    """The engine's merged record for ``sample``, over a fresh context."""
    record, _report = engine.extract_with_report(
        sample, ScanContext.for_sample(sample.raw))
    return record


@pytest.fixture
def analyzer():
    return StaticAnalyzer()


def binary_with(wallet, host="pool.minexmr.com", port=4444, config=True):
    rng = DeterministicRNG(55)
    cmdline = f"xmrig -o stratum+tcp://{host}:{port} -u {wallet} -p x"
    return build_binary(
        ExecutableKind.PE,
        code=pseudo_code(rng, 1500),
        strings=[cmdline],
        config={"url": f"stratum+tcp://{host}:{port}",
                "user": wallet} if config else None,
    )


class TestStaticAnalysis:
    def test_wallet_extracted(self, analyzer, wallet):
        findings = analyzer.analyze(
            ScanContext.for_sample(binary_with(wallet)))
        assert wallet in findings.wallets

    def test_stratum_url_extracted(self, analyzer, wallet):
        findings = analyzer.analyze(
            ScanContext.for_sample(binary_with(wallet)))
        assert ("pool.minexmr.com", 4444) in findings.stratum_urls

    def test_config_pool_extracted(self, analyzer, wallet):
        findings = analyzer.analyze(
            ScanContext.for_sample(binary_with(wallet)))
        assert findings.config_pool == "pool.minexmr.com"

    def test_packer_identified_and_unpacked(self, analyzer, wallet):
        packed = pack(binary_with(wallet), PACKERS["UPX"])
        findings = analyzer.analyze(ScanContext.for_sample(packed))
        assert findings.packer == "UPX"
        assert findings.unpacked
        # strings survive because UPX is unpackable
        assert wallet in findings.wallets

    def test_crypter_blocks_statics(self, analyzer, wallet):
        packed = pack(binary_with(wallet), CUSTOM_CRYPTER)
        findings = analyzer.analyze(ScanContext.for_sample(packed))
        assert findings.packer is None
        assert findings.obfuscated          # entropy heuristic fires
        assert wallet not in findings.wallets

    def test_clean_binary_not_obfuscated(self, analyzer, wallet):
        findings = analyzer.analyze(
            ScanContext.for_sample(binary_with(wallet)))
        assert not findings.obfuscated


class TestDynamicAnalysis:
    def _sample(self, wallet, host="pool.minexmr.com"):
        behavior = BehaviorScript([
            DnsQuery(host),
            SpawnProcess("xmrig.exe",
                         f"xmrig.exe -o stratum+tcp://{host}:4444 "
                         f"-u {wallet} -p x -t 4"),
            DropFile("payload.exe", "dropped-sha"),
            StratumSession(host=host, port=4444, login=wallet,
                           agent="xmrig/2.8.1"),
        ])
        return SampleRecord(sha256="dyn1", md5="", raw=b"MZ",
                            behavior=behavior, first_seen=None,
                            source="test", kind="miner")

    def _analyzer(self):
        return DynamicAnalyzer(Sandbox())

    def test_login_from_flow(self, wallet):
        findings = self._analyzer().analyze(self._sample(wallet))
        assert wallet in [i.value for i in findings.identifiers]
        assert findings.logins[0][0] == wallet
        assert findings.logins[0][2] == "xmrig/2.8.1"

    def test_cmdline_threads(self, wallet):
        findings = self._analyzer().analyze(self._sample(wallet))
        assert findings.nthreads == 4

    def test_stratum_target(self, wallet):
        findings = self._analyzer().analyze(self._sample(wallet))
        assert ("pool.minexmr.com", 4444) in findings.stratum_targets

    def test_dropped_files(self, wallet):
        findings = self._analyzer().analyze(self._sample(wallet))
        assert findings.dropped == ["dropped-sha"]

    def test_ha_report_reused(self, wallet):
        """When HA already analysed the sample, reuse that report."""
        from repro.intel.ha import HaService
        ha = HaService()
        sandbox = Sandbox()
        sample = self._sample(wallet)
        ha.publish(sandbox.run(sample.sha256, sample.behavior))
        analyzer = DynamicAnalyzer(Sandbox(), ha)
        findings = analyzer.analyze(sample)
        assert findings.logins  # mined from the HA report


class TestExtraction:
    def _engine(self, zone=None):
        zone = zone or DnsZone()
        resolver = Resolver(zone)
        vt = VtService()
        return ExtractionEngine(
            StaticAnalyzer(), DynamicAnalyzer(Sandbox(resolver)),
            vt, default_directory(), resolver, PassiveDns(zone),
        ), vt

    def _sample(self, wallet, host="pool.minexmr.com"):
        behavior = BehaviorScript([
            DnsQuery(host),
            StratumSession(host=host, port=4444, login=wallet),
        ])
        return SampleRecord(
            sha256="x1", md5="", raw=binary_with(wallet, host),
            behavior=behavior, first_seen=None, source="test",
            kind="miner")

    def test_merged_record(self, wallet):
        engine, vt = self._engine()
        vt.add_report(AvReport(sha256="x1",
                               first_seen=D(2018, 3, 1),
                               itw_urls=["http://h.x/m.exe"]))
        record = _record(engine, self._sample(wallet))
        assert record.user == wallet
        assert record.pool == "minexmr"
        assert record.url_pool == "stratum+tcp://pool.minexmr.com:4444"
        assert record.first_seen == D(2018, 3, 1)
        assert record.itw_urls == ["http://h.x/m.exe"]
        assert record.type == "Miner"

    def test_ancillary_type_without_identifiers(self):
        engine, _ = self._engine()
        sample = SampleRecord(
            sha256="anc", md5="",
            raw=build_binary(ExecutableKind.PE, code=b"\x90" * 50,
                             strings=["http://host/x.exe"]),
            behavior=BehaviorScript(), first_seen=None,
            source="test", kind="ancillary")
        record = _record(engine, sample)
        assert record.type == "Ancillary"
        assert not record.is_miner

    def test_cname_dealiasing_live(self, wallet):
        zone = DnsZone()
        zone.add_cname("xt.freebuf.info", "pool.minexmr.com")
        zone.add_a("pool.minexmr.com", "10.0.0.1")
        engine, _ = self._engine(zone)
        record = _record(engine, self._sample(wallet,
                                              host="xt.freebuf.info"))
        assert record.pool == "minexmr"
        assert "xt.freebuf.info" in record.cname_aliases

    def test_cname_dealiasing_passive_history(self, wallet):
        """Expired CNAMEs are recovered via passive DNS (§III-E)."""
        zone = DnsZone()
        zone.add_cname("old.alias.com", "xmr.crypto-pool.fr",
                       valid_to=D(2017, 1, 1))  # long expired
        engine, _ = self._engine(zone)
        record = _record(engine, self._sample(wallet,
                                              host="old.alias.com"))
        assert record.pool == "crypto-pool"
        assert "old.alias.com" in record.cname_aliases

    def test_unknown_domain_no_pool(self, wallet):
        engine, _ = self._engine()
        record = _record(engine, self._sample(wallet,
                                              host="private.pool.xyz"))
        assert record.pool is None
        assert record.cname_aliases == []

    def test_static_only_path(self, wallet):
        engine, _ = self._engine()
        sample = self._sample(wallet)
        record = engine.extract_static_only(
            sample, ScanContext.for_sample(sample.raw))
        assert record.used_static and not record.used_dynamic
        assert wallet in record.identifiers
