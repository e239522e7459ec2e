"""Failure-injection tests: the pipeline under degraded conditions.

The paper documents several degradations it had to tolerate — VT rate
limits (missing first-seen), sandbox-evading samples, opaque pools,
packed binaries that resist static analysis.  These tests inject each
failure and assert the pipeline degrades the way the paper describes
instead of breaking.
"""

import dataclasses
import datetime

import pytest

from repro.binfmt.packers import CUSTOM_CRYPTER, pack
from repro.core.dynamic_analysis import DynamicAnalyzer
from repro.core.extraction import ExtractionEngine
from repro.core.pipeline import MeasurementPipeline
from repro.core.static_analysis import StaticAnalyzer
from repro.corpus.generator import generate_world
from repro.corpus.model import ScenarioConfig
from repro.intel.ha import HaService
from repro.intel.vt import VtService
from repro.netsim.dns import DnsZone, PassiveDns, Resolver
from repro.perf.scan import ScanContext
from repro.pools.directory import PoolDirectory, default_directory
from repro.sandbox.behavior import (
    BehaviorScript,
    CheckSandbox,
    Stall,
    StratumSession,
)
from repro.sandbox.emulator import Sandbox, SandboxEnvironment

D = datetime.date


def _record(engine, sample):
    """The engine's merged record for ``sample``, over a fresh context."""
    record, _report = engine.extract_with_report(
        sample, ScanContext.for_sample(sample.raw))
    return record


class TestVtRateLimit:
    def test_missing_first_seen_degrades_gracefully(self, small_world):
        """After the rate limit, metadata queries return None; records
        lose first-seen but extraction continues (the '~19?' rows)."""
        limited = VtService(rate_limit=50)
        for report in small_world.vt.reports():
            limited.add_report(report)
        zone = small_world.dns_zone
        engine = ExtractionEngine(
            StaticAnalyzer(), DynamicAnalyzer(Sandbox(small_world.resolver)),
            limited, small_world.pool_directory,
            small_world.resolver, small_world.passive_dns)
        miners = [s for s in small_world.samples if s.kind == "miner"][:80]
        records = [_record(engine, s) for s in miners]
        with_fs = sum(1 for r in records if r.first_seen is not None)
        without_fs = sum(1 for r in records if r.first_seen is None)
        assert without_fs > 0          # the limit bit
        # identifiers still extracted from binaries/behaviour
        assert sum(1 for r in records if r.identifiers) > len(miners) // 2


class TestEvasiveSamples:
    def _engine(self, hardened=False):
        zone = DnsZone()
        env = SandboxEnvironment(hardened=hardened,
                                 analysis_date=D(2018, 9, 1))
        return ExtractionEngine(
            StaticAnalyzer(), DynamicAnalyzer(Sandbox(Resolver(zone),
                                                      env)),
            VtService(), default_directory(), Resolver(zone),
            PassiveDns(zone))

    def _evasive_sample(self, wallet="4AAAA"):
        from repro.corpus.model import SampleRecord
        behavior = BehaviorScript([
            CheckSandbox(detectability=1.0),
            StratumSession(host="pool.minexmr.com", port=4444,
                           login=wallet),
        ])
        raw = pack(
            __import__("repro.binfmt.format", fromlist=["build_binary"])
            .build_binary(
                __import__("repro.binfmt.format",
                           fromlist=["ExecutableKind"]).ExecutableKind.PE,
                code=b"\x90" * 600),
            CUSTOM_CRYPTER)
        return SampleRecord(sha256="evasive1", md5="", raw=raw,
                            behavior=behavior, first_seen=None,
                            source="test", kind="miner")

    def test_evasion_plus_crypter_blinds_both_analyses(self):
        """Crypter blocks statics AND sandbox detection kills dynamics:
        the sample yields nothing (an acknowledged FN, §VI)."""
        engine = self._engine()
        record = _record(engine, self._evasive_sample())
        assert record.identifiers == []
        assert record.type == "Ancillary"

    def test_hardened_sandbox_recovers_the_sample(self):
        """Bare-metal analysis (the paper's proposed fix) sees the
        mining session despite the fingerprinting check."""
        engine = self._engine(hardened=True)
        record = _record(engine, self._evasive_sample())
        assert record.user is not None
        assert record.pool == "minexmr"

    def test_stalling_sample_times_out_quietly(self):
        from repro.corpus.model import SampleRecord
        from repro.binfmt.format import ExecutableKind, build_binary
        behavior = BehaviorScript([
            Stall(seconds=10_000),
            StratumSession(host="pool.minexmr.com", port=4444,
                           login="4BBBB"),
        ])
        sample = SampleRecord(
            sha256="staller", md5="",
            raw=build_binary(ExecutableKind.PE, code=b"\x90" * 100),
            behavior=behavior, first_seen=None, source="test",
            kind="miner")
        record = _record(self._engine(), sample)
        assert record.identifiers == []


class TestDegradedWorlds:
    def test_pipeline_without_ha(self, small_world):
        """HA going dark only removes a convenience source."""
        dark = dataclasses.replace(small_world, ha=HaService())
        result = MeasurementPipeline(dark).run()
        assert result.stats.miners > 0

    def test_world_without_junk_or_case_studies(self):
        world = generate_world(ScenarioConfig(
            seed=77, scale=0.004, include_junk=False,
            include_case_studies=False))
        result = MeasurementPipeline(world).run()
        assert result.stats.collected == len(world.samples)
        assert result.stats.miners > 0
        labels = {c.label for c in world.ground_truth}
        assert labels == {None}

    def test_empty_feed(self):
        world = generate_world(ScenarioConfig(
            seed=78, scale=0.0005, include_junk=False,
            include_case_studies=False))
        # even a near-empty feed must produce a consistent result
        result = MeasurementPipeline(world).run()
        assert result.stats.miners + result.stats.ancillaries == \
            len(result.records)

    def test_corrupt_binaries_rejected_not_crashing(self, small_world):
        """Truncated/garbage bytes in the feed are filtered by the
        executable check, never raised out of the pipeline."""
        from repro.corpus.model import SampleRecord
        corrupt = SampleRecord(
            sha256="corrupt1", md5="", raw=b"MZ\x00\x01trunc",
            behavior=BehaviorScript(), first_seen=None,
            source="test", kind="junk")
        analyzer = StaticAnalyzer()
        # must not raise
        findings = analyzer.analyze(ScanContext.for_sample(corrupt.raw))
        assert findings.identifiers == []
