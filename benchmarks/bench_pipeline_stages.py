"""Throughput of the measurement pipeline itself.

Not a paper exhibit, but the harness that produces all of them: times
the end-to-end pipeline and the per-sample
extraction path.  Caches are cleared before each timed run so the
numbers reflect a cold start, not fixture warm-up.
"""

from repro.core.dynamic_analysis import DynamicAnalyzer
from repro.core.extraction import ExtractionEngine
from repro.core.pipeline import MeasurementPipeline
from repro.core.static_analysis import StaticAnalyzer
from repro.perf.cache import clear_caches
from repro.perf.scan import ScanContext
from repro.sandbox.emulator import Sandbox


def bench_full_pipeline(benchmark, tiny_world):
    result = benchmark.pedantic(
        lambda: MeasurementPipeline(tiny_world).run(),
        setup=clear_caches, rounds=1, iterations=1)
    assert result.stats.miners > 0
    print()
    print(f"pipeline: {result.stats.collected} collected -> "
          f"{result.stats.miners} miners, "
          f"{len(result.campaigns)} campaigns")


def bench_per_sample_extraction(benchmark, tiny_world):
    engine = ExtractionEngine(
        StaticAnalyzer(), DynamicAnalyzer(Sandbox(tiny_world.resolver)),
        tiny_world.vt, tiny_world.pool_directory,
        tiny_world.resolver, tiny_world.passive_dns)
    miners = [s for s in tiny_world.samples if s.kind == "miner"][:50]

    def extract_batch():
        return [engine.extract_with_report(
            s, ScanContext.for_sample(s.raw))[0] for s in miners]

    records = benchmark(extract_batch)
    assert sum(1 for r in records if r.identifiers) > len(miners) // 2
