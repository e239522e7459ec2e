"""Unified benchmark harness: scale, pipeline, scan, serve and ingest.

Each measurement point runs in a **fresh subprocess** — ``ru_maxrss``
is a lifetime high-water mark, so points sharing a process would
inherit each other's peaks.  The child re-invokes this module with a
``--*-scale`` flag and prints one JSON object on stdout; the parent
collects points into the committed artifacts:

* ``BENCH_scale.json`` — the out-of-core pipeline's scaling curve,
  one point per scale
* ``BENCH_pipeline.json`` — batch-pipeline stage breakdown (tier-1)
* ``BENCH_scan.json`` — one-pass scan kernel vs the legacy per-pattern
  path (throughput + equivalence)
* ``BENCH_serve.json`` — sustained-QPS serving runs, one point per
  worker count (single-process hot-swap run plus multi-process
  fleets — see :mod:`repro.serve.bench`)
* ``BENCH_ingest.json`` — checkpointed ingestion lane: batch
  throughput plus the cost of a cold resume from the checkpoint
* ``BENCH_lint.json`` — reprolint over the real source tree: cold
  full-tree runs across ``--workers``, plus the warm ``--changed``
  fast path served from the fact cache

Every suite write also appends a copy under ``BENCH_history/`` as
``<suite>-<NNNN>.json`` — the committed bench trajectory — and stamps
the payload with :func:`repro.common.calibrate.calibration_score`, a
fixed CPU microbench measured on the writing machine.  The regression
gate (:func:`compare_runs`, ``benchmarks/regression_gate.py``)
compares a fresh run against the committed previous JSON
point-by-point and fails on >25% throughput loss; when both sides
carry a calibration stamp the comparison is machine-normalised
(``metric / score``), so a baseline committed from a fast dev box
does not fail CI on a slow runner.

Invoked via ``python -m repro.scale.bench``, ``python
benchmarks/harness.py`` or ``repro bench`` — all the same code.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = [
    "compare_runs",
    "measure_ingest_point",
    "measure_lint_point",
    "measure_pipeline_point",
    "measure_scale_point",
    "measure_scan_point",
    "run_ingest_suite",
    "run_lint_suite",
    "run_point_subprocess",
    "run_scaling_suite",
    "run_scan_suite",
    "run_serve_suite",
    "write_history_entry",
]

#: the committed scaling curve: ~10k / ~100k / ~1M streamed samples
#: (empirical scale factors; the bench reports the exact counts).
DEFAULT_SCALES = [0.072, 0.72, 6.35]


def measure_scale_point(scale: float, seed: int = 2019,
                        chunk_samples: int = 4096, num_shards: int = 8,
                        stride_days: int = 30, prefetch: int = 2) -> Dict:
    """One out-of-core pipeline run; returns its metrics dict.

    Call only in a fresh process if peak RSS matters (see module doc).
    """
    from repro.common.memory import peak_rss_mib
    from repro.corpus.model import ScenarioConfig
    from repro.scale.pipeline import ScalePipeline
    from repro.scale.stream import StreamingCorpus

    config = ScenarioConfig(seed=seed, scale=scale,
                            mining_stride_days=stride_days)
    t0 = time.perf_counter()
    corpus = StreamingCorpus(config, chunk_samples=chunk_samples,
                             keep_sample_hashes=False)
    skeleton_s = time.perf_counter() - t0
    pipeline = ScalePipeline(corpus, num_shards=num_shards,
                             prefetch=prefetch)
    t1 = time.perf_counter()
    result = pipeline.run()
    run_s = time.perf_counter() - t1
    store_bytes = sum(p.stat().st_size
                      for p in result.store.segment_paths())
    samples = result.stats.collected
    return {
        "suite": "scale",
        "scale": scale,
        "seed": seed,
        "prefetch": prefetch,
        "chunk_samples": chunk_samples,
        "num_shards": num_shards,
        "samples": samples,
        "records": len(result.store),
        "campaigns": len(result.campaigns),
        "skeleton_s": round(skeleton_s, 3),
        "run_s": round(run_s, 3),
        "total_s": round(skeleton_s + run_s, 3),
        "samples_per_s": round(samples / run_s, 1) if run_s else 0.0,
        "peak_rss_mib": round(peak_rss_mib() or 0.0, 1),
        "store_mib": round(store_bytes / (1024 * 1024), 2),
        "spill_mib": round(result.spill_bytes / (1024 * 1024), 2),
        "segments": result.store.num_segments,
        "deferred": result.deferred_spilled,
        "rejected": result.rejected_spilled,
        "recovered": result.recovered,
    }


def measure_pipeline_point(scale: float = 0.02, seed: int = 2019) -> Dict:
    """One batch-pipeline run with per-stage timings (tier-1 scales)."""
    from repro.common.memory import peak_rss_mib
    from repro.core.pipeline import MeasurementPipeline
    from repro.corpus.generator import generate_world
    from repro.corpus.model import ScenarioConfig

    t0 = time.perf_counter()
    world = generate_world(ScenarioConfig(seed=seed, scale=scale))
    world_s = time.perf_counter() - t0
    pipeline = MeasurementPipeline(world)
    t1 = time.perf_counter()
    result = pipeline.run()
    run_s = time.perf_counter() - t1
    stages = [
        {"stage": timing.name, "seconds": round(timing.wall_s, 3),
         "items": timing.items}
        for timing in pipeline.profiler.stages.values()
    ]
    return {
        "suite": "pipeline",
        "scale": scale,
        "seed": seed,
        "samples": result.stats.collected,
        "records": len(result.records),
        "campaigns": len(result.campaigns),
        "world_s": round(world_s, 3),
        "run_s": round(run_s, 3),
        "samples_per_s": round(result.stats.collected / run_s, 1)
        if run_s else 0.0,
        "peak_rss_mib": round(peak_rss_mib() or 0.0, 1),
        "stages": stages,
    }


def measure_scan_point(scale: float = 0.02, seed: int = 2019,
                       iterations: int = 3) -> Dict:
    """Scan-kernel vs legacy per-pattern throughput at one scale.

    A compact lane over shared :class:`~repro.perf.scan.ScanContext`
    views: both paths scan identical materialised bytes/text, so the
    timing isolates the pattern-matching work the kernel replaced
    (``benchmarks/bench_scan_kernel.py`` remains the deep-dive tool
    that also times materialisation).  Equivalence is asserted per
    sample and reported in the point.
    """
    from repro.common.memory import peak_rss_mib
    from repro.corpus.generator import generate_world
    from repro.corpus.model import ScenarioConfig
    from repro.perf.cache import clear_caches
    from repro.perf.scan import ScanContext
    from repro.wallets.detect import (
        extract_identifiers,
        extract_identifiers_legacy,
    )
    from repro.yarm.builtin import builtin_miner_rules

    world = generate_world(ScenarioConfig(seed=seed, scale=scale,
                                          include_junk=False))
    rules = builtin_miner_rules()
    rules.kernel()  # compile outside the timed region
    clear_caches()
    contexts = []
    for sample in world.samples:
        ctx = ScanContext.for_sample(sample.raw)
        ctx.strings  # materialise blob/text once, outside the timing
        contexts.append(ctx)
    bytes_scanned = sum(len(ctx.data) for ctx in contexts)

    mismatches = 0
    for ctx in contexts:
        same_rules = rules.scan_legacy(ctx.data) == rules.scan(ctx)
        same_ids = (extract_identifiers_legacy(ctx.text)
                    == extract_identifiers(ctx.text))
        if not (same_rules and same_ids):
            mismatches += 1

    def legacy_pass():
        for ctx in contexts:
            rules.scan_legacy(ctx.data)
            extract_identifiers_legacy(ctx.text)

    def kernel_pass():
        for ctx in contexts:
            rules.scan(ctx)
            extract_identifiers(ctx.text)

    def best_of(fn):
        best = float("inf")
        for _ in range(iterations):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    legacy_s = best_of(legacy_pass)
    kernel_s = best_of(kernel_pass)
    mib = bytes_scanned / (1024 * 1024)
    return {
        "suite": "scan",
        "scale": scale,
        "seed": seed,
        "iterations": iterations,
        "samples": len(contexts),
        "mib_scanned": round(mib, 2),
        "legacy_s": round(legacy_s, 4),
        "kernel_s": round(kernel_s, 4),
        "speedup": round(legacy_s / kernel_s, 2) if kernel_s else 0.0,
        "kernel_mib_per_s": round(mib / kernel_s, 1) if kernel_s else 0.0,
        "equivalent": mismatches == 0,
        "mismatches": mismatches,
        "peak_rss_mib": round(peak_rss_mib() or 0.0, 1),
    }


def measure_ingest_point(scale: float = 0.02, seed: int = 2019,
                         batch_days: int = 30) -> Dict:
    """Checkpointed ingestion throughput plus cold-resume cost.

    Runs the full feed replay through :class:`repro.ingest.service.
    IngestionService` (fresh checkpoint, fsync off — the lane measures
    compute, not the disk), then restores the finished checkpoint from
    scratch and materialises its result — the cost a `repro serve
    --checkpoint` start or a crash-resume actually pays.
    """
    import shutil
    import tempfile

    from repro.common.memory import peak_rss_mib
    from repro.corpus.generator import generate_world
    from repro.corpus.model import ScenarioConfig
    from repro.ingest.service import IngestionService

    world = generate_world(ScenarioConfig(seed=seed, scale=scale))
    workdir = Path(tempfile.mkdtemp(prefix="repro-bench-ingest-"))
    try:
        service = IngestionService(world, workdir / "checkpoint",
                                   batch_days=batch_days, fsync=False)
        t0 = time.perf_counter()
        ingest = service.run()
        run_s = time.perf_counter() - t0
        batches = len(ingest.batches)
        analyzed = sum(b.analyzed for b in ingest.batches)

        resumer = IngestionService(world, workdir / "checkpoint",
                                   batch_days=batch_days, resume=True,
                                   fsync=False)
        t1 = time.perf_counter()
        resumer.restore_state()
        restored = resumer.current_result()
        resume_s = time.perf_counter() - t1
        return {
            "suite": "ingest",
            "scale": scale,
            "seed": seed,
            "batch_days": batch_days,
            "batches": batches,
            "samples": analyzed,
            "records": len(ingest.result.records),
            "campaigns": len(ingest.result.campaigns),
            "run_s": round(run_s, 3),
            "batches_per_s": round(batches / run_s, 2) if run_s else 0.0,
            "samples_per_s": round(analyzed / run_s, 1) if run_s else 0.0,
            #: cold restore of the finished checkpoint + materialise
            "resume_s": round(resume_s, 3),
            "resume_records": len(restored.records),
            "resume_fraction": round(resume_s / run_s, 3) if run_s
            else 0.0,
            "peak_rss_mib": round(peak_rss_mib() or 0.0, 1),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_lint_point(mode: str = "cold", workers: int = 1) -> Dict:
    """One reprolint run over the real source tree.

    ``cold`` lints the full tree from a fresh index (the CI strict
    gate's cost); ``warm`` measures the ``--changed`` fast path — a
    priming run fills the fact cache, then the timed run focuses one
    module and serves every other summary from cache.
    """
    import shutil
    import tempfile

    from repro.common.memory import peak_rss_mib
    from repro.lint import LintEngine, default_source_root

    root = default_source_root()
    workdir = Path(tempfile.mkdtemp(prefix="repro-bench-lint-"))
    try:
        focus = None
        cache = None
        if mode == "warm":
            cache = workdir / "reprolint-cache"
            focus = ["cli.py"]
            LintEngine(cache_path=cache).run(root, focus=focus)
        engine = LintEngine(workers=workers, cache_path=cache)
        t0 = time.perf_counter()
        report = engine.run(root, focus=focus)
        lint_s = time.perf_counter() - t0
        modules = report.modules_scanned
        return {
            "suite": "lint",
            "mode": mode,
            "workers": workers,
            "modules": modules,
            "findings": len(report.findings),
            "parse_errors": len(report.parse_errors),
            "lint_s": round(lint_s, 3),
            "modules_per_s": round(modules / lint_s, 1) if lint_s
            else 0.0,
            "peak_rss_mib": round(peak_rss_mib() or 0.0, 1),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_point_subprocess(argv: List[str], timeout: Optional[float] = None
                         ) -> Dict:
    """Run one point in a child interpreter; parse its JSON stdout."""
    command = [sys.executable, "-m", "repro.scale.bench"] + argv
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(
            f"bench point failed ({' '.join(argv)}):\n{proc.stderr}")
    return json.loads(proc.stdout)


def run_scaling_suite(scales: List[float], seed: int = 2019,
                      chunk_samples: int = 4096,
                      num_shards: int = 8,
                      prefetch: int = 2) -> Dict:
    """The scaling curve: one subprocess per scale point."""
    points = []
    for scale in scales:
        points.append(run_point_subprocess([
            "--point-scale", str(scale), "--seed", str(seed),
            "--prefetch", str(prefetch),
            "--chunk-samples", str(chunk_samples),
            "--shards", str(num_shards),
        ]))
        last = points[-1]
        print(f"  scale={scale}: "
              f"{last['samples']} samples in {last['total_s']}s "
              f"({last['samples_per_s']}/s), "
              f"peak {last['peak_rss_mib']} MiB", file=sys.stderr)
    return {"bench": "scale", "seed": seed,
            "chunk_samples": chunk_samples, "num_shards": num_shards,
            "prefetch": prefetch, "points": points}


def run_pipeline_suite(scale: float = 0.02, seed: int = 2019) -> Dict:
    """Batch-pipeline stage breakdown, in its own subprocess."""
    point = run_point_subprocess([
        "--pipeline-scale", str(scale), "--seed", str(seed),
    ])
    return {"bench": "pipeline", "seed": seed, "points": [point]}


def run_scan_suite(scale: float = 0.02, seed: int = 2019,
                   iterations: int = 3) -> Dict:
    """Scan-kernel lane, in its own subprocess."""
    point = run_point_subprocess([
        "--scan-scale", str(scale), "--seed", str(seed),
        "--iterations", str(iterations),
    ])
    print(f"  scan: {point['samples']} samples, "
          f"{point['speedup']}x kernel speedup, "
          f"equivalent={point['equivalent']}", file=sys.stderr)
    return {"bench": "scan", "seed": seed, "points": [point]}


def run_serve_suite(scale: float = 0.02, seed: int = 2019,
                    duration_s: float = 8.0,
                    concurrency: int = 8,
                    workers_list: Optional[List[int]] = None) -> Dict:
    """Sustained-QPS serving lane: one subprocess per worker count."""
    workers_list = workers_list or [1]
    points = []
    for workers in workers_list:
        point = run_point_subprocess([
            "--serve-scale", str(scale), "--seed", str(seed),
            "--duration", str(duration_s),
            "--concurrency", str(concurrency),
            "--workers", str(workers),
        ], timeout=duration_s + 600)
        points.append(point)
        print(f"  serve workers={workers}: {point['qps']} qps over "
              f"{point['duration_s']}s, p50={point['p50_ms']}ms "
              f"p99={point['p99_ms']}ms, "
              f"swap_clean={point['swap_clean']}, "
              f"pids={point['serving_pids']}", file=sys.stderr)
    return {"bench": "serve", "seed": seed,
            "workers_list": workers_list, "points": points}


def run_ingest_suite(scale: float = 0.02, seed: int = 2019,
                     batch_days: int = 30) -> Dict:
    """Checkpointed ingestion lane, in its own subprocess."""
    point = run_point_subprocess([
        "--ingest-scale", str(scale), "--seed", str(seed),
        "--batch-days", str(batch_days),
    ])
    print(f"  ingest: {point['batches']} batches in {point['run_s']}s "
          f"({point['batches_per_s']} batches/s), "
          f"resume {point['resume_s']}s", file=sys.stderr)
    return {"bench": "ingest", "seed": seed, "points": [point]}


def run_lint_suite(workers_list: Optional[List[int]] = None) -> Dict:
    """Lint lane: cold full-tree across workers, plus the warm path."""
    workers_list = workers_list or [1, 2, 4]
    points = []
    for workers in workers_list:
        point = run_point_subprocess([
            "--lint-mode", "cold", "--workers", str(workers)])
        points.append(point)
        print(f"  lint cold workers={workers}: {point['modules']} "
              f"modules in {point['lint_s']}s "
              f"({point['modules_per_s']}/s)", file=sys.stderr)
    point = run_point_subprocess(["--lint-mode", "warm"])
    points.append(point)
    print(f"  lint warm: {point['modules']} focus module(s) in "
          f"{point['lint_s']}s", file=sys.stderr)
    return {"bench": "lint", "workers_list": workers_list,
            "points": points}


# -- artifacts: committed JSON + history trail -------------------------------


def write_history_entry(out_dir: Path, suite: str, payload: Dict) -> Path:
    """Append this run under ``BENCH_history/<suite>-<NNNN>.json``.

    Sequence numbers, not timestamps: they sort, they diff cleanly,
    and the committed trail stays append-only.
    """
    history = Path(out_dir) / "BENCH_history"
    history.mkdir(parents=True, exist_ok=True)
    existing = sorted(history.glob(f"{suite}-*.json"))
    next_id = 1
    if existing:
        last = existing[-1].stem.rsplit("-", 1)[-1]
        next_id = int(last) + 1 if last.isdigit() else len(existing) + 1
    path = history / f"{suite}-{next_id:04d}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _write_json(path: Path, payload: Dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)


def _write_suite(out_dir: Path, suite: str, payload: Dict) -> None:
    from repro.common.calibrate import calibration_score
    payload.setdefault("calibration", calibration_score())
    _write_json(out_dir / f"BENCH_{suite}.json", payload)
    history_path = write_history_entry(out_dir, suite, payload)
    print(f"wrote {history_path}", file=sys.stderr)


# -- regression gate ---------------------------------------------------------

#: suite -> (higher-is-better throughput metric, point-key fields).
#: Points are matched on the key fields; points present on only one
#: side are reported but never fail the gate (the curve may grow).
GATE_METRICS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "scale": ("samples_per_s", ("scale",)),
    "pipeline": ("samples_per_s", ("scale",)),
    "scan": ("kernel_mib_per_s", ("scale",)),
    "serve": ("qps", ("scale", "concurrency", "workers")),
    "ingest": ("batches_per_s", ("scale", "batch_days")),
    "lint": ("modules_per_s", ("mode", "workers")),
}


def _point_key(point: Dict, fields: Tuple[str, ...]) -> Tuple:
    return tuple(point.get(field) for field in fields)


def compare_runs(previous: Dict, current: Dict,
                 threshold: float = 0.25) -> Tuple[List[str], List[str]]:
    """Gate ``current`` against ``previous`` (same suite schema).

    Returns ``(regressions, notes)``: a regression is a matched point
    whose throughput metric dropped by more than ``threshold``
    (fractional); notes cover unmatched points and the per-point
    deltas.  Suites are identified by the payload's ``bench`` field.

    When both payloads carry a top-level ``calibration`` stamp (see
    :mod:`repro.common.calibrate`), each side's metric is divided by
    its own machine's score before the delta is taken, so baselines
    committed from a faster or slower machine gate code changes, not
    hardware.  Old stamp-less baselines compare raw.
    """
    suite = current.get("bench") or previous.get("bench")
    if suite not in GATE_METRICS:
        return [], [f"unknown suite {suite!r}: nothing gated"]
    metric, key_fields = GATE_METRICS[suite]
    prev_cal = previous.get("calibration") or 0.0
    cur_cal = current.get("calibration") or 0.0
    normalised = prev_cal > 0 and cur_cal > 0
    prev_points = {_point_key(p, key_fields): p
                   for p in previous.get("points", [])}
    regressions: List[str] = []
    notes: List[str] = []
    if normalised:
        notes.append(f"{suite}: machine-normalised "
                     f"(calibration {prev_cal} -> {cur_cal})")
    matched = 0
    for point in current.get("points", []):
        key = _point_key(point, key_fields)
        baseline = prev_points.pop(key, None)
        label = ", ".join(f"{f}={v}" for f, v in zip(key_fields, key))
        if baseline is None:
            notes.append(f"{suite}[{label}]: new point "
                         f"({metric}={point.get(metric)})")
            continue
        matched += 1
        old = baseline.get(metric) or 0.0
        new = point.get(metric) or 0.0
        if old <= 0:
            notes.append(f"{suite}[{label}]: no baseline {metric}")
            continue
        if normalised:
            delta = (new / cur_cal - old / prev_cal) / (old / prev_cal)
        else:
            delta = (new - old) / old
        line = (f"{suite}[{label}]: {metric} {old} -> {new} "
                f"({delta:+.1%}"
                f"{' normalised' if normalised else ''})")
        if delta < -threshold:
            regressions.append(line + f" exceeds -{threshold:.0%} gate")
        else:
            notes.append(line)
    for key in prev_points:
        label = ", ".join(f"{f}={v}" for f, v in zip(key_fields, key))
        notes.append(f"{suite}[{label}]: dropped from current run")
    if matched == 0:
        notes.append(f"{suite}: no comparable points matched")
    return regressions, notes


def main(argv: Optional[List[str]] = None) -> int:
    """Harness entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="scaling / pipeline benchmark harness")
    parser.add_argument("--point-scale", type=float, default=None,
                        help="run ONE scale-pipeline point, JSON on "
                             "stdout (used by the parent harness)")
    parser.add_argument("--pipeline-scale", type=float, default=None,
                        help="run ONE batch-pipeline point, JSON on "
                             "stdout")
    parser.add_argument("--scan-scale", type=float, default=None,
                        help="run ONE scan-kernel point, JSON on stdout")
    parser.add_argument("--serve-scale", type=float, default=None,
                        help="run ONE serving-QPS point, JSON on stdout")
    parser.add_argument("--ingest-scale", type=float, default=None,
                        help="run ONE ingestion point, JSON on stdout")
    parser.add_argument("--lint-mode", choices=["cold", "warm"],
                        default=None,
                        help="run ONE reprolint point, JSON on stdout")
    parser.add_argument("--iterations", type=int, default=3,
                        help="best-of iterations for the scan lane")
    parser.add_argument("--duration", type=float, default=8.0,
                        help="sustained-load seconds for the serve lane")
    parser.add_argument("--concurrency", type=int, default=8,
                        help="client threads for the serve lane")
    parser.add_argument("--batch-days", type=int, default=30,
                        help="feed batch width for the ingest lane")
    parser.add_argument("--suite",
                        choices=["scale", "pipeline", "scan", "serve",
                                 "ingest", "lint", "all"],
                        default=None, help="full suite to run")
    parser.add_argument("--scales", type=str, default=None,
                        help="comma-separated scale factors for the "
                             "scaling suite")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--workers", type=int, default=1,
                        help="serving processes (serve) or lint pool "
                             "width (lint)")
    parser.add_argument("--workers-list", type=str, default=None,
                        help="comma-separated worker counts for the "
                             "serve and lint suites (e.g. 1,2)")
    parser.add_argument("--prefetch", type=int, default=2,
                        help="chunk prefetch depth for scale points "
                             "(0 disables the generator overlap)")
    parser.add_argument("--chunk-samples", type=int, default=4096)
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--out-dir", type=str, default=".",
                        help="where BENCH_*.json land")
    args = parser.parse_args(argv)

    # the bare point flags are the child-process protocol; with an
    # explicit --suite they instead parameterise that suite's scale.
    if args.suite is None:
        if args.point_scale is not None:
            print(json.dumps(measure_scale_point(
                args.point_scale, seed=args.seed,
                chunk_samples=args.chunk_samples, num_shards=args.shards,
                prefetch=args.prefetch)))
            return 0
        if args.pipeline_scale is not None:
            print(json.dumps(measure_pipeline_point(
                args.pipeline_scale, seed=args.seed)))
            return 0
        if args.scan_scale is not None:
            print(json.dumps(measure_scan_point(
                args.scan_scale, seed=args.seed,
                iterations=args.iterations)))
            return 0
        if args.serve_scale is not None:
            from repro.serve.bench import measure_serve_point
            print(json.dumps(measure_serve_point(
                args.serve_scale, seed=args.seed,
                duration_s=args.duration,
                concurrency=args.concurrency,
                workers=args.workers)))
            return 0
        if args.ingest_scale is not None:
            print(json.dumps(measure_ingest_point(
                args.ingest_scale, seed=args.seed,
                batch_days=args.batch_days)))
            return 0
        if args.lint_mode is not None:
            print(json.dumps(measure_lint_point(
                args.lint_mode, workers=args.workers)))
            return 0

    suite = args.suite or "all"
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scales = ([float(s) for s in args.scales.split(",")]
              if args.scales else DEFAULT_SCALES)
    workers_list = ([int(w) for w in args.workers_list.split(",")]
                    if args.workers_list else [args.workers])
    if suite in ("scale", "all"):
        _write_suite(out_dir, "scale",
                     run_scaling_suite(scales, seed=args.seed,
                                       chunk_samples=args.chunk_samples,
                                       num_shards=args.shards,
                                       prefetch=args.prefetch))
    if suite in ("pipeline", "all"):
        _write_suite(out_dir, "pipeline",
                     run_pipeline_suite(seed=args.seed))
    if suite in ("scan", "all"):
        _write_suite(out_dir, "scan",
                     run_scan_suite(args.scan_scale or 0.02,
                                    seed=args.seed,
                                    iterations=args.iterations))
    if suite in ("serve", "all"):
        _write_suite(out_dir, "serve",
                     run_serve_suite(args.serve_scale or 0.02,
                                     seed=args.seed,
                                     duration_s=args.duration,
                                     concurrency=args.concurrency,
                                     workers_list=workers_list))
    if suite in ("ingest", "all"):
        _write_suite(out_dir, "ingest",
                     run_ingest_suite(args.ingest_scale or 0.02,
                                      seed=args.seed,
                                      batch_days=args.batch_days))
    if suite in ("lint", "all"):
        lint_workers = (workers_list if args.workers_list
                        else [1, 2, 4])
        _write_suite(out_dir, "lint",
                     run_lint_suite(workers_list=lint_workers))
    return 0


if __name__ == "__main__":
    sys.exit(main())
