"""Benchmark lanes the end-to-end benchmark does not cover: scale, serve.

The paper's measurement is timed end to end by ``benchmarks/e2e``
(``BENCHMARK.json``).  Two lanes stay here because nothing there
replaces them yet:

* ``BENCH_scale.json`` — the out-of-core pipeline's memory and
  throughput curve, one point per scale
* ``BENCH_serve.json`` — sustained-QPS serving runs, one point per
  worker count (single-process hot-swap run plus multi-process
  fleets — see :mod:`repro.serve.bench`)

Each measurement point runs in a **fresh subprocess** — ``ru_maxrss``
is a lifetime high-water mark, so points sharing a process would
inherit each other's peaks.  The child re-invokes this module with
``--point-scale`` or ``--serve-scale`` and prints one JSON object on
stdout; the parent collects the points.

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

Invoked as ``repro bench`` or ``python -m repro.scale.bench``: the
CLI hands its arguments to :func:`main` unparsed.
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
    "measure_scale_point",
    "run_point_subprocess",
    "run_scaling_suite",
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
    try:
        store_bytes = sum(p.stat().st_size
                          for p in result.store.segment_paths())
        records = len(result.store)
        segments = result.store.num_segments
    finally:
        result.close()
    samples = result.stats.collected
    return {
        "suite": "scale",
        "scale": scale,
        "seed": seed,
        "prefetch": prefetch,
        "chunk_samples": chunk_samples,
        "num_shards": num_shards,
        "samples": samples,
        "records": records,
        "campaigns": len(result.campaigns),
        "skeleton_s": round(skeleton_s, 3),
        "run_s": round(run_s, 3),
        "total_s": round(skeleton_s + run_s, 3),
        "samples_per_s": round(samples / run_s, 1) if run_s else 0.0,
        "peak_rss_mib": round(peak_rss_mib() or 0.0, 1),
        "store_mib": round(store_bytes / (1024 * 1024), 2),
        "spill_mib": round(result.spill_bytes / (1024 * 1024), 2),
        "segments": segments,
        "deferred": result.deferred_spilled,
        "rejected": result.rejected_spilled,
        "recovered": result.recovered,
    }


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
    "serve": ("qps", ("scale", "concurrency", "workers")),
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
        prog="repro bench",
        description="scale / serve benchmark lanes; writes "
                    "BENCH_<suite>.json plus a BENCH_history/ entry "
                    "per run")
    parser.add_argument("--point-scale", type=float, default=None,
                        help="run ONE scale-pipeline point, JSON on "
                             "stdout (used by the parent harness)")
    parser.add_argument("--serve-scale", type=float, default=None,
                        help="run ONE serving-QPS point, JSON on stdout")
    parser.add_argument("--duration", type=float, default=8.0,
                        help="sustained-load seconds for the serve lane")
    parser.add_argument("--concurrency", type=int, default=8,
                        help="client threads for the serve lane")
    parser.add_argument("--suite", choices=[*GATE_METRICS, "all"],
                        default=None, help="full suite to run")
    parser.add_argument("--scales", type=str, default=None,
                        help="comma-separated scale factors for the "
                             "scaling suite")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--workers", type=int, default=1,
                        help="serving processes (serve)")
    parser.add_argument("--workers-list", type=str, default=None,
                        help="comma-separated worker counts for the "
                             "serve suite (e.g. 1,2)")
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
        if args.serve_scale is not None:
            from repro.serve.bench import measure_serve_point
            print(json.dumps(measure_serve_point(
                args.serve_scale, seed=args.seed,
                duration_s=args.duration,
                concurrency=args.concurrency,
                workers=args.workers)))
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
    if suite in ("serve", "all"):
        _write_suite(out_dir, "serve",
                     run_serve_suite(args.serve_scale or 0.02,
                                     seed=args.seed,
                                     duration_s=args.duration,
                                     concurrency=args.concurrency,
                                     workers_list=workers_list))
    return 0


if __name__ == "__main__":
    sys.exit(main())
