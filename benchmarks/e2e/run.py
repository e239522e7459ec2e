"""The repository's end-to-end benchmark.

One workload, one fresh process (what ``BENCHMARK.json`` runs)::

    python benchmarks/e2e/run.py --workload batch --seed 2019 \\
        [--seconds 10] [--trace 0|1] [--spans spans.jsonl] [--out r.json]

The last line of standard output is the result: ``{"correct",
"attempted", "failed", "metrics"}`` with every end-to-end metric of
``BENCHMARK.json`` (``--trace 0``) or every per-layer metric
(``--trace 1``).  The exit code is 0 only when every output checked
out.

Several runs, each workload in its own fresh process::

    python benchmarks/e2e/run.py --workload all --seed 2019 --runs 5 \\
        --out results.json

``--workload all`` also checks that the batch, ingest and out-of-core
drivers produced equal digests.  ``--smoke`` runs every workload on
tiny inputs with 1-second windows.  ``src/`` is found relative to this
file; no environment set-up is needed.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".e2e_work"
NAMES = ("batch", "ingest", "outofcore", "serve")
#: the measurement pipelines whose digests must agree under
#: ``--workload all``
PIPELINES = ("batch", "ingest", "outofcore")


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="end-to-end benchmark (see benchmarks/e2e/README.md)")
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                             "BENCHMARK.json run_seconds; 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a traced run reporting per-layer metrics")
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, write the spans here")
    parser.add_argument("--runs", type=int, default=1,
                        help="fresh-process runs per workload, seeds "
                             "SEED, SEED+1, ...")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and 1-second windows")
    parser.add_argument("--out", default=None,
                        help="write the detailed report here")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    if args.spans and not args.trace:
        parser.error("--spans needs --trace 1")
    return args


def _spec() -> Dict[str, Any]:
    return json.loads(SPEC.read_text())


def _per_layer(workload: str, outcome, tracer) -> Dict[str, float]:
    """Every per-layer metric, per traced pass; a layer that the
    workload should exercise but did not fails the run."""
    from trace import layer_value, summarize
    from workloads import IDLE, MOVES
    layers = summarize(tracer.records() + outcome.child_records)
    visits = outcome.info.get("traced_visits", 1)
    values: Dict[str, float] = {}
    for metric in _spec()["per_layer"]:
        name = metric["name"]
        if name in outcome.extras:
            values[name] = outcome.extras[name]
            continue
        value = layer_value(name, layers)
        if name.endswith(("calls", "_s", ".mib")):
            value /= visits
        values[name] = value
    for layer in MOVES[workload]:
        if not layers.get(layer, {}).get("calls"):
            outcome.failed += 1
            outcome.errors.append(f"trace: layer {layer} made no calls")
    for layer in IDLE.get(workload, ()):
        if layers.get(layer, {}).get("calls"):
            outcome.failed += 1
            outcome.errors.append(f"trace: layer {layer} should be idle")
    return values


def run_one(args: argparse.Namespace) -> int:
    """Run one workload in this process; print the result line."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401  (the program under test)
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    from oracle import pinned_digest
    from trace import Tracer
    from workloads import PLANS, WORKLOADS

    spec = _spec()
    plan = PLANS["smoke" if args.smoke else "full"]
    seconds = args.seconds or (1.0 if args.smoke else spec["run_seconds"])
    work = WORK / f"{os.getpid()}-{args.workload}"
    work.mkdir(parents=True)
    # anything that reaches for a temporary directory stays in the tree
    os.environ["TMPDIR"] = tempfile.tempdir = str(work)
    tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}") \
        if args.trace else None
    started = time.perf_counter()
    try:
        outcome = WORKLOADS[args.workload](plan, args.seed, seconds, work,
                                           tracer=tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if outcome.digest is not None:
        pinned = pinned_digest(plan.key)
        outcome.attempted += 1
        if pinned != outcome.digest:
            outcome.failed += 1
            outcome.errors.append(f"digest {outcome.digest} != pinned "
                                  f"{pinned} for {plan.key} (seed "
                                  f"{args.seed}); oracle.py pin re-pins")
    if tracer is not None:
        values = _per_layer(args.workload, outcome, tracer)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for record in tracer.records() + outcome.child_records:
                    fh.write(json.dumps(record) + "\n")
    else:
        values = outcome.metrics
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(units) != set(values):
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(values))}")
    # a metric that could not be measured (a swap that never answered)
    # is infinite; the run has already failed, and JSON has no infinity
    values = {name: value if math.isfinite(value) else sys.float_info.max
              for name, value in values.items()}
    correct = outcome.failed == 0
    for error in outcome.errors:
        print(f"{args.workload}: {error}", file=sys.stderr)
    result = {"correct": correct, "attempted": outcome.attempted,
              "failed": outcome.failed,
              "metrics": {name: {"value": values[name],
                                 "unit": units[name]} for name in units}}
    if args.out:
        report = dict(result, workload=args.workload, seed=args.seed,
                      plan=plan.key, digest=outcome.digest,
                      errors=outcome.errors, info=outcome.info,
                      trace=bool(tracer), wall_s=time.perf_counter()
                      - started, end_to_end=outcome.metrics)
        Path(args.out).write_text(json.dumps(report, indent=1,
                                             default=str) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


# -- several runs ------------------------------------------------------------


def _host() -> Dict[str, Any]:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.common.calibrate import calibration_score
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True)
    return {"nproc": os.cpu_count(), "calibration": calibration_score(),
            "commit": commit.stdout.strip() or None}


def run_many(args: argparse.Namespace) -> int:
    """Each (run, workload) in a fresh child process; summarise."""
    from measure import quartiles, spread

    names = NAMES if args.workload == "all" else (args.workload,)
    WORK.mkdir(exist_ok=True)
    runs: List[Dict[str, Any]] = []
    correct = True
    spans_out = open(args.spans, "w", encoding="utf-8") \
        if args.spans else None
    try:
        for run in range(args.runs):
            seed = args.seed + run
            digests = {}
            for name in names:
                report_path = WORK / f"report-{os.getpid()}-{name}.json"
                spans_path = WORK / f"spans-{os.getpid()}-{name}.jsonl"
                command = [sys.executable, str(Path(__file__)),
                           "--workload", name, "--seed", str(seed),
                           "--trace", str(args.trace),
                           "--out", str(report_path)]
                if args.seconds:
                    command += ["--seconds", str(args.seconds)]
                if args.smoke:
                    command.append("--smoke")
                if spans_out is not None:
                    command += ["--spans", str(spans_path)]
                proc = subprocess.run(command, capture_output=True,
                                      text=True, timeout=900)
                sys.stderr.write(proc.stderr)
                if not report_path.exists():
                    raise RuntimeError(f"{name} run {run} failed "
                                       f"(exit {proc.returncode})")
                report = json.loads(report_path.read_text())
                report_path.unlink()
                if spans_out is not None:
                    spans_out.write(spans_path.read_text())
                    spans_path.unlink()
                correct &= report["correct"]
                digests[name] = report["digest"]
                runs.append(report)
                print(f"run {run} {name}: correct={report['correct']} "
                      f"{report['wall_s']:.1f}s " + " ".join(
                          f"{k}={v['value']:.4g}"
                          for k, v in report["metrics"].items()),
                      file=sys.stderr)
            agreed = {digests[n] for n in PIPELINES if n in digests}
            if args.workload == "all" and len(agreed) != 1:
                correct = False
                print(f"run {run}: driver digests differ: {digests}",
                      file=sys.stderr)
    finally:
        if spans_out is not None:
            spans_out.close()

    summary: Dict[str, Dict[str, Any]] = {}
    for name in names:
        mine = [r for r in runs if r["workload"] == name]
        summary[name] = {}
        for metric in mine[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in mine]
            q1, q2, q3 = quartiles(values)
            summary[name][metric] = {
                "unit": mine[0]["metrics"][metric]["unit"],
                "values": values, "median": q2, "q1": q1, "q3": q3,
                "spread": spread(values)}
    for name, metrics in summary.items():
        for metric, entry in metrics.items():
            print(f"{name:<10} {metric:<36} median {entry['median']:<12.5g}"
                  f" IQR/median {entry['spread']:.3f} "
                  f"{entry['unit']}", file=sys.stderr)
    payload = {"seed": args.seed, "runs": args.runs,
               "trace": bool(args.trace), "smoke": args.smoke,
               "host": _host(), "summary": summary, "reports": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=1,
                                             default=str) + "\n")
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "workloads": {n: {m: e["median"] for m, e in s.items()}
                                    for n, s in summary.items()}}))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Command-line entry point; returns the exit code."""
    args = _parse(argv)
    if args.workload == "all" or args.runs > 1:
        return run_many(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
