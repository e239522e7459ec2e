#!/usr/bin/env python
"""Throughput regression gate over committed BENCH_*.json baselines.

Compares a fresh bench run against the previously committed JSON for
each suite and fails (exit 1) when any matched point's throughput
metric dropped by more than the threshold (default 25%)::

    PYTHONPATH=src python benchmarks/regression_gate.py \
        --previous-dir . --current-dir /tmp/bench \
        --suites scale,serve,ingest [--threshold 0.25]

Points are matched on their identifying fields (see
``repro.scale.bench.GATE_METRICS``): scale and pipeline points on
their scale, serve points on (scale, concurrency, workers), ingest
points on (scale, batch_days), lint points on (mode, workers).  Points present
on only one side — a grown or shrunk curve — are reported but never
fail the gate, so CI smoke runs covering a subset of the committed
curve still gate the overlap.  A missing baseline file is a pass
(first run of a new lane).

When both sides carry a ``calibration`` stamp
(:mod:`repro.common.calibrate`), deltas are taken over
machine-normalised ratios, so baselines committed from a faster or
slower box gate code changes rather than hardware.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.scale.bench import compare_runs  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="regression-gate",
        description="fail on >threshold throughput regression vs the "
                    "committed BENCH_*.json")
    parser.add_argument("--previous-dir", type=str, default=".",
                        help="directory holding the committed "
                             "baselines (default: repo root)")
    parser.add_argument("--current-dir", type=str, required=True,
                        help="directory holding the fresh run's "
                             "BENCH_*.json")
    parser.add_argument("--suites", type=str, default="scale,serve",
                        help="comma-separated suites to gate")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="fractional throughput drop that fails "
                             "the gate")
    args = parser.parse_args(argv)

    failures = []
    for suite in [s.strip() for s in args.suites.split(",") if s.strip()]:
        previous_path = Path(args.previous_dir) / f"BENCH_{suite}.json"
        current_path = Path(args.current_dir) / f"BENCH_{suite}.json"
        if not current_path.exists():
            print(f"{suite}: no current run at {current_path}; FAIL")
            failures.append(f"{suite}: missing current run")
            continue
        if not previous_path.exists():
            print(f"{suite}: no committed baseline at {previous_path}; "
                  "skipping (first run)")
            continue
        previous = json.loads(previous_path.read_text())
        current = json.loads(current_path.read_text())
        regressions, notes = compare_runs(previous, current,
                                          threshold=args.threshold)
        for note in notes:
            print(f"  {note}")
        for regression in regressions:
            print(f"  REGRESSION: {regression}")
        failures.extend(regressions)
    if failures:
        print(f"regression gate: {len(failures)} failure(s) at "
              f"-{args.threshold:.0%}")
        return 1
    print(f"regression gate: ok (threshold -{args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
