"""Reprolint overhead bench: full-repo lint wall time and throughput.

The lint gate runs on every ``pytest`` invocation
(``tests/test_lint_gate.py``) and in CI's lint job, so its cost has
to stay negligible next to the suite it guards.  This bench times the
complete pass — module discovery, parse, the single traversal with all
per-module rule families, the whole-program passes (call graph +
interprocedural taint, schema contracts, dead-symbol reachability) —
over the real ``src/repro`` tree and fails if it exceeds a generous
wall-time budget.

Two configurations are timed, both serial (the JSON records
``cpu_count`` so the numbers read in context):

* **full** — the whole tree, the default engine;
* **changed-one** — the ``--changed`` fast path with a single-file
  focus and a warm fact cache: the whole program still feeds the
  cross-module passes, but unchanged modules come from the pickled
  summary cache instead of a re-parse (the steady state of an
  edit/lint loop; the first ``--changed`` run after a cold start
  pays one full parse to warm the cache).

Results are printed as JSON.

Usage::

    PYTHONPATH=src python benchmarks/bench_lint_overhead.py \
        [--iterations 3] [--budget-s 5.0] [--changed-budget-s 1.5]
"""

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from repro.lint import (
    LintEngine,
    default_source_root,
    lint_source_tree,
)


def _best_of(fn, iterations):
    best = float("inf")
    result = None
    for _ in range(iterations):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iterations", type=int, default=3)
    parser.add_argument("--budget-s", type=float, default=5.0,
                        help="fail when a full-repo lint pass takes "
                             "longer than this")
    # 1.0s until the unit/kind pass landed; that pass is whole-program
    # (the fixpoint + checks run even when one file changed, ~0.2s on
    # the reference core), so the lane's floor moved and the budget
    # moved with it — same ~40% headroom the cold budget carries.
    parser.add_argument("--changed-budget-s", type=float, default=1.5,
                        help="fail when the one-file --changed path "
                             "takes longer than this")
    args = parser.parse_args(argv)

    root = default_source_root()
    best_s, run = _best_of(lint_source_tree, args.iterations)
    report = run.report
    modules = report.modules_scanned

    # the --changed fast path, pinned to a one-file focus so the
    # number doesn't depend on the working tree's actual diff state;
    # a warm cache in a scratch dir mirrors the edit/lint steady state.
    one_file = "cli.py"
    with tempfile.TemporaryDirectory() as scratch:
        cache_path = Path(scratch) / "reprolint-cache"
        LintEngine(cache_path=cache_path).run(
            root, focus=[one_file])  # warm
        changed_s, changed_report = _best_of(
            lambda: LintEngine(cache_path=cache_path).run(
                root, focus=[one_file]),
            args.iterations)

    print(json.dumps({
        "root": str(root),
        "iterations": args.iterations,
        "modules": modules,
        "wall_s": round(best_s, 4),
        "modules_per_s": round(modules / best_s, 1) if best_s else None,
        "cpu_count": os.cpu_count(),
        "changed_one_file_wall_s": round(changed_s, 4),
        "changed_focus_findings": len(changed_report.findings),
        "findings": len(report.findings),
        "parse_errors": len(report.parse_errors),
        "budget_s": args.budget_s,
        "changed_budget_s": args.changed_budget_s,
        "within_budget": best_s <= args.budget_s,
    }, indent=2))

    if report.parse_errors:
        print("FAIL: lint pass hit parse errors", file=sys.stderr)
        return 1
    if report.findings:
        print("FAIL: findings on the tree", file=sys.stderr)
        return 1
    if best_s > args.budget_s:
        print(f"FAIL: lint pass took {best_s:.2f}s, budget "
              f"{args.budget_s:.2f}s", file=sys.stderr)
        return 1
    if changed_s > args.changed_budget_s:
        print(f"FAIL: one-file --changed path took {changed_s:.2f}s, "
              f"budget {args.changed_budget_s:.2f}s", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
