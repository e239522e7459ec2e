"""Compare two sets of benchmark runs, metric by metric.

    python benchmarks/e2e/compare.py A.json B.json

``A.json`` (the parent) and ``B.json`` (the change) are written by
``run.py --runs N --out``; run ``i`` of each side uses seed
``SEED + i``, so runs pair up by index.  For every (workload,
end-to-end metric) the report gives each side's median and quartiles,
B's change against A in the metric's better direction, and a verdict:

* ``regressed``: B's median is worse than A's by more than the bound
  ``BENCHMARK.json`` fixes for the metric;
* ``unresolved``: either side's IQR exceeds the bound as a share of its
  median, so "no regression" cannot be claimed; unless every B run is
  better than every A run;
* ``ok`` otherwise.

A metric shows ``gain`` only when B wins at least 9 of every 10 pairs
(ties count for neither side) and the medians differ by more than A's
interquartile range.  The exit status is 1 when anything regressed.
"""

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

from measure import quartiles

__all__ = ["compare", "compare_metric"]

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def compare_metric(a: Sequence[float], b: Sequence[float], bound: float,
                   higher_is_better: bool) -> Dict[str, Any]:
    """Verdict and claim for one metric's A runs against its B runs."""
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    sign = 1.0 if higher_is_better else -1.0
    change = sign * (b_med - a_med) / a_med
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    pairs = min(len(a), len(b))
    always_better = min(sign * y for y in b) > max(sign * x for x in a)
    unsteady = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med) > bound
    if change < -bound:
        verdict = "regressed"
    elif unsteady and not always_better:
        verdict = "unresolved"
    else:
        verdict = "ok"
    gain = (change > 0 and wins * 10 >= pairs * 9
            and abs(b_med - a_med) > a_q3 - a_q1)
    return {"a": (a_q1, a_med, a_q3), "b": (b_q1, b_med, b_q3),
            "change": change, "verdict": verdict, "gain": gain,
            "wins": wins, "pairs": pairs}


def compare(a: Dict[str, Any], b: Dict[str, Any],
            spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, end-to-end metric) both files hold."""
    rows = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        for workload in sorted(set(a["summary"]) & set(b["summary"])):
            a_entry = a["summary"][workload].get(name)
            b_entry = b["summary"][workload].get(name)
            if a_entry is None or b_entry is None:
                continue
            row = compare_metric(a_entry["values"], b_entry["values"],
                                 metric["bound"],
                                 metric["better"] == "higher")
            row.update(workload=workload, metric=name,
                       unit=metric["unit"], bound=metric["bound"])
            rows.append(row)
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    rows = compare(a, b, json.loads(SPEC.read_text()))
    print(f"{'workload':<10} {'metric':<17} {'A median [Q1, Q3]':<32} "
          f"{'B median [Q1, Q3]':<32} {'change':>8} {'bound':>6}  "
          f"verdict")
    for row in rows:
        cells = [f"{m:.4g} [{lo:.4g}, {hi:.4g}]"
                 for lo, m, hi in (row["a"], row["b"])]
        claim = f" gain ({row['wins']}/{row['pairs']} pairs)" \
            if row["gain"] else ""
        print(f"{row['workload']:<10} {row['metric']:<17} {cells[0]:<32} "
              f"{cells[1]:<32} {row['change']:>+8.1%} {row['bound']:>6.0%}"
              f"  {row['verdict']}{claim}")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
