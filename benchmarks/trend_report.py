#!/usr/bin/env python
"""Throughput trends over the committed ``BENCH_history/`` trail.

The history directory holds one append-only JSON per bench run
(``<suite>-<NNNN>.json``, written by ``repro bench``); this script
folds the trail into per-point trend series and renders them as a
markdown report and/or a flat CSV — the CI artifact the roadmap's
bench-trajectory item calls for::

    PYTHONPATH=src python benchmarks/trend_report.py \
        --history-dir BENCH_history --out-md trends.md \
        --out-csv trends.csv [--suites scale,serve]

Points are keyed exactly like the regression gate
(:data:`repro.scale.bench.GATE_METRICS`), so a trend series here is
the same curve the gate compares.  Entries of suites the gate no
longer knows (the deleted pipeline, ingest, scan and lint lanes) stay
in the trail and are skipped here with a note on stderr.  When an entry carries a
``calibration`` stamp the normalised metric (metric / score) is
reported alongside the raw one — cross-machine history stays
readable.  Output is deterministic: suites, keys and sequence numbers
all sort.
"""

import argparse
import csv
import io
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.scale.bench import GATE_METRICS  # noqa: E402

#: one history observation of one keyed point.
TrendRow = Dict[str, object]


def _sequence_of(path: Path) -> Optional[int]:
    tail = path.stem.rsplit("-", 1)[-1]
    return int(tail) if tail.isdigit() else None


def load_history(history_dir: Path,
                 suites: Optional[List[str]] = None) -> List[TrendRow]:
    """Flatten every history entry into keyed trend rows.

    Unknown suites and unparseable files are skipped with a note on
    stderr rather than failing the report — a trail with one corrupt
    entry is still a trail.
    """
    rows: List[TrendRow] = []
    for path in sorted(history_dir.glob("*.json")):
        seq = _sequence_of(path)
        if seq is None:
            continue
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"trend-report: skipping {path.name}: {exc}",
                  file=sys.stderr)
            continue
        suite = payload.get("bench")
        if suite not in GATE_METRICS:
            print(f"trend-report: skipping {path.name}: unknown "
                  f"suite {suite!r}", file=sys.stderr)
            continue
        if suites is not None and suite not in suites:
            continue
        metric, key_fields = GATE_METRICS[suite]
        calibration = payload.get("calibration") or 0.0
        for point in payload.get("points", []):
            value = point.get(metric)
            if value is None:
                continue
            label = ", ".join(
                f"{field}={point.get(field)}" for field in key_fields)
            rows.append({
                "suite": suite, "seq": seq, "label": label,
                "metric": metric, "value": float(value),
                "calibration": float(calibration),
                "normalised": (float(value) / float(calibration)
                               if calibration else None),
            })
    rows.sort(key=lambda r: (r["suite"], r["label"], r["seq"]))
    return rows


def _series(rows: List[TrendRow]) -> Dict[Tuple[str, str],
                                          List[TrendRow]]:
    out: Dict[Tuple[str, str], List[TrendRow]] = {}
    for row in rows:
        out.setdefault((row["suite"], row["label"]), []).append(row)
    return out


def _trend_value(row: TrendRow) -> float:
    """The comparable value: normalised when stamped, raw otherwise."""
    normalised = row["normalised"]
    return normalised if normalised is not None else row["value"]


def render_markdown(rows: List[TrendRow]) -> str:
    """One markdown section per suite, one table row per observation.

    The ``delta`` column is the step-to-step change of the comparable
    value (normalised where available), so a hardware swap mid-trail
    does not masquerade as a code regression.
    """
    lines = ["# Bench throughput trends", ""]
    if not rows:
        lines += ["_No history entries found._", ""]
        return "\n".join(lines)
    by_suite: Dict[str, List[TrendRow]] = {}
    for row in rows:
        by_suite.setdefault(row["suite"], []).append(row)
    for suite in sorted(by_suite):
        metric = GATE_METRICS[suite][0]
        lines += [f"## {suite} ({metric})", ""]
        lines += ["| point | run | " + metric +
                  " | calibration | normalised | delta |",
                  "|---|---|---|---|---|---|"]
        for key, series in sorted(_series(by_suite[suite]).items()):
            previous: Optional[float] = None
            for row in series:
                current = _trend_value(row)
                if previous in (None, 0.0):
                    delta = ""
                else:
                    delta = f"{(current - previous) / previous:+.1%}"
                previous = current
                normalised = (f"{row['normalised']:.4f}"
                              if row["normalised"] is not None else "-")
                calibration = (f"{row['calibration']:.1f}"
                               if row["calibration"] else "-")
                lines.append(
                    f"| {row['label']} | {row['seq']:04d} "
                    f"| {row['value']:.2f} | {calibration} "
                    f"| {normalised} | {delta} |")
        lines.append("")
    return "\n".join(lines)


def render_csv(rows: List[TrendRow]) -> str:
    """Flat CSV of every observation (for plotting downstream)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["suite", "seq", "label", "metric", "value",
                     "calibration", "normalised"])
    for row in rows:
        writer.writerow([
            row["suite"], row["seq"], row["label"], row["metric"],
            f"{row['value']:.4f}",
            f"{row['calibration']:.1f}" if row["calibration"] else "",
            (f"{row['normalised']:.6f}"
             if row["normalised"] is not None else ""),
        ])
    return buffer.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="trend-report",
        description="render BENCH_history/ throughput trends as "
                    "markdown and CSV")
    parser.add_argument("--history-dir", type=str,
                        default="BENCH_history",
                        help="history directory (default: "
                             "BENCH_history)")
    parser.add_argument("--suites", type=str, default=None,
                        help="comma-separated suites to include "
                             "(default: all known)")
    parser.add_argument("--out-md", type=str, default=None,
                        help="write the markdown report here "
                             "(default: stdout)")
    parser.add_argument("--out-csv", type=str, default=None,
                        help="also write the flat CSV here")
    args = parser.parse_args(argv)

    history_dir = Path(args.history_dir)
    if not history_dir.is_dir():
        print(f"trend-report: no history directory at {history_dir}",
              file=sys.stderr)
        return 2
    suites = ([s.strip() for s in args.suites.split(",") if s.strip()]
              if args.suites else None)
    rows = load_history(history_dir, suites)
    markdown = render_markdown(rows)
    if args.out_md:
        Path(args.out_md).write_text(markdown)
        print(f"wrote {args.out_md} ({len(rows)} observations)",
              file=sys.stderr)
    else:
        print(markdown)
    if args.out_csv:
        Path(args.out_csv).write_text(render_csv(rows))
        print(f"wrote {args.out_csv}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
