"""Measure the serve workload's sustained capacity on this host.

    python3 benchmarks/e2e/capacity.py [--rates 1000,1250,...]
        [--seconds 3] [--repeats 2]

Starts one ``repro serve --checkpoint`` child over the ``full`` plan's
served world, as the serve workload does, and offers it each rate of an
open-loop ladder (by default x1.25 steps from 1,000 requests/s) for
``--seconds``, ``--repeats`` times over, with the workload's request
mix and response checks.  A probe is valid while the load generator
keeps to its schedule (p99 lateness at most 2 ms).  A rate is
sustained when it has a valid probe and every valid probe answered all
its requests correctly, completed at least 99% of them within the
window plus 1 s, and kept p99 latency at or below 20 ms.

Prints one line per probe and, last, ``{"sustained_qps", "offered"}``:
the highest sustained rate and half of it, which is the rate the serve
workload offers (``workloads.PLANS["full"].serve_rate``).
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

from measure import pin_to_cpu  # noqa: E402
from repro.serve.metrics import percentile  # noqa: E402
import workloads  # noqa: E402

LADDER = tuple(round(1000 * 1.25 ** step) for step in range(9))
P99_MS = 20.0
LATE_MS = 2.0


def _probe(child, traffic, checker, rate: float, seconds: float) -> dict:
    failed = checker.failed
    window = workloads.serve_window(child, traffic, checker, rate, seconds)
    read = window["read"]
    latency = sorted(o.latency_s * 1e3 if o.status else float("inf")
                     for o in read)
    late = sorted((o.queued - o.due) * 1e3 for o in read)
    elapsed = window["end"] - window["start"]
    return {"rate": rate, "requests": len(read),
            "p50_ms": percentile(latency, 50),
            "p90_ms": percentile(latency, 90),
            "p99_ms": percentile(latency, 99),
            "late_p99_ms": percentile(late, 99),
            "server_cpu_share": window["cpu_read_s"] / elapsed,
            "completed": sum(o.done <= window["start"] + seconds + 1
                             for o in read) / len(read),
            "failed": checker.failed - failed}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rates", default=",".join(map(str, LADDER)))
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--repeats", type=int, default=2)
    args = parser.parse_args()
    rates = [float(rate) for rate in args.rates.split(",")]

    plan = workloads.PLANS["full"]
    work = HERE.parents[1] / ".e2e_work" / "capacity"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tempfile.tempdir = str(work)
    probes = []
    try:
        served, _, indexes = workloads.prepare_checkpoints(plan, work)
        traffic = workloads.Traffic(indexes, seed=0)
        checker = workloads.ResponseChecker(traffic, indexes[:1])
        pin_to_cpu(0)
        child = workloads.ServeChild(served, work, "capacity")
        try:
            child.wait_healthy()
            for _ in range(args.repeats):
                for rate in rates:
                    probe = _probe(child, traffic, checker, rate,
                                   args.seconds)
                    probes.append(probe)
                    print(" ".join(f"{k}={v:.4g}" for k, v in probe.items()),
                          flush=True)
        finally:
            child.stop()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def passes(probe: dict) -> bool:
        return (probe["failed"] == 0 and probe["completed"] >= 0.99
                and probe["p99_ms"] <= P99_MS)

    sustained = 0.0
    for rate in rates:
        valid = [p for p in probes if p["rate"] == rate
                 and p["late_p99_ms"] <= LATE_MS]
        if valid and all(passes(p) for p in valid):
            sustained = max(sustained, rate)
    print(json.dumps({"sustained_qps": sustained, "offered": sustained / 2}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
