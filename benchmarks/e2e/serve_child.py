"""The serve workload's server process: ``repro serve`` plus probes.

Usage (the serve workload starts it; ``src`` is found from here)::

    python benchmarks/e2e/serve_child.py --cpu N --speed FILE \\
        [--spans FILE] -- SERVE-ARGS...

Pins itself to the ``N``-th usable CPU, starts a speedometer there
(see ``measure.py``), and runs ``repro.cli.main(["serve",
*SERVE-ARGS])``.  With ``--spans`` the benchmark's tracer is installed
first.  The benchmark stops the server with SIGTERM, which writes the
speedometer samples (and the spans) before exiting.
"""

import argparse
import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--speed", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--run-id", default="")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    from measure import Speedometer, pin_to_cpu
    pin_to_cpu(args.cpu)
    meter = Speedometer().start()
    tracer = None
    if args.spans:
        from trace import Tracer
        tracer = Tracer(run_id=args.run_id).install()

    def stop(_signum, _frame) -> None:
        with open(args.speed, "w", encoding="utf-8") as fh:
            json.dump(list(meter.samples), fh)
        if tracer is not None:
            tracer.dump(args.spans)
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(0)

    signal.signal(signal.SIGTERM, stop)
    from repro.cli import main as repro_main
    return repro_main(["serve", *serve_args])


if __name__ == "__main__":
    sys.exit(main())
