#!/usr/bin/env python
"""Unified benchmark harness entry point.

Thin wrapper over :mod:`repro.scale.bench` so the suite can be run
without installing the package::

    PYTHONPATH=src python benchmarks/harness.py --suite all
    PYTHONPATH=src python benchmarks/harness.py --suite scale \
        --scales 0.055,0.55

Emits ``BENCH_scale.json`` (out-of-core scaling curve: samples, time,
throughput, peak RSS per point), ``BENCH_pipeline.json`` (batch pipeline
stage breakdown), ``BENCH_scan.json`` (one-pass scan kernel vs the
legacy per-pattern path, equivalence-asserted), ``BENCH_serve.json``
(sustained-QPS serving run with p50/p95/p99 latency; ``workers=1``
hot-swaps under load, ``workers>1`` benchmarks the SO_REUSEPORT
fleet — see docs/serving.md) and ``BENCH_ingest.json`` (checkpointed
ingestion: batches/s plus cold-resume cost).  Every point runs in a
fresh subprocess so peak-RSS numbers are per-point, not a shared
high-water mark, and each suite also appends an immutable
``BENCH_history/<suite>-<NNNN>.json`` entry.  CI gates fresh runs
against the committed JSONs with ``benchmarks/regression_gate.py``
(>25% throughput drop on any matched point fails).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.scale.bench import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
