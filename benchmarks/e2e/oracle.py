"""Correctness oracle: one digest per measurement result.

The three drivers (batch ``MeasurementPipeline``, checkpointed
``IngestionService`` and out-of-core ``ScalePipeline``) must agree on
what the paper's methodology measures, so the digest covers exactly the
outputs all three produce:

* the Table III funnel (every ``PipelineStats`` field, per-feed counts
  included);
* the kept dataset as sorted ``(sha256, type)`` pairs;
* the campaign partition, as sorted sorted-hash groups.

Enrichment annotations are left out on purpose: the out-of-core path
stops before enrichment.

``digests.json`` pins the expected digest of each plan's world, which
every seed must reproduce (the seed only reorders the samples).
Regenerate it (only when the program's output or a plan is meant to
change) with::

    PYTHONPATH=src python benchmarks/e2e/oracle.py pin
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Optional

__all__ = ["pinned_digest", "result_digest"]

PINS = Path(__file__).resolve().parent / "digests.json"


def result_digest(result) -> str:
    """Digest of one measurement result of any driver."""
    from repro.core.pipeline import iter_result_records

    funnel = dataclasses.asdict(result.stats)
    digest = hashlib.sha256()
    digest.update(json.dumps(funnel, sort_keys=True).encode())
    records = sorted((r.sha256, r.type) for r in iter_result_records(result))
    for sha, kind in records:
        digest.update(f"{sha}:{kind}\n".encode())
    partition = sorted(sorted(c.sample_hashes) for c in result.campaigns)
    for group in partition:
        digest.update((",".join(group) + "\n").encode())
    return digest.hexdigest()[:16]


def pinned_digest(plan_key: str) -> Optional[str]:
    """The pinned digest of a plan's world, or None if not pinned."""
    return _load_pins().get(plan_key)


def _load_pins() -> Dict[str, str]:
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def _pin() -> None:
    """Compute and store the batch-pipeline digest of every plan."""
    from workloads import PLANS, plan_digest

    pins = {plan.key: plan_digest(plan) for plan in PLANS.values()}
    for key, digest in pins.items():
        print(f"{key}: {digest}", file=sys.stderr)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["pin"]:
        sys.exit("usage: oracle.py pin")
    _pin()
