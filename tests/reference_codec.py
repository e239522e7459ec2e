"""Independent oracle for the checkpoint encoder.

Production code encodes the durable ingestion state in one pass of the
C JSON encoder (``repro.ingest.codec.encode``: ``json.dumps`` with a
``default=`` hook).  This module keeps the dict encoders that encoder
replaced: each value becomes a JSON-safe dict field by field, and
``json.dumps(reference_encoder(value), sort_keys=True)`` is the text
every journal line and snapshot element must equal.
``tests/test_property_codec.py`` checks the two against each other.
"""

import dataclasses
from typing import Any, Dict

from repro.common.simtime import Date
from repro.core.pipeline import PipelineStats, SampleOutcome
from repro.core.records import MinerRecord
from repro.core.sanity import SanityVerdict

__all__ = [
    "encode_outcome",
    "encode_record",
    "encode_stats",
    "encode_verdict",
    "reference_encoder",
]


def _encode_value(value: Any) -> Any:
    if isinstance(value, Date):
        return value.isoformat()
    if isinstance(value, tuple):
        return list(value)
    return value


def _encode_dataclass(obj: Any) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if isinstance(value, list):
            out[field.name] = [_encode_value(v) for v in value]
        else:
            out[field.name] = _encode_value(value)
    return out


def encode_record(record: MinerRecord) -> Dict[str, Any]:
    """One miner record as a JSON-safe dict (Table I, field for field)."""
    return _encode_dataclass(record)


def encode_verdict(verdict: SanityVerdict) -> Dict[str, Any]:
    """One sanity verdict as a JSON-safe dict."""
    return _encode_dataclass(verdict)


def encode_outcome(outcome: SampleOutcome) -> Dict[str, Any]:
    """One per-sample analysis outcome as a JSON-safe journal payload."""
    return {
        "index": outcome.index,
        "sha256": outcome.sha256,
        "kind": outcome.kind,
        "verdict": (encode_verdict(outcome.verdict)
                    if outcome.verdict is not None else None),
        "record": (encode_record(outcome.record)
                   if outcome.record is not None else None),
        "has_network": outcome.has_network,
        "used_static": outcome.used_static,
    }


def encode_stats(stats: PipelineStats) -> Dict[str, Any]:
    """The funnel stats as a JSON-safe dict."""
    return _encode_dataclass(stats)


def reference_encoder(value: Any) -> Dict[str, Any]:
    """The dict encoder for one record, verdict, outcome or stats."""
    for kind, encoder in ((MinerRecord, encode_record),
                          (SanityVerdict, encode_verdict),
                          (SampleOutcome, encode_outcome),
                          (PipelineStats, encode_stats)):
        if isinstance(value, kind):
            return encoder(value)
    raise TypeError(f"no reference encoder for {type(value).__name__}")
