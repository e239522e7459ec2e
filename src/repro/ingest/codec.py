"""JSON codecs for the durable ingestion state.

Everything the checkpoint journal and snapshots persist round-trips
through these functions: :class:`~repro.core.records.MinerRecord`,
:class:`~repro.core.sanity.SanityVerdict`, per-sample outcomes and the
funnel stats.  Encoding is plain-JSON (no pickle) so journals stay
inspectable with standard tools and stable across interpreter versions;
dates travel as ISO strings.
"""

import dataclasses
from typing import Any, Dict, Optional

from repro.common.simtime import Date, parse_date
from repro.core.pipeline import PipelineStats, SampleOutcome
from repro.core.records import MinerRecord
from repro.core.sanity import SanityVerdict

#: bump when the journal/snapshot layout changes incompatibly.
FORMAT_VERSION = 1


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


def decode_record(data: Dict[str, Any]) -> MinerRecord:
    """Inverse of :func:`encode_record`."""
    data = dict(data)
    if data.get("first_seen") is not None:
        data["first_seen"] = parse_date(data["first_seen"])
    return MinerRecord(**data)


def encode_verdict(verdict: SanityVerdict) -> Dict[str, Any]:
    """One sanity verdict as a JSON-safe dict."""
    return _encode_dataclass(verdict)


def decode_verdict(data: Dict[str, Any]) -> SanityVerdict:
    """Inverse of :func:`encode_verdict`."""
    return SanityVerdict(**data)


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


def decode_outcome(data: Dict[str, Any]) -> SampleOutcome:
    """Inverse of :func:`encode_outcome`."""
    return SampleOutcome(
        index=data["index"],
        sha256=data["sha256"],
        kind=data["kind"],
        verdict=(decode_verdict(data["verdict"])
                 if data.get("verdict") is not None else None),
        record=(decode_record(data["record"])
                if data.get("record") is not None else None),
        has_network=data.get("has_network", False),
        used_static=data.get("used_static", False),
    )


def encode_stats(stats) -> Dict[str, Any]:
    """The funnel stats (:class:`PipelineStats`) as a JSON-safe dict."""
    return _encode_dataclass(stats)


def decode_stats(data: Dict[str, Any]) -> PipelineStats:
    """Inverse of :func:`encode_stats`."""
    return PipelineStats(**data)


def encode_date(day: Optional[Date]) -> Optional[str]:
    """ISO string of a date, passing None through."""
    return day.isoformat() if day is not None else None


def decode_date(text: Optional[str]) -> Optional[Date]:
    """Inverse of :func:`encode_date`."""
    return parse_date(text) if text is not None else None
