"""JSON codec for the durable ingestion state.

Everything the checkpoint journal and snapshots persist round-trips
through this module: :class:`~repro.core.records.MinerRecord`,
:class:`~repro.core.sanity.SanityVerdict`, per-sample outcomes, the
funnel stats and the per-batch metrics.  Encoding is plain JSON (no
pickle) so journals stay inspectable with standard tools and stable
across interpreter versions.

:func:`encode` is ``json.dumps(value, sort_keys=True)`` with one
``default=`` hook: dates travel as ISO strings and a dataclass as the
dict of its fields, so the C encoder walks the whole value in one
call.  The ``decode_*`` functions invert it.
"""

import dataclasses
import functools
import json
from typing import Any, Dict, Optional, Tuple

from repro.common.simtime import Date, parse_date
from repro.core.pipeline import PipelineStats, SampleOutcome
from repro.core.records import MinerRecord
from repro.core.sanity import SanityVerdict

#: stamped on every journal commit and snapshot; bump when the layout
#: changes.  v2 adds the finalized snapshot's ``stock_tool_facts``.
FORMAT_VERSION = 2

#: snapshot versions the loader reads: a v1 snapshot has no fact table,
#: so its facts are computed when a result is materialised.
READABLE_VERSIONS = frozenset({1, 2})


@functools.lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    return tuple(field.name for field in dataclasses.fields(cls))


def _default(value: Any) -> Any:
    if isinstance(value, Date):
        return value.isoformat()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # getattr, not vars(): CPython keeps instance attributes inline
        # until __dict__ is read, and reading it gives every record and
        # verdict a dict of its own for the rest of its life
        return {name: getattr(value, name)
                for name in _field_names(type(value))}
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable")


#: ``json.dumps(value, sort_keys=True, default=_default)``, built once.
encode = json.JSONEncoder(sort_keys=True, default=_default).encode


class Encoded(str):
    """JSON text that a checkpoint write copies as it is."""

    __slots__ = ()


def decode_record(data: Dict[str, Any]) -> MinerRecord:
    """One miner record (Table I, field for field) from its JSON form."""
    data = dict(data)
    if data.get("first_seen") is not None:
        data["first_seen"] = parse_date(data["first_seen"])
    return MinerRecord(**data)


def decode_verdict(data: Dict[str, Any]) -> SanityVerdict:
    """One sanity verdict from its JSON form."""
    return SanityVerdict(**data)


def decode_outcome(data: Dict[str, Any]) -> SampleOutcome:
    """One per-sample analysis outcome from its journal payload."""
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


def decode_stats(data: Dict[str, Any]) -> PipelineStats:
    """The funnel stats (:class:`PipelineStats`) from their JSON form."""
    return PipelineStats(**data)


def decode_date(text: Optional[str]) -> Optional[Date]:
    """A date from its ISO string, passing None through."""
    return parse_date(text) if text is not None else None
