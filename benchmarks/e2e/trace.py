"""Span tracer: per-layer timings taken from outside the program.

:class:`Tracer` wraps the public entry points of every layer listed in
:data:`TARGETS`.  A module-level function is rebound in its own module
*and* in every loaded module that imported it by name (``from x import
f``), and modules imported later pick the wrapper up from the source
module; a method is patched on its class.  Nothing in ``src/`` knows
the tracer exists, and :meth:`Tracer.uninstall` restores every binding.

A span records its layer name, start, end, parent span, pid, thread
and run id; counts (calls of count-only targets, result outcomes such
as "children_of returned something") sit alongside.  Spans are kept in
memory and written as JSON lines by :meth:`Tracer.dump`.  A layer's
self time is its spans' duration minus the time their child spans
cover.  Parents are tracked per thread, so a coroutine target is only
exact while it does not suspend (``IntelService.handle`` does not
without a test hook).

Summarise a dump::

    python benchmarks/e2e/trace.py summarize spans.jsonl
"""

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["TARGETS", "Target", "Tracer", "layer_value", "load",
           "summarize"]


@dataclass(frozen=True)
class Target:
    """One traced callable: ``module`` + dotted ``qualname``.

    ``count_only`` targets bump ``<layer>.calls`` instead of recording
    spans (hot inner functions).  ``outcome(args, result)`` returns
    extra ``{suffix: amount}`` counts recorded as ``<layer>.<suffix>``.
    """

    layer: str
    module: str
    qualname: str
    count_only: bool = False
    outcome: Optional[Callable[[tuple, Any], Dict[str, float]]] = None


def _nonempty(_args, result) -> Dict[str, float]:
    return {"nonempty": 1} if result else {}


def _hit(_args, result) -> Dict[str, float]:
    return {"hit": 1} if result is not None else {}


def _scanned_bytes(args, _result) -> Dict[str, float]:
    scanned = args[1]
    data = getattr(scanned, "data", scanned)
    return {"bytes": len(data)}


TARGETS: Tuple[Target, ...] = (
    Target("corpus.generate", "repro.corpus.generator", "generate_world"),
    Target("corpus.skeleton", "repro.corpus.generator",
           "EcosystemGenerator.build_skeleton"),
    Target("corpus.chunk_wait", "repro.scale.stream",
           "ChunkPrefetcher.__next__"),
    Target("core.sanity", "repro.core.sanity",
           "SanityChecker.is_executable"),
    Target("core.sanity", "repro.core.sanity", "SanityChecker.is_malware"),
    Target("core.sanity", "repro.core.sanity", "SanityChecker.is_miner"),
    Target("core.static_analysis", "repro.core.static_analysis",
           "StaticAnalyzer.analyze"),
    Target("core.dynamic_analysis", "repro.core.dynamic_analysis",
           "DynamicAnalyzer.analyze"),
    Target("yarm.scan", "repro.yarm.engine", "RuleSet.scan"),
    Target("perf.scan", "repro.perf.scan", "ScanKernel.scan",
           count_only=True, outcome=_scanned_bytes),
    Target("wallets.detect", "repro.wallets.detect", "extract_identifiers"),
    Target("intel.vt.children_of", "repro.intel.vt",
           "VtService.children_of", outcome=_nonempty),
    Target("core.enrichment", "repro.core.enrichment",
           "CampaignEnricher.enrich"),
    Target("osint.stock_tools.match", "repro.osint.stock_tools",
           "StockToolCatalog.match", outcome=_hit),
    Target("fuzzyhash.ctph.compute", "repro.fuzzyhash.ctph", "compute"),
    Target("fuzzyhash.ctph.score", "repro.fuzzyhash.ctph",
           "score_with_grams", count_only=True),
    Target("core.profit", "repro.core.profit",
           "ProfitAnalyzer.profile_wallet"),
    Target("core.aggregation", "repro.core.aggregation",
           "CampaignAggregator.aggregate"),
    Target("ingest.checkpoint.append", "repro.ingest.checkpoint",
           "CheckpointStore.append_outcome", count_only=True),
    Target("ingest.checkpoint.commit", "repro.ingest.checkpoint",
           "CheckpointStore.commit_batch"),
    Target("ingest.checkpoint.snapshot", "repro.ingest.checkpoint",
           "CheckpointStore.write_snapshot"),
    Target("ingest.checkpoint.load", "repro.ingest.checkpoint",
           "CheckpointStore.load"),
    Target("ingest.aggregator.add_record", "repro.ingest.aggregator",
           "IncrementalAggregator.add_record"),
    Target("ingest.aggregator.campaigns", "repro.ingest.aggregator",
           "IncrementalAggregator.campaigns"),
    Target("scale.columnar.append", "repro.scale.columnar",
           "RecordStore.append_segment"),
    Target("scale.columnar.read", "repro.scale.columnar",
           "SegmentReader.record"),
    Target("scale.shards.aggregate", "repro.scale.shards",
           "ShardedCampaignAggregator.aggregate_source"),
    Target("serve.index.build", "repro.serve.index", "build_index"),
    Target("serve.snapshot.rebuild", "repro.serve.snapshot",
           "CheckpointIndexSource.build"),
    Target("serve.app.handle", "repro.serve.app", "IntelService.handle"),
    Target("serve.index.lookup", "repro.serve.index",
           "IntelIndex.hash_intel"),
    Target("serve.index.lookup", "repro.serve.index",
           "IntelIndex.wallet_intel"),
    Target("serve.index.lookup", "repro.serve.index",
           "IntelIndex.domain_intel"),
    Target("serve.index.lookup", "repro.serve.index",
           "IntelIndex.campaign_intel"),
    Target("serve.index.scan", "repro.serve.index", "IntelIndex.scan_text"),
)


class Tracer:
    """In-memory span recorder over rebound layer entry points."""

    def __init__(self, run_id: str = "",
                 targets: Tuple[Target, ...] = TARGETS) -> None:
        self.run_id = run_id
        self.targets = targets
        self.pid = os.getpid()
        #: [layer, start, end (None while open), parent id, thread id]
        self._spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._bindings: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, layer: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            span_id = len(self._spans)
            self._spans.append([layer, time.perf_counter(), None, parent,
                                threading.get_ident()])
        stack.append(span_id)
        return span_id

    def _exit(self, span_id: int) -> None:
        self._spans[span_id][2] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the named counter."""
        with self._lock:
            self.counts[name] += amount

    def _record_outcome(self, target: Target, args, result) -> None:
        if target.outcome is not None:
            for suffix, amount in target.outcome(args, result).items():
                self.count(f"{target.layer}.{suffix}", amount)

    def _wrap(self, target: Target, original: Callable) -> Callable:
        if target.count_only:
            def wrapper(*args, **kwargs):
                self.count(f"{target.layer}.calls")
                result = original(*args, **kwargs)
                self._record_outcome(target, args, result)
                return result
        elif inspect.iscoroutinefunction(original):
            async def wrapper(*args, **kwargs):
                span_id = self._enter(target.layer)
                try:
                    result = await original(*args, **kwargs)
                finally:
                    self._exit(span_id)
                self._record_outcome(target, args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                span_id = self._enter(target.layer)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._exit(span_id)
                self._record_outcome(target, args, result)
                return result
        return functools.wraps(original)(wrapper)

    # -- installation ------------------------------------------------------

    def _bind(self, owner: Any, name: str, value: Any) -> None:
        self._bindings.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> "Tracer":
        """Rebind every target; returns self."""
        for target in self.targets:
            module = importlib.import_module(target.module)
            *path, attr = target.qualname.split(".")
            owner = module
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(target, original)
            self._bind(owner, attr, wrapper)
            if owner is not module:
                continue
            # `from module import attr` copies made before install
            for other in list(sys.modules.values()):
                namespace = getattr(other, "__dict__", None)
                if other is module or not isinstance(namespace, dict):
                    continue
                for name, value in list(namespace.items()):
                    if value is original:
                        self._bind(other, name, wrapper)
        return self

    def uninstall(self) -> None:
        """Restore every rebound name, newest first."""
        while self._bindings:
            owner, name, original = self._bindings.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *_exc) -> None:
        self.uninstall()

    # -- output ------------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """Closed spans and counters as the JSON-line dicts of a dump."""
        out: List[Dict[str, Any]] = []
        for span_id, (layer, start, end, parent, thread) in enumerate(
                list(self._spans)):
            if end is None:
                continue  # still open (dumped from a signal handler)
            out.append({"id": span_id, "name": layer, "start": start,
                        "end": end, "parent": parent, "pid": self.pid,
                        "thread": thread, "run": self.run_id})
        for name, value in sorted(self.counts.items()):
            out.append({"count": name, "value": value, "pid": self.pid,
                        "run": self.run_id})
        return out

    def dump(self, path) -> None:
        """Write every record as one JSON line to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records():
                fh.write(json.dumps(record) + "\n")


def load(path) -> List[Dict[str, Any]]:
    """Read back the records of one or more concatenated dumps."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summarize(records: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per-layer ``calls``, ``total_s``, ``self_s``, span ``durations``
    and outcome counts (``<suffix>`` keys) over span and count records."""
    spans = [r for r in records if "name" in r]
    child_time: Dict[Tuple, float] = defaultdict(float)
    for span in spans:
        if span["parent"] >= 0:
            key = (span["pid"], span["run"], span["parent"])
            child_time[key] += span["end"] - span["start"]
    layers: Dict[str, Dict[str, Any]] = {}

    def layer(name: str) -> Dict[str, Any]:
        return layers.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "durations": []})

    for span in spans:
        entry = layer(span["name"])
        duration = span["end"] - span["start"]
        own = child_time.get((span["pid"], span["run"], span["id"]), 0.0)
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += max(0.0, duration - own)
        entry["durations"].append(duration)
    for record in records:
        if "count" in record:
            name, _, suffix = record["count"].rpartition(".")
            entry = layer(name)
            entry[suffix] = entry.get(suffix, 0) + record["value"]
    return layers


def layer_value(name: str, layers: Dict[str, Dict[str, Any]]) -> float:
    """One per-layer metric by naming convention, 0 for an idle layer.

    ``<layer>.calls`` / ``<layer>.self_s``; ``<layer>_s`` is total
    time; ``<layer>.<x>_ratio`` is the ``<x>`` outcome count per call;
    ``<layer>_us.pNN`` / ``<layer>_ms.pNN`` is a span-duration
    percentile; ``<layer>.mib`` is the ``bytes`` outcome in MiB; any
    other ``<layer>.<x>`` is the ``<x>`` outcome count.
    """
    from repro.serve.metrics import percentile

    base, _, suffix = name.rpartition(".")
    if suffix == "calls":
        return layers.get(base, {}).get("calls", 0)
    if suffix == "self_s":
        return layers.get(base, {}).get("self_s", 0.0)
    if suffix == "mib":
        return layers.get(base, {}).get("bytes", 0) / 2 ** 20
    if suffix.endswith("_ratio"):
        entry = layers.get(base, {})
        calls = entry.get("calls", 0)
        return (entry.get(suffix[:-len("_ratio")], 0) / calls
                if calls else 0.0)
    for unit, scale in (("_us", 1e6), ("_ms", 1e3)):
        if base.endswith(unit) and suffix.startswith("p"):
            durations = layers.get(base[:-len(unit)], {}).get(
                "durations", [])
            return percentile(sorted(durations), float(suffix[1:])) * scale
    if suffix.endswith("_s"):
        return layers.get(f"{base}.{suffix[:-2]}", {}).get("total_s", 0.0)
    return layers.get(base, {}).get(suffix, 0)


def _print_summary(path: str) -> None:
    layers = summarize(load(path))
    total = sum(entry["self_s"] for entry in layers.values()) or 1.0
    print(f"{'layer':<32} {'calls':>9} {'total_s':>9} {'self_s':>9} "
          f"{'self%':>6}")
    for name, entry in sorted(layers.items(),
                              key=lambda kv: -kv[1]["self_s"]):
        extra = " ".join(f"{key}={value:g}" for key, value in
                         sorted(entry.items()) if key not in
                         ("calls", "total_s", "self_s", "durations"))
        print(f"{name:<32} {entry['calls']:>9} {entry['total_s']:>9.3f} "
              f"{entry['self_s']:>9.3f} {entry['self_s'] / total:>6.1%}"
              + (f"  {extra}" if extra else ""))


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "summarize":
        sys.exit("usage: trace.py summarize SPANS.jsonl")
    _print_summary(sys.argv[2])
