"""Warm-path summary cache for the ``--changed`` fast lane.

The whole-program passes need *facts* for every module, but facts only
change when the file changes.  This cache pickles the per-module
:class:`~repro.lint.facts.ModuleSummary` objects keyed by a
``(mtime_ns, size)`` stamp so an incremental lint re-parses only the
files under focus; everything else feeds the call graph, schema,
concurrency and unit passes straight from the cache.

Only modules *outside* the reporting focus are ever served from the
cache — focus files are always re-parsed, which also keeps their
pragma indexes fresh.  A stamp mismatch, a version mismatch or any
unpickling failure falls back to a normal parse: the cache can only
make lint faster, never change its answer.
"""

import os
import pickle
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.lint.facts import ModuleSummary
from repro.lint.units import seed_fingerprint

#: bump whenever the fact schema or extraction semantics change —
#: a version mismatch silently invalidates the whole cache file.
#: 2: concurrency + resource-lifecycle fact kinds (FORK/ASYNC/THR/RES).
#: 3: unit/kind flow facts (UNIT/KIND) — extraction also filters its
#:    sink and key events through the seed tables, so the cache keys
#:    on their fingerprint too (see ``_cache_key``).
#: 4: the taint-flow, resource and fork-state facts are gone.
CACHE_VERSION = 4


def _cache_key() -> Tuple[int, str]:
    """What must match for a cache file to be trusted at all.

    The seed fingerprint covers every unit/kind table: editing a
    contract re-extracts the whole tree even though no source file's
    stamp moved.
    """
    return (CACHE_VERSION, seed_fingerprint())

#: (st_mtime_ns, st_size) — cheap staleness check, no content hash.
Stamp = Tuple[int, int]


def cache_stamp(path: Path) -> Optional[Stamp]:
    """The freshness stamp for ``path``, or None if unstattable."""
    try:
        status = path.stat()
    except OSError:
        return None
    return (status.st_mtime_ns, status.st_size)


class SummaryCache:
    """One pickle file of ``{relpath: (stamp, ModuleSummary)}``."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._entries: Dict[str, Tuple[Stamp, ModuleSummary]] = {}
        self._loaded = False
        self._dirty = False

    def _load(self) -> Dict[str, Tuple[Stamp, ModuleSummary]]:
        if self._loaded:
            return self._entries
        self._loaded = True
        try:
            with open(self.path, "rb") as handle:
                payload = pickle.load(handle)
            if isinstance(payload, dict) and \
                    payload.get("version") == _cache_key():
                self._entries = payload["modules"]
        except Exception:  # noqa: BLE001 - any corrupt cache is a miss
            self._entries = {}
        return self._entries

    def get(self, relpath: str,
            current: Optional[Stamp]) -> Optional[ModuleSummary]:
        """The cached summary for ``relpath`` iff its stamp matches."""
        if current is None:
            return None
        entry = self._load().get(relpath)
        if entry is None or entry[0] != current:
            return None
        return entry[1]

    def put(self, relpath: str, current: Optional[Stamp],
            summary: ModuleSummary) -> None:
        """Record a freshly-extracted summary under its stamp."""
        if current is None:
            return
        self._load()[relpath] = (current, summary)
        self._dirty = True

    def save(self) -> None:
        """Atomically persist the cache (tmp file + rename)."""
        if not self._dirty:
            return
        payload = {"version": _cache_key(), "modules": self._entries}
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                pickle.dump(payload, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self.path)
            self._dirty = False
        except OSError:  # read-only checkout: run uncached
            tmp.unlink(missing_ok=True)
