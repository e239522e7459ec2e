"""Durable checkpoints: append-only journal + compacted snapshots.

Write path (per batch)::

    outcome lines ... -> commit line -> flush -> fsync
                                     \\-> every N batches: snapshot

The journal (``journal.jsonl``) is the write-ahead source of truth: one
JSON object per line, either a per-sample ``outcome`` or a per-batch
``commit`` marker.  A batch is *committed* iff its commit line made it
to disk; everything after the last commit is an in-flight batch whose
journaled outcomes are reused on resume (already-analysed hashes are
not re-analysed) but whose window is reprocessed.

Both files are written through the C JSON encoder
(:func:`repro.ingest.codec.encode`).  A snapshot streams its keys in
sorted order and each element of a list value on its own, so its bytes
are those of ``json.dumps(state, sort_keys=True)`` without the whole
state ever being one string; an element handed in already encoded
(:class:`~repro.ingest.codec.Encoded`) is copied as it is, which lets
the service encode a record once rather than at every compaction.

Snapshots (``snapshot.json``) are compactions, written to a temp file,
fsync'd, then atomically renamed over the previous one; the journal is
rotated afterwards (a write that fails removes its temp file and
leaves both in place).  A crash between the two leaves duplicate
journal entries for batches the snapshot already covers — the loader
drops entries below the snapshot cursor, so every crash point is safe:

* before the commit line: the batch replays from its journaled outcomes
* after commit, before snapshot: state rebuilds from snapshot + journal
* after snapshot, before rotation: stale journal entries are ignored
* mid-line: the torn tail is cut off before the next append, so later
  lines never glue onto it
"""

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Tuple

from repro.ingest.codec import (
    FORMAT_VERSION,
    READABLE_VERSIONS,
    Encoded,
    encode,
)

JOURNAL_NAME = "journal.jsonl"
SNAPSHOT_NAME = "snapshot.json"


@dataclass
class JournalReplay:
    """Everything a resume needs, as read back from one checkpoint dir."""

    snapshot: Optional[Dict[str, Any]] = None
    #: committed batches in commit order: (batch_id, outcome payloads)
    committed: List[Tuple[int, List[Dict[str, Any]]]] = \
        field(default_factory=list)
    #: journaled outcomes of the in-flight (uncommitted) batch, if any
    partial: Dict[int, List[Dict[str, Any]]] = field(default_factory=dict)
    #: per-batch metrics in commit order: (batch_id, metrics dict)
    commits: List[Tuple[int, Dict[str, Any]]] = field(default_factory=list)

    @property
    def cursor(self) -> int:
        """Index of the first batch that still needs processing."""
        start = 0
        if self.snapshot is not None:
            start = int(self.snapshot.get("cursor", 0))
        if self.committed:
            start = max(start, max(b for b, _ in self.committed) + 1)
        return start


class CheckpointStore:
    """One ingestion run's durable state under a checkpoint directory.

    ``fsync=False`` trades crash-safety for speed (tests, benchmarks);
    the write ordering and atomic renames are preserved either way.
    """

    def __init__(self, directory, fsync: bool = True) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.directory / JOURNAL_NAME
        self.snapshot_path = self.directory / SNAPSHOT_NAME
        self._fsync = fsync
        self._journal_fh = None
        #: journal size up to its last intact line, as :meth:`load` saw it
        self._intact_size: Optional[int] = None

    # -- write path --------------------------------------------------------

    def _journal(self):
        if self._journal_fh is None:
            fh = open(self.journal_path, "a", encoding="utf-8")
            if self._intact_size is not None and \
                    fh.tell() > self._intact_size:
                # a torn tail: the next line must not glue onto it
                fh.truncate(self._intact_size)
                if self._fsync:
                    os.fsync(fh.fileno())
            self._intact_size = None
            self._journal_fh = fh
        return self._journal_fh

    def append_outcome(self, batch_id: int, payload: Any) -> None:
        """Journal one per-sample outcome (buffered; synced at commit).

        ``payload`` is anything :func:`~repro.ingest.codec.encode`
        takes: a :class:`~repro.core.pipeline.SampleOutcome` or its
        decoded dict.
        """
        self._write_line({"type": "outcome", "batch": batch_id,
                          "data": payload})

    def commit_batch(self, batch_id: int, metrics: Any) -> None:
        """Write the batch's commit marker and force it to disk."""
        self._write_line({"type": "commit", "batch": batch_id,
                          "v": FORMAT_VERSION, "metrics": metrics})
        fh = self._journal()
        fh.flush()
        if self._fsync:
            os.fsync(fh.fileno())

    def _write_line(self, obj: Dict[str, Any]) -> None:
        self._journal().write(encode(obj) + "\n")

    def write_snapshot(self, state: Dict[str, Any]) -> None:
        """Atomically replace the snapshot, then rotate the journal.

        The snapshot hits disk (tmp file + fsync + rename + directory
        fsync) *before* the journal is truncated, so no crash point can
        lose a committed batch.  If the write fails, the temp file is
        removed and the previous snapshot and journal stay as they were.
        Elements of a list value may be :class:`Encoded` text, which is
        copied as it is.
        """
        state = dict(state)
        state["v"] = FORMAT_VERSION
        tmp = self.snapshot_path.with_suffix(".json.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                _write_state(fh, state)
                fh.flush()
                if self._fsync:
                    os.fsync(fh.fileno())
            os.replace(tmp, self.snapshot_path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self._sync_directory()
        self._rotate_journal()

    def _rotate_journal(self) -> None:
        if self._journal_fh is not None:
            self._journal_fh.close()
            self._journal_fh = None
        tmp = self.journal_path.with_suffix(".jsonl.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.flush()
                if self._fsync:
                    os.fsync(fh.fileno())
            os.replace(tmp, self.journal_path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self._sync_directory()

    def _sync_directory(self) -> None:
        if not self._fsync:
            return
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def close(self) -> None:
        """Flush and close the journal handle."""
        if self._journal_fh is not None:
            self._journal_fh.flush()
            if self._fsync:
                os.fsync(self._journal_fh.fileno())
            self._journal_fh.close()
            self._journal_fh = None

    # -- read path ---------------------------------------------------------

    def exists(self) -> bool:
        """Whether this directory holds any checkpoint state."""
        return self.snapshot_path.exists() or self.journal_path.exists()

    def stamp(self) -> Tuple[Tuple[str, int, int], ...]:
        """Cheap fingerprint of the on-disk checkpoint state.

        One ``(name, mtime_ns, size)`` triple per existing checkpoint
        file.  Snapshot watchers (:mod:`repro.serve`) poll this to
        detect both compactions *and* newly committed journal batches
        without parsing anything; any durable write changes the stamp.
        """
        parts: List[Tuple[str, int, int]] = []
        for path in (self.snapshot_path, self.journal_path):
            try:
                stat = path.stat()
            except FileNotFoundError:
                continue
            parts.append((path.name, stat.st_mtime_ns, stat.st_size))
        return tuple(parts)

    def load(self) -> JournalReplay:
        """Read back snapshot + journal, dropping stale/torn entries.

        Journal entries for batches the snapshot already covers are
        skipped (they survive a crash between snapshot and rotation);
        a torn final line — the classic power-cut artefact — ends the
        replay cleanly at the last intact record, and the next append
        first cuts the journal back to that record.
        """
        replay = JournalReplay()
        if self.snapshot_path.exists():
            with open(self.snapshot_path, encoding="utf-8") as fh:
                replay.snapshot = json.load(fh)
            version = replay.snapshot.get("v")
            if version not in READABLE_VERSIONS:
                raise ValueError(
                    f"snapshot format v{version} is not one of "
                    f"{sorted(READABLE_VERSIONS)}")
        floor = (int(replay.snapshot.get("cursor", 0))
                 if replay.snapshot is not None else 0)
        pending: Dict[int, List[Dict[str, Any]]] = {}
        intact = 0
        if self.journal_path.exists():
            with open(self.journal_path, "rb") as fh:
                for line in fh:
                    # a line is whole only with its newline, which is
                    # written in the same call as the rest of it
                    if not line.endswith(b"\n"):
                        break  # torn tail after a crash mid-write
                    try:
                        entry = json.loads(line)
                    except ValueError:
                        break  # torn tail after a crash mid-write
                    intact += len(line)
                    batch_id = int(entry.get("batch", -1))
                    if batch_id < floor:
                        continue  # compacted into the snapshot already
                    if entry.get("type") == "outcome":
                        pending.setdefault(batch_id, []).append(
                            entry["data"])
                    elif entry.get("type") == "commit":
                        replay.committed.append(
                            (batch_id, pending.pop(batch_id, [])))
                        replay.commits.append(
                            (batch_id, entry.get("metrics", {})))
        if self._journal_fh is None:  # an open journal is ours: intact
            self._intact_size = intact
        replay.partial = pending
        return replay


def _write_state(fh: IO[str], state: Dict[str, Any]) -> None:
    """``json.dump(state, fh, sort_keys=True)``, streamed: a list value
    is written one element at a time, an :class:`Encoded` one as it is."""
    fh.write("{")
    for position, key in enumerate(sorted(state)):
        fh.write(f"{', ' if position else ''}{encode(key)}: ")
        value = state[key]
        if isinstance(value, list):
            fh.write("[")
            for index, item in enumerate(value):
                if index:
                    fh.write(", ")
                fh.write(item if isinstance(item, Encoded)
                         else encode(item))
            fh.write("]")
        else:
            fh.write(encode(value))
    fh.write("}")
