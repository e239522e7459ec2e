"""Append-only columnar store for extracted sample records.

The batch pipeline keeps every :class:`~repro.core.records.MinerRecord`
as a live Python object (~10 KB each with dict overhead); at a million
samples that alone is tens of gigabytes.  This module packs records
into immutable *segments* — single files with fixed-width numeric
columns, a deduplicating string pool, and prefix-offset list columns —
that an mmap-backed reader decodes row-at-a-time.  Reporting and the
sharded aggregator stream rows out of segments instead of holding the
record set.

Segment layout (all integers little-endian)::

    magic "RCOL0001" | u32 header_len | JSON header | payload blocks

The JSON header is a table of contents: per-column byte ranges into the
payload, plus the string-pool ranges.  Columns come in five kinds:

* ``sha``    — 32-byte raw SHA-256 per row (fixed width);
* numeric    — ``u8``/``u16``/``i16``/``u32``/``f64`` arrays, one slot
  per row, with documented ``None`` sentinels;
* ``pooled`` — u32 string-pool ids, ``0`` meaning ``None``;
* ``list``   — u32 prefix offsets (``nrows + 1`` entries) plus a flat
  u32 pool-id value array (``0`` meaning ``None`` within the list);
* ``flags``  — u8 bitfield packing the three booleans.

Writers follow the crash-safe discipline of
:mod:`repro.ingest.checkpoint`: payload bytes land in a temporary file,
are flushed and fsynced, and only then renamed onto the final path, so
a segment either exists completely or not at all.
"""

import array
import datetime
import json
import mmap
import os
import struct
import sys
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.core.records import MinerRecord

__all__ = ["RecordStore", "SegmentReader", "write_segment"]

_MAGIC = b"RCOL0001"
_VERSION = 1

#: flag bits packed into the ``flags`` column.
_FLAG_OBFUSCATED = 0x01
_FLAG_USED_DYNAMIC = 0x02
_FLAG_USED_STATIC = 0x04

#: Optional[str] scalars stored as string-pool ids (0 = None).
_POOLED_SCALARS = ("pool", "url_pool", "user", "password", "agent",
                   "dst_ip", "source", "packer", "type")

#: List[str] / List[Optional[str]] fields stored as offset+value arrays.
_LIST_COLUMNS = ("identifiers", "identifier_coins", "parents", "dropped",
                 "cname_aliases", "proxy_ips", "dns_rr", "itw_urls")

# The reader casts mmap slices through memoryview typecodes, which use
# the platform's native layout; the store targets the usual 4-byte,
# little-endian ABI and refuses to import elsewhere rather than corrupt.
if array.array("I").itemsize != 4 or sys.byteorder != "little":
    raise ImportError("repro.scale.columnar requires a little-endian "
                      "platform with 4-byte unsigned ints")


class _StringPool:
    """Deduplicating interner; id 0 is reserved for ``None``."""

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._values: List[str] = []

    def intern(self, value: Optional[str]) -> int:
        if value is None:
            return 0
        vid = self._ids.get(value)
        if vid is None:
            vid = len(self._values) + 1
            self._ids[value] = vid
            self._values.append(value)
        return vid

    def encode(self) -> "tuple[bytes, bytes]":
        """(offsets bytes, utf-8 blob) for the interned values."""
        offsets = array.array("I", [0])
        chunks: List[bytes] = []
        total = 0
        for value in self._values:
            raw = value.encode("utf-8")
            chunks.append(raw)
            total += len(raw)
            offsets.append(total)
        return offsets.tobytes(), b"".join(chunks)

    def __len__(self) -> int:
        return len(self._values)


def _u32(values: Iterable[int]) -> bytes:
    return array.array("I", values).tobytes()


def _sha_bytes(sha256: str) -> bytes:
    raw = bytes.fromhex(sha256)
    if len(raw) != 32:
        raise ValueError(f"sha256 must be 64 hex chars, got {sha256!r}")
    return raw


def write_segment(records: Sequence[MinerRecord], path: Path) -> Path:
    """Pack ``records`` into one immutable segment file at ``path``.

    The write is atomic and durable: bytes go to ``<path>.tmp`` first
    and are fsynced before the rename, so readers never observe a torn
    segment, and the directory is fsynced after it, so a segment that
    ingestion commits a batch against cannot vanish in a crash.  A
    failed write (e.g. ``ENOSPC``) removes its ``.tmp`` file and
    re-raises.
    """
    path = Path(path)
    pool = _StringPool()
    nrows = len(records)

    sha_blob = b"".join(_sha_bytes(r.sha256) for r in records)
    first_seen = _u32(0 if r.first_seen is None else r.first_seen.toordinal()
                      for r in records)
    positives = array.array("H", (r.positives for r in records)).tobytes()
    dst_port = array.array("H", (0 if r.dst_port is None else r.dst_port
                                 for r in records)).tobytes()
    nthreads = array.array("h", (-1 if r.nthreads is None else r.nthreads
                                 for r in records)).tobytes()
    entropy = array.array("d", (r.entropy for r in records)).tobytes()
    flags = bytes(
        (_FLAG_OBFUSCATED if r.obfuscated else 0)
        | (_FLAG_USED_DYNAMIC if r.used_dynamic else 0)
        | (_FLAG_USED_STATIC if r.used_static else 0)
        for r in records)

    pooled: Dict[str, bytes] = {}
    for name in _POOLED_SCALARS:
        pooled[name] = _u32(pool.intern(getattr(r, name)) for r in records)

    lists: Dict[str, "tuple[bytes, bytes]"] = {}
    for name in _LIST_COLUMNS:
        offsets = array.array("I", [0])
        values = array.array("I")
        total = 0
        for r in records:
            items = getattr(r, name)
            for item in items:
                values.append(pool.intern(item))
            total += len(items)
            offsets.append(total)
        lists[name] = (offsets.tobytes(), values.tobytes())

    pool_offsets, pool_blob = pool.encode()

    # Assemble the payload and its table of contents.
    toc: List[dict] = []
    blocks: List[bytes] = []
    cursor = 0

    def block(name: str, kind: str, data: bytes) -> None:
        nonlocal cursor
        toc.append({"name": name, "kind": kind,
                    "offset": cursor, "length": len(data)})
        blocks.append(data)
        cursor += len(data)

    block("sha256", "sha", sha_blob)
    block("first_seen", "u32", first_seen)
    block("positives", "u16", positives)
    block("dst_port", "u16", dst_port)
    block("nthreads", "i16", nthreads)
    block("entropy", "f64", entropy)
    block("flags", "u8", flags)
    for name in _POOLED_SCALARS:
        block(name, "pooled", pooled[name])
    for name in _LIST_COLUMNS:
        offsets_bytes, values_bytes = lists[name]
        block(name + ".offsets", "list_offsets", offsets_bytes)
        block(name + ".values", "list_values", values_bytes)
    block("pool.offsets", "pool_offsets", pool_offsets)
    block("pool.blob", "pool_blob", pool_blob)

    header = json.dumps({
        "version": _VERSION,
        "nrows": nrows,
        "pool_count": len(pool),
        "columns": toc,
    }, separators=(",", ":")).encode("utf-8")

    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(_MAGIC)
            handle.write(struct.pack("<I", len(header)))
            handle.write(header)
            for data in blocks:
                handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    return path


class SegmentReader:
    """Zero-copy reader over one segment file.

    The file is mmapped; numeric columns are exposed as memoryview
    casts directly over the map, and :meth:`record` materialises one
    :class:`MinerRecord` at a time — memory stays O(row), not O(file).
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        with open(self.path, "rb") as handle:
            self._mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        if self._mm[:8] != _MAGIC:
            raise ValueError(f"{self.path}: not a RCOL segment")
        (header_len,) = struct.unpack("<I", self._mm[8:12])
        header = json.loads(self._mm[12:12 + header_len].decode("utf-8"))
        if header["version"] != _VERSION:
            raise ValueError(f"{self.path}: unsupported version "
                             f"{header['version']}")
        self.nrows: int = header["nrows"]
        base = 12 + header_len
        self._view = memoryview(self._mm)
        self._cols: Dict[str, "tuple[int, int, str]"] = {}
        for col in header["columns"]:
            self._cols[col["name"]] = (base + col["offset"],
                                       col["length"], col["kind"])
        self._pool_offsets = self._cast("pool.offsets", "I")
        off, length, _ = self._cols["pool.blob"]
        self._pool_blob = self._view[off:off + length]
        self._sha_off = self._cols["sha256"][0]
        self._first_seen = self._cast("first_seen", "I")
        self._positives = self._cast("positives", "H")
        self._dst_port = self._cast("dst_port", "H")
        self._nthreads = self._cast("nthreads", "h")
        self._entropy = self._cast("entropy", "d")
        self._flags = self._cast("flags", "B")
        self._pooled = {name: self._cast(name, "I")
                        for name in _POOLED_SCALARS}
        self._lists = {name: (self._cast(name + ".offsets", "I"),
                              self._cast(name + ".values", "I"))
                       for name in _LIST_COLUMNS}

    def _cast(self, name: str, typecode: str) -> memoryview:
        offset, length, _kind = self._cols[name]
        return self._view[offset:offset + length].cast(typecode)

    # -- row access --------------------------------------------------------

    def __len__(self) -> int:
        return self.nrows

    def sha(self, i: int) -> str:
        """Row ``i``'s sha256 as lowercase hex."""
        off = self._sha_off + 32 * i
        return bytes(self._view[off:off + 32]).hex()

    def shas(self) -> Iterator[str]:
        """Every row's sha256, in row order."""
        return (self.sha(i) for i in range(self.nrows))

    def _pool_value(self, vid: int) -> Optional[str]:
        if vid == 0:
            return None
        lo, hi = self._pool_offsets[vid - 1], self._pool_offsets[vid]
        return bytes(self._pool_blob[lo:hi]).decode("utf-8")

    def _list_value(self, name: str, i: int) -> List[Optional[str]]:
        offsets, values = self._lists[name]
        return [self._pool_value(values[j])
                for j in range(offsets[i], offsets[i + 1])]

    def record(self, i: int) -> MinerRecord:
        """Materialise row ``i`` as a full :class:`MinerRecord`."""
        if not 0 <= i < self.nrows:
            raise IndexError(i)
        ordinal = self._first_seen[i]
        flags = self._flags[i]
        scalar = {name: self._pool_value(self._pooled[name][i])
                  for name in _POOLED_SCALARS}
        return MinerRecord(
            sha256=self.sha(i),
            pool=scalar["pool"],
            url_pool=scalar["url_pool"],
            user=scalar["user"],
            password=scalar["password"],
            nthreads=None if self._nthreads[i] < 0 else self._nthreads[i],
            agent=scalar["agent"],
            dst_ip=scalar["dst_ip"],
            dst_port=self._dst_port[i] or None,
            dns_rr=self._list_value("dns_rr", i),
            source=scalar["source"] or "",
            first_seen=(None if ordinal == 0
                        else datetime.date.fromordinal(ordinal)),
            itw_urls=self._list_value("itw_urls", i),
            packer=scalar["packer"],
            positives=self._positives[i],
            type=scalar["type"] or "Miner",
            identifiers=self._list_value("identifiers", i),
            identifier_coins=self._list_value("identifier_coins", i),
            parents=self._list_value("parents", i),
            dropped=self._list_value("dropped", i),
            cname_aliases=self._list_value("cname_aliases", i),
            proxy_ips=self._list_value("proxy_ips", i),
            entropy=self._entropy[i],
            obfuscated=bool(flags & _FLAG_OBFUSCATED),
            used_dynamic=bool(flags & _FLAG_USED_DYNAMIC),
            used_static=bool(flags & _FLAG_USED_STATIC),
        )

    def identifiers_of(self, i: int) -> List[str]:
        """Row ``i``'s identifiers without materialising the record."""
        return [v for v in self._list_value("identifiers", i)
                if v is not None]

    def iter_records(self) -> Iterator[MinerRecord]:
        """All rows, in order, one live record at a time."""
        return (self.record(i) for i in range(self.nrows))

    def close(self) -> None:
        """Release the mmap (reads after this raise)."""
        # memoryview exports pin the mmap; drop them first.
        self._pooled.clear()
        self._lists.clear()
        for attr in ("_pool_offsets", "_pool_blob", "_first_seen",
                     "_positives", "_dst_port", "_nthreads", "_entropy",
                     "_flags", "_view"):
            if hasattr(self, attr):
                delattr(self, attr)
        self._mm.close()

    def __enter__(self) -> "SegmentReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RecordStore:
    """Directory of append-only segments, discovered by sorted name.

    Segment names sort lexicographically, so iteration order over the
    store equals append order when callers use the default numbered
    names (or any zero-padded scheme, e.g. ingest batch ids).
    """

    GLOB = "seg-*.rcol"

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def segment_paths(self) -> List[Path]:
        """Existing segment files, sorted by name."""
        return sorted(self.root.glob(self.GLOB))

    def segment_path(self, name: str) -> Path:
        """The file path a segment named ``name`` lives at."""
        return self.root / f"seg-{name}.rcol"

    @property
    def num_segments(self) -> int:
        return len(self.segment_paths())

    def append_segment(self, records: Sequence[MinerRecord],
                       name: Optional[str] = None) -> Path:
        """Write ``records`` as a new segment; returns its path.

        ``name`` defaults to a zero-padded sequence number.  Appending
        under an existing name is refused — segments are immutable.
        """
        if name is None:
            name = f"{self.num_segments:06d}"
        path = self.segment_path(name)
        if path.exists():
            raise FileExistsError(f"segment already exists: {path}")
        return write_segment(records, path)

    def has_segment(self, name: str) -> bool:
        """Whether a segment named ``name`` is already on disk."""
        return self.segment_path(name).exists()

    def __len__(self) -> int:
        """Total rows across all segments (headers only — cheap)."""
        total = 0
        for path in self.segment_paths():
            with SegmentReader(path) as reader:
                total += len(reader)
        return total

    def readers(self) -> Iterator[SegmentReader]:
        """A fresh reader per segment, in name order (caller closes)."""
        return (SegmentReader(path) for path in self.segment_paths())

    def iter_records(self) -> Iterator[MinerRecord]:
        """Every record in every segment, in segment/row order."""
        for path in self.segment_paths():
            with SegmentReader(path) as reader:
                for record in reader.iter_records():
                    yield record
