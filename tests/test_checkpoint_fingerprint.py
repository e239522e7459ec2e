"""One pinned fingerprint of the bytes an ingestion run writes.

The resume and equivalence suites decode checkpoints, so a change to
the write path that alters a byte but decodes to the same state leaves
them green, while every checkpoint already on disk and every reader
outside this package (``jq``, the serving layer's publishers) sees a
different file.  This test pins the files themselves.  For seed 2019
at the smoke scale (0.004) with 30-day batches it hashes, in order:

* the journal as it stands before each compaction;
* the snapshot each compaction writes;
* the final snapshot.

The service's clock is stubbed so every ``BatchMetrics.wall_s`` is 0.
A change to the checkpoint layout must bump ``FORMAT_VERSION`` and
re-pin the constant; a speed-up of the write path must leave it as it
is.
"""

import hashlib
import types

import repro.ingest.service as service_module
from repro.corpus.generator import generate_world
from repro.corpus.model import ScenarioConfig
from repro.ingest import IngestionService

#: SHA-256 of the journal and snapshot bytes described above.
CHECKPOINT_FINGERPRINT = (
    "c75d0a9b504ebbcf89cec1ca185094291502a51d4ca4f0bcd5751c6a40da4b60")


def checkpoint_fingerprint(tmp_path, monkeypatch) -> str:
    """SHA-256 over every pre-compaction journal and every snapshot."""
    monkeypatch.setattr(service_module, "time",
                        types.SimpleNamespace(perf_counter=lambda: 0.0))
    digest = hashlib.sha256()

    def put(name: str, path) -> None:
        data = path.read_bytes()
        digest.update(f"{name} {len(data)}\n".encode())
        digest.update(data)

    def hook(point: str, batch_id: int) -> None:
        if point == "pre-snapshot":
            put(f"journal@{batch_id}", service.store.journal_path)
        elif point == "post-snapshot":
            put(f"snapshot@{batch_id}", service.store.snapshot_path)

    world = generate_world(ScenarioConfig(seed=2019, scale=0.004))
    service = IngestionService(world, tmp_path / "ck", batch_days=30,
                               fsync=False, fault_hook=hook)
    service.run()
    put("final", service.store.snapshot_path)
    return digest.hexdigest()


def test_smoke_checkpoint_fingerprint_is_pinned(tmp_path, monkeypatch):
    assert checkpoint_fingerprint(tmp_path, monkeypatch) == \
        CHECKPOINT_FINGERPRINT
