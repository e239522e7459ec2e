"""One pinned fingerprint of the bytes an ingestion run writes.

The resume and equivalence suites decode checkpoints, so a change to
the write path that alters a byte but decodes to the same state leaves
them green, while every checkpoint already on disk and every reader
outside this package (``jq``, the serving layer's publishers) sees a
different file.  This test pins the files themselves.  For seed 2019
at the smoke scale (0.004) with 30-day batches it hashes, in order:

* the journal as it stands before each compaction;
* the snapshot each compaction writes;
* the final snapshot, with its stock-tool fact table.

That world has no positive stock-tool fact, so its table is empty.
Seed 7 at the same scale has four, and its final snapshot is pinned
on its own.

The service's clock is stubbed so every ``BatchMetrics.wall_s`` is 0.
A change to the checkpoint layout must bump ``FORMAT_VERSION`` and
re-pin the constant; a speed-up of the write path must leave it as it
is.

The run is made twice: with real enrichment, and with
``CampaignEnricher.enrich`` replaced by a no-op.  Both must give the
same constant: a checkpoint is a function of the corpus alone.
Per-sample facts, such as a sha's stock-tool attribution, are
functions of the corpus too and may be persisted (the final snapshot
keeps them); campaign annotations (paper §III-E) may not reach the
journal or a snapshot.
"""

import hashlib
import json
import types

import pytest

import repro.ingest.service as service_module
from repro.core.enrichment import CampaignEnricher
from repro.corpus.generator import generate_world
from repro.corpus.model import ScenarioConfig
from repro.ingest import IngestionService
from repro.ingest.checkpoint import JOURNAL_NAME, SNAPSHOT_NAME

#: SHA-256 of the journal and snapshot bytes described above.
CHECKPOINT_FINGERPRINT = (
    "3452be9eb49783fbd011825a82a49badce9f4ef902992295917020b447028849")

#: SHA-256 of seed 7's final snapshot, four positive facts included.
FACTS_SNAPSHOT_FINGERPRINT = (
    "4e9cbecb7a8006269435871997d3ea620935f0f6c016ab6fa9d1f25e536b5536")


def ingest(tmp_path, monkeypatch, seed: int, hook=None) -> IngestionService:
    """One 30-day-batch run at the smoke scale with ``wall_s`` = 0."""
    monkeypatch.setattr(service_module, "time",
                        types.SimpleNamespace(perf_counter=lambda: 0.0))
    world = generate_world(ScenarioConfig(seed=seed, scale=0.004))
    service = IngestionService(world, tmp_path / "ck", batch_days=30,
                               fsync=False, fault_hook=hook)
    service.run()
    return service


def checkpoint_fingerprint(tmp_path, monkeypatch) -> str:
    """SHA-256 over every pre-compaction journal and every snapshot."""
    digest = hashlib.sha256()
    checkpoint = tmp_path / "ck"

    def put(name: str, path) -> None:
        data = path.read_bytes()
        digest.update(f"{name} {len(data)}\n".encode())
        digest.update(data)

    def hook(point: str, batch_id: int) -> None:
        if point == "pre-snapshot":
            put(f"journal@{batch_id}", checkpoint / JOURNAL_NAME)
        elif point == "post-snapshot":
            put(f"snapshot@{batch_id}", checkpoint / SNAPSHOT_NAME)

    service = ingest(tmp_path, monkeypatch, 2019, hook)
    put("final", service.store.snapshot_path)
    return digest.hexdigest()


@pytest.mark.parametrize("enrichment", ["real", "noop"])
def test_smoke_checkpoint_fingerprint_is_pinned(tmp_path, monkeypatch,
                                                enrichment):
    if enrichment == "noop":
        monkeypatch.setattr(CampaignEnricher, "enrich",
                            lambda self, campaign, profiles=None: None)
    assert checkpoint_fingerprint(tmp_path, monkeypatch) == \
        CHECKPOINT_FINGERPRINT


@pytest.mark.parametrize("enrichment", ["real", "noop"])
def test_final_snapshot_with_stock_tool_facts_is_pinned(
        tmp_path, monkeypatch, enrichment):
    if enrichment == "noop":
        monkeypatch.setattr(CampaignEnricher, "enrich",
                            lambda self, campaign, profiles=None: None)
    data = ingest(tmp_path, monkeypatch, 7).store.snapshot_path.read_bytes()
    assert len(json.loads(data)["stock_tool_facts"]) == 4
    assert hashlib.sha256(data).hexdigest() == FACTS_SNAPSHOT_FINGERPRINT
