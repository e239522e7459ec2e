"""Stock-tool attribution as a per-sample fact, kept by the checkpoint.

A sha's stock-tool attribution (exact catalog hash, or CTPH within 0.1
of a catalog build, paper §III-E) depends on that sha alone.  Every
driver computes it once per candidate sha before enrichment, and the
finalized ingestion snapshot keeps the table, so a cold resume of a
finished checkpoint runs no CTPH at all.  Seed 2019 at scale 0.004 has
no positive fact; seed 7 has four, so both sides of the table are used.
"""

import json
import shutil
import types

import pytest

import repro.fuzzyhash.ctph as ctph_module
import repro.perf.cache as cache_module
from repro.core.enrichment import add_stock_tool_facts
from repro.core.pipeline import MeasurementPipeline
from repro.corpus.generator import generate_world
from repro.corpus.model import ScenarioConfig
from repro.ingest import IngestionService
from repro.ingest.checkpoint import SNAPSHOT_NAME
from repro.ingest.service import diff_measurements
from repro.osint.stock_tools import StockToolCatalog
from repro.perf.cache import cache_stats, clear_caches
from repro.serve.snapshot import measurement_from_checkpoint

FACTS_KEY = "stock_tool_facts"


@pytest.fixture(scope="module", params=[2019, 7])
def finished(request, tmp_path_factory):
    """A world, its batch result and its finished 30-day checkpoint;
    ``mid_run`` holds every periodic snapshot as written."""
    world = generate_world(ScenarioConfig(seed=request.param, scale=0.004))
    batch = MeasurementPipeline(world).run()
    checkpoint = tmp_path_factory.mktemp("ck") / "ck"
    mid_run = []

    def hook(point, _batch_id):
        if point == "post-snapshot":
            mid_run.append(json.loads(
                (checkpoint / SNAPSHOT_NAME).read_text(encoding="utf-8")))

    IngestionService(world, checkpoint, batch_days=30, fsync=False,
                     fault_hook=hook).run()
    return types.SimpleNamespace(world=world, batch=batch,
                                 checkpoint=checkpoint, mid_run=mid_run,
                                 seed=request.param)


@pytest.fixture
def spy(monkeypatch):
    """Counts CTPH computations (one per input, batched or not) and
    catalog matches."""
    calls = {"compute": 0, "match": 0}
    real_compute, real_match = ctph_module.compute, StockToolCatalog.match
    real_many = ctph_module.compute_many

    def compute(data):
        calls["compute"] += 1
        return real_compute(data)

    def compute_many(datas):
        datas = list(datas)
        calls["compute"] += len(datas)
        return real_many(datas)

    def match(self, *args, **kwargs):
        calls["match"] += 1
        return real_match(self, *args, **kwargs)

    monkeypatch.setattr(ctph_module, "compute", compute)
    monkeypatch.setattr(cache_module, "compute", compute)
    monkeypatch.setattr(cache_module, "compute_many", compute_many)
    monkeypatch.setattr(StockToolCatalog, "match", match)
    return calls


def positive_facts(world, records):
    facts = add_stock_tool_facts({}, records, world.stock_catalog,
                                 world.sample_by_hash)
    return {sha: list(fact) for sha, fact in facts.items()
            if fact is not None}


def cold_resume(world, checkpoint):
    clear_caches()
    service = IngestionService(world, checkpoint, batch_days=30,
                               resume=True, fsync=False)
    service.restore_state()
    return service.current_result()


def snapshot_of(checkpoint):
    return json.loads((checkpoint / SNAPSHOT_NAME).read_text(
        encoding="utf-8"))


def test_final_snapshot_keeps_the_positive_facts(finished):
    snapshot = snapshot_of(finished.checkpoint)
    assert snapshot["v"] == 2 and snapshot["finalized"]
    expected = positive_facts(finished.world, finished.batch.records)
    assert snapshot[FACTS_KEY] == expected
    assert len(expected) == {2019: 0, 7: 4}[finished.seed]
    tools = [c for c in finished.batch.campaigns if c.stock_tools]
    assert bool(tools) == bool(expected)


def test_mid_run_snapshots_carry_no_facts(finished):
    assert finished.mid_run
    assert all(FACTS_KEY not in snapshot and not snapshot["finalized"]
               for snapshot in finished.mid_run)
    assert FACTS_KEY in snapshot_of(finished.checkpoint)


def test_cold_resume_runs_no_ctph(finished, spy):
    resumed = cold_resume(finished.world, finished.checkpoint)
    assert spy == {"compute": 0, "match": 0}
    assert diff_measurements(finished.batch, resumed) == []


@pytest.mark.parametrize("layout", ["no-facts-key", "v1"])
def test_resume_without_facts_computes_them(finished, spy, tmp_path,
                                            layout):
    checkpoint = tmp_path / "ck"
    shutil.copytree(finished.checkpoint, checkpoint)
    snapshot = snapshot_of(checkpoint)
    del snapshot[FACTS_KEY]
    if layout == "v1":
        snapshot["v"] = 1
    (checkpoint / SNAPSHOT_NAME).write_text(
        json.dumps(snapshot, sort_keys=True), encoding="utf-8")
    resumed = cold_resume(finished.world, checkpoint)
    assert spy["match"] > 0
    assert diff_measurements(finished.batch, resumed) == []


def test_cold_batch_pass_memo_counts():
    """One cold batch pass at seed 2019, scale 0.004 looks each catalog
    build and each in-range candidate body up in the ``ctph`` memo
    once: 332 builds and 170 bodies, all misses."""
    world = generate_world(ScenarioConfig(seed=2019, scale=0.004))
    clear_caches()
    MeasurementPipeline(world).run()
    stats = cache_stats()["ctph"]
    assert (stats["hits"], stats["misses"]) == (0, 502)
    assert len(world.stock_catalog) == 332


def test_second_derivation_hashes_nothing(finished, spy, tmp_path):
    """A checkpoint without facts, derived twice in one process as the
    server does on each publish: the second derivation finds every body
    in the ``ctph`` memo and hashes nothing."""
    checkpoint = tmp_path / "ck"
    shutil.copytree(finished.checkpoint, checkpoint)
    snapshot = snapshot_of(checkpoint)
    del snapshot[FACTS_KEY]
    (checkpoint / SNAPSHOT_NAME).write_text(
        json.dumps(snapshot, sort_keys=True), encoding="utf-8")
    clear_caches()
    first = measurement_from_checkpoint(finished.world, checkpoint)
    assert spy["compute"] > 0
    misses = cache_stats()["ctph"]["misses"]
    spy["compute"] = 0
    second = measurement_from_checkpoint(finished.world, checkpoint)
    stats = cache_stats()["ctph"]
    assert spy["compute"] == 0
    assert stats["misses"] == misses and stats["hits"] > 0
    assert diff_measurements(first, second) == []
    assert diff_measurements(finished.batch, second) == []


@pytest.mark.parametrize("layout", ["v2", "v1"])
def test_resume_then_finalize_rewrites_the_final_snapshot(finished, spy,
                                                          tmp_path, layout):
    """A finished v2 checkpoint finalizes again to the same bytes with
    no CTPH; a v1 one computes its facts and becomes those bytes."""
    expected = (finished.checkpoint / SNAPSHOT_NAME).read_bytes()
    checkpoint = tmp_path / "ck"
    shutil.copytree(finished.checkpoint, checkpoint)
    if layout == "v1":
        snapshot = snapshot_of(checkpoint)
        del snapshot[FACTS_KEY]
        snapshot["v"] = 1
        (checkpoint / SNAPSHOT_NAME).write_text(
            json.dumps(snapshot, sort_keys=True), encoding="utf-8")
    run = IngestionService(finished.world, checkpoint, batch_days=30,
                           resume=True, fsync=False).run()
    assert run.batches and run.resumed_from == run.total_batches
    assert (checkpoint / SNAPSHOT_NAME).read_bytes() == expected
    assert (spy["match"] == 0) == (layout == "v2")
    assert diff_measurements(finished.batch, run.result) == []


def stock_tool_fact(sha, catalog, sample_lookup):
    """The fact of one sha, as a record with no parents or drops puts
    it up."""
    record = types.SimpleNamespace(sha256=sha, parents=(), dropped=())
    return add_stock_tool_facts({}, [record], catalog, sample_lookup)[sha]


class TestStockToolFact:
    def test_exact_hash(self, stock_catalog):
        tool = stock_catalog.binaries()[0]
        assert stock_tool_fact(tool.sha256, stock_catalog,
                               lambda sha: None) == \
            (tool.framework, tool.version)

    def test_fuzzy_fork(self, stock_catalog, rng):
        tool = stock_catalog.latest_version("xmrig")
        fork = stock_catalog.fork_tool(tool, rng)
        body = types.SimpleNamespace(raw=fork)
        fact = stock_tool_fact("fork", stock_catalog, {"fork": body}.get)
        assert fact is not None and fact[0] == "xmrig"

    def test_no_body_or_out_of_range_is_no_fact(self, stock_catalog, spy):
        low, high = stock_catalog.size_range()
        assert stock_tool_fact("gone", stock_catalog,
                               lambda sha: None) is None
        for size in (low - 1, high + 1):
            body = types.SimpleNamespace(raw=b"\x90" * size)
            assert stock_tool_fact("x", stock_catalog,
                                   lambda sha: body) is None
        assert spy["match"] == 0

    def test_table_is_filled_once_per_sha(self, stock_catalog, spy):
        tool = stock_catalog.binaries()[0]
        record = types.SimpleNamespace(sha256="a", parents=["p"],
                                       dropped=[tool.sha256])
        facts = {"a": ("given", "1")}
        add_stock_tool_facts(facts, [record, record], stock_catalog,
                             lambda sha: None)
        assert facts == {"a": ("given", "1"), "p": None,
                         tool.sha256: (tool.framework, tool.version)}
