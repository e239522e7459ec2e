"""Cold start from checkpoints and lock-free hot swap.

Scenario under test (the ISSUE acceptance): build an index from a
checkpoint mid-ingestion, let ingestion commit more batches, poll →
the watcher rebuilds and swaps; a request in flight on the old
generation completes consistently on its original index while new
requests already see the new one, and the old generation retires only
once it drains.
"""

import asyncio
import json

import pytest

import repro.cli as cli
from repro.core.pipeline import MeasurementPipeline
from repro.corpus.generator import generate_world
from repro.corpus.model import ScenarioConfig
from repro.ingest import IngestionService
from repro.ingest.feed import FeedScheduler
from repro.ingest.service import diff_measurements
from repro.serve.app import IntelService
from repro.serve.auth import ApiKeyRegistry
from repro.serve.http import HttpRequest
from repro.serve.index import build_index
from repro.serve.snapshot import (
    CheckpointIndexSource,
    checkpoint_plan,
    measurement_from_checkpoint,
)
from repro.serve.watcher import SnapshotWatcher

_KEY = "swap-key"


@pytest.fixture(scope="module")
def world():
    return generate_world(ScenarioConfig(seed=7, scale=0.003))


@pytest.fixture(scope="module")
def expected(world):
    return MeasurementPipeline(world).run()


class _Stop(Exception):
    """Simulated shutdown partway through ingestion."""


def _ingest(world, checkpoint, stop_after=None, resume=False):
    def hook(point, batch_id):
        if stop_after is not None and point == "post-commit" \
                and batch_id == stop_after:
            raise _Stop(batch_id)
    service = IngestionService(world, checkpoint, batch_days=30,
                               snapshot_every=4, fsync=False,
                               resume=resume,
                               fault_hook=hook if stop_after else None)
    if stop_after is not None:
        with pytest.raises(_Stop):
            service.run()
        return None
    return service.run()


def _req(path):
    return HttpRequest(method="GET", target=path, path=path,
                       headers={"x-api-key": _KEY})


def _registry():
    registry = ApiKeyRegistry()
    registry.add(_KEY)
    return registry


class TestColdStart:
    def test_finished_checkpoint_restores_identically(self, world,
                                                      expected,
                                                      tmp_path):
        checkpoint = tmp_path / "ck"
        _ingest(world, checkpoint)
        plan = checkpoint_plan(checkpoint)
        assert plan["finalized"] is True
        assert plan["batch_days"] == 30
        restored = measurement_from_checkpoint(world, checkpoint)
        assert diff_measurements(expected, restored) == []
        index = build_index(restored, generation=1)
        assert index.counts()["hashes"] == len(expected.records)

    def test_partial_checkpoint_serves_committed_prefix(self, world,
                                                        expected,
                                                        tmp_path):
        checkpoint = tmp_path / "ck"
        _ingest(world, checkpoint, stop_after=90)
        restored = measurement_from_checkpoint(world, checkpoint,
                                               batch_days=30)
        index = build_index(restored, generation=1)
        hashes = index.counts()["hashes"]
        assert 0 < hashes < len(expected.records)
        # everything the partial index knows agrees with the full run
        full = {r.sha256 for r in expected.records}
        served = {intel["sha256"] for intel in index._hashes.values()}
        assert served <= full



class TestJournalOnlyPlan:
    """A checkpoint with no snapshot carries no plan stamp: each
    replayed commit must be the batch the assumed plan schedules."""

    @pytest.fixture(scope="class")
    def journal_only(self, tmp_path_factory):
        world = generate_world(ScenarioConfig(seed=2019, scale=0.004))
        checkpoint = tmp_path_factory.mktemp("journal-only")

        def stop(point, batch_id):
            if point == "post-commit" and batch_id == 60:
                raise _Stop(batch_id)
        service = IngestionService(world, checkpoint, batch_days=30,
                                   snapshot_every=100, fsync=False,
                                   fault_hook=stop)
        with pytest.raises(_Stop):
            service.run()
        assert checkpoint_plan(checkpoint) is None
        return world, checkpoint

    def test_assumed_daily_plan_is_refused(self, journal_only):
        world, checkpoint = journal_only
        with pytest.raises(ValueError, match="different feed plan"):
            measurement_from_checkpoint(world, checkpoint)

    def test_batch_past_the_schedule_is_refused(self, journal_only):
        world, checkpoint = journal_only
        with pytest.raises(ValueError, match="different feed plan"):
            measurement_from_checkpoint(world, checkpoint,
                                        batch_days=3650)

    def test_own_plan_restores(self, journal_only):
        world, checkpoint = journal_only
        restored = measurement_from_checkpoint(world, checkpoint,
                                               batch_days=30)
        batches = FeedScheduler(world, batch_days=30).batches()
        assert restored.stats.collected == sum(
            batch.num_samples for batch in batches[:61]) == 316

    def test_serve_exits_with_the_message(self, journal_only, capsys,
                                          monkeypatch):
        _world, checkpoint = journal_only

        async def no_server(*_args):
            return 0  # a refused restore must return before serving
        monkeypatch.setattr(cli, "_serve_main", no_server)
        code = cli.main(["serve", "--checkpoint", str(checkpoint),
                         "--seed", "2019", "--scale", "0.004",
                         "--port", "0", "--api-key", _KEY])
        assert code == 1
        assert "different feed plan" in capsys.readouterr().err


class TestWatcherSwap:
    def test_journal_advance_triggers_rebuild_and_swap(self, world,
                                                       expected,
                                                       tmp_path):
        checkpoint = tmp_path / "ck"
        _ingest(world, checkpoint, stop_after=90)
        source = CheckpointIndexSource(world, checkpoint, batch_days=30)
        assert source.stamp() is not None
        service = IntelService(source.build(1), _registry())
        watcher = SnapshotWatcher(service, source)
        watcher.prime()

        # unchanged checkpoint: the poll is a no-op
        assert asyncio.run(watcher.poll_once()) is False
        assert service.generation == 1

        stale_count = service.index.counts()["hashes"]
        missing = sorted({r.sha256 for r in expected.records}
                         - set(service.index._hashes))[0]
        assert service.index.hash_intel(missing) is None

        _ingest(world, checkpoint, resume=True)  # commit the rest
        assert asyncio.run(watcher.poll_once()) is True
        assert watcher.swaps == 1
        assert service.generation == 2
        assert service.index.counts()["hashes"] \
            == len(expected.records) > stale_count
        # the swapped index serves the new fact
        assert service.index.hash_intel(missing) is not None
        assert service.retired_generations == [1]

    def test_inflight_request_completes_on_old_generation(self, world,
                                                          expected,
                                                          tmp_path):
        checkpoint = tmp_path / "ck"
        _ingest(world, checkpoint)
        result = measurement_from_checkpoint(world, checkpoint)
        first = build_index(result, generation=1)
        second = build_index(result, generation=2)

        async def scenario():
            parked = asyncio.Event()
            release = asyncio.Event()
            calls = []

            async def hook(request, index):
                calls.append(index.generation)
                if len(calls) == 1:  # park only the first request
                    parked.set()
                    await release.wait()

            service = IntelService(first, _registry(),
                                   request_hook=hook)
            old_task = asyncio.create_task(
                service.handle(_req("/v1/info")))
            await parked.wait()
            assert service.inflight == 1

            service.swap(second)
            # old generation is drained, not dropped: still un-retired
            assert service.generation == 2
            assert service.retired_generations == []

            # a request racing the parked one answers from gen 2
            fresh = await service.handle(_req("/v1/info"))
            assert json.loads(fresh.body)["generation"] == 2
            assert service.retired_generations == []

            release.set()
            old = await old_task
            # the parked request answered from its original index …
            assert json.loads(old.body)["generation"] == 1
            # … and only its completion retired generation 1
            assert service.retired_generations == [1]
            assert calls == [1, 2]

        asyncio.run(scenario())


class TestServeBenchSmoke:
    def test_sustained_load_swap_is_clean(self):
        from repro.serve.bench import measure_serve_point
        point = measure_serve_point(scale=0.002, seed=11,
                                    duration_s=1.2, concurrency=2)
        assert point["requests"] > 0
        assert point["errors"] == 0
        assert point["swap_clean"] is True
        assert set(point["generations_seen"]) <= {1, 2}
        assert point["p99_ms"] >= point["p50_ms"] >= 0
