"""Crash/resume tests: kill the ingestion at every durability boundary.

A run interrupted at any of the checkpoint seams — before the commit
line, after it, before a snapshot, after one — must resume to the exact
state of an uninterrupted run, without re-analysing samples whose
outcomes already reached the journal.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.pipeline import MeasurementPipeline
from repro.corpus.generator import generate_world
from repro.corpus.model import ScenarioConfig
from repro.ingest import CheckpointStore, IngestionService
from repro.ingest.service import _STAGE1_KINDS, diff_measurements


@pytest.fixture(scope="module")
def world():
    return generate_world(ScenarioConfig(seed=7, scale=0.003))


@pytest.fixture(scope="module")
def expected(world):
    return MeasurementPipeline(world).run()


class _Crash(Exception):
    """Simulated process death at a durability boundary."""


def crash_at(target_point, target_batch):
    def hook(point, batch_id):
        if point == target_point and batch_id == target_batch:
            raise _Crash(f"{point}@{batch_id}")
    return hook


def run_until_crash(world, checkpoint, point, batch):
    service = IngestionService(world, checkpoint, batch_days=30,
                               snapshot_every=4, fsync=False,
                               fault_hook=crash_at(point, batch))
    with pytest.raises(_Crash):
        service.run()


class TestCrashResume:
    # batch 7 commits at cursor 8 = 2 * snapshot_every, so the
    # snapshot seams fire there; 5 is a plain mid-run commit.
    @pytest.mark.parametrize("point,batch", [
        ("pre-commit", 0),
        ("pre-commit", 5),
        ("post-commit", 5),
        ("pre-snapshot", 7),
        ("post-snapshot", 7),
    ])
    def test_resume_converges_identically(self, world, expected,
                                          tmp_path, point, batch):
        checkpoint = tmp_path / "ck"
        run_until_crash(world, checkpoint, point, batch)

        replay = CheckpointStore(checkpoint, fsync=False).load()
        committed_cursor = replay.cursor
        replayed_stage1 = sum(
            1 for data in replay.partial.get(committed_cursor, [])
            if data["kind"] in _STAGE1_KINDS)

        resumed = IngestionService(world, checkpoint, batch_days=30,
                                   snapshot_every=4, fsync=False,
                                   resume=True).run()

        assert diff_measurements(expected, resumed.result) == []
        assert resumed.resumed_from == committed_cursor
        assert len(resumed.batches) == resumed.total_batches

        committed_samples = sum(
            m.samples for m in resumed.batches[:committed_cursor])
        fresh_analyzed = sum(
            m.analyzed for m in resumed.batches[committed_cursor:])
        assert fresh_analyzed == (len(world.samples) - committed_samples
                                  - replayed_stage1)

    def test_resume_refused_without_flag(self, world, tmp_path):
        checkpoint = tmp_path / "ck"
        run_until_crash(world, checkpoint, "post-commit", 2)
        with pytest.raises(ValueError, match="resume"):
            IngestionService(world, checkpoint, batch_days=30,
                             fsync=False).run()

    def test_resume_rejects_mismatched_plan(self, world, tmp_path):
        checkpoint = tmp_path / "ck"
        run_until_crash(world, checkpoint, "post-snapshot", 3)
        with pytest.raises(ValueError, match="different feed plan"):
            IngestionService(world, checkpoint, batch_days=7,
                             fsync=False, resume=True).run()

    def test_double_crash_then_resume(self, world, expected, tmp_path):
        """Two successive crashes at different seams still converge."""
        checkpoint = tmp_path / "ck"
        run_until_crash(world, checkpoint, "pre-snapshot", 3)
        service = IngestionService(world, checkpoint, batch_days=30,
                                   snapshot_every=4, fsync=False,
                                   resume=True,
                                   fault_hook=crash_at("pre-commit", 9))
        with pytest.raises(_Crash):
            service.run()
        resumed = IngestionService(world, checkpoint, batch_days=30,
                                   snapshot_every=4, fsync=False,
                                   resume=True).run()
        assert diff_measurements(expected, resumed.result) == []

    def test_commits_after_a_torn_tail_survive_the_next_crash(
            self, tmp_path):
        """A resumed run writes past a torn journal tail: the batches
        it commits before crashing again are not redone on the next
        resume."""
        world = generate_world(ScenarioConfig(seed=2019, scale=0.004))
        checkpoint = tmp_path / "ck"
        for resume, batch in ((False, 3), (True, 6)):
            service = IngestionService(world, checkpoint, batch_days=30,
                                       fsync=False, resume=resume,
                                       fault_hook=crash_at("post-commit",
                                                           batch))
            with pytest.raises(_Crash):
                service.run()
            if not resume:
                with open(service.store.journal_path, "a",
                          encoding="utf-8") as fh:
                    fh.write('{"type": "outcome", "batch": 4, "da')
        replay = CheckpointStore(checkpoint, fsync=False).load()
        assert [batch_id for batch_id, _ in replay.committed] == \
            list(range(7))
        assert replay.cursor == 7
        resumed = IngestionService(world, checkpoint, batch_days=30,
                                   fsync=False, resume=True).run()
        assert resumed.resumed_from == 7

    def test_resume_of_finished_run_is_idempotent(self, world, expected,
                                                  tmp_path):
        checkpoint = tmp_path / "ck"
        first = IngestionService(world, checkpoint, batch_days=30,
                                 fsync=False).run()
        again = IngestionService(world, checkpoint, batch_days=30,
                                 fsync=False, resume=True).run()
        assert again.resumed_from == again.total_batches
        assert diff_measurements(first.result, again.result) == []
        assert diff_measurements(expected, again.result) == []


class TestSigkillResume:
    def test_sigkill_mid_run_then_cli_resume(self, tmp_path):
        """Kill -9 a real ingest process, then resume it via the CLI
        with --verify asserting equality with the batch pipeline."""
        checkpoint = tmp_path / "ck"
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo, "src")
        argv = [sys.executable, "-m", "repro.cli", "ingest",
                "--scale", "0.003", "--seed", "7", "--batch-days", "30",
                "--checkpoint", str(checkpoint)]
        proc = subprocess.Popen(argv, env=env, cwd=repo,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        time.sleep(1.5)
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        done = subprocess.run(argv + ["--resume", "--verify"], env=env,
                              cwd=repo, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        assert "equals the batch pipeline" in done.stdout


class TestReadOnlyRestore:
    def test_restore_skips_wanted_list_and_resume_still_converges(
            self, world, tmp_path, monkeypatch):
        """Only recovery reads the wanted list, so a read-only restore
        (the serving layer's rebuild) never scans ``children_of``; a
        resumed run still rebuilds it and ends where an uninterrupted
        run does, batch metrics included."""
        import dataclasses

        # batch 85 commits with 74 records kept and 33 linked samples
        # not arrived yet: later recoveries need the wanted list
        checkpoint = tmp_path / "ck"
        run_until_crash(world, checkpoint, "post-commit", 85)
        calls = []
        vt_type = type(world.vt)
        children_of = vt_type.children_of

        def counting(self, sha256):
            calls.append(sha256)
            return children_of(self, sha256)

        monkeypatch.setattr(vt_type, "children_of", counting)
        reader = IngestionService(world, checkpoint, batch_days=30,
                                  snapshot_every=4, fsync=False,
                                  resume=True)
        assert reader.restore_state() == 86
        assert reader.current_result().records
        assert calls == []

        resumed = IngestionService(world, checkpoint, batch_days=30,
                                   snapshot_every=4, fsync=False,
                                   resume=True).run()
        assert calls
        uninterrupted = IngestionService(world, tmp_path / "fresh",
                                         batch_days=30, snapshot_every=4,
                                         fsync=False).run()
        assert diff_measurements(uninterrupted.result,
                                 resumed.result) == []

        def timeless(batches):
            return [dataclasses.replace(m, wall_s=0.0) for m in batches]

        assert timeless(resumed.batches) == timeless(uninterrupted.batches)
