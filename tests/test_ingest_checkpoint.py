"""Unit tests for the checkpoint store and the durable-state codec."""

import datetime
import json
import os

import pytest

from repro.core.pipeline import PipelineStats, SampleOutcome
from repro.core.records import MinerRecord
from repro.core.sanity import SanityVerdict
from repro.ingest.checkpoint import (
    FORMAT_VERSION,
    CheckpointStore,
    JournalReplay,
)
from repro.ingest.codec import (
    Encoded,
    decode_outcome,
    decode_record,
    decode_stats,
    encode,
)


def make_record(sha="a" * 8):
    record = MinerRecord(sha256=sha)
    record.identifiers = ["W1", "W2"]
    record.identifier_coins = ["XMR", "XMR"]
    record.pool = "minexmr"
    record.dst_ip = "10.9.8.7"
    record.dst_port = 4444
    record.first_seen = datetime.date(2017, 6, 1)
    record.itw_urls = ["http://h0.ru/a.exe"]
    record.parents = ["p" * 8]
    record.entropy = 7.25
    record.used_static = True
    return record


def make_outcome(sha="a" * 8, kind="miner"):
    return SampleOutcome(
        index=3, sha256=sha, kind=kind,
        verdict=SanityVerdict(sha, is_executable=True, is_malware=True),
        record=make_record(sha) if kind == "miner" else None,
        has_network=True, used_static=True)


class TestCodecs:
    def test_record_roundtrip(self):
        record = make_record()
        assert decode_record(json.loads(encode(record))) == record

    def test_record_roundtrip_through_json(self):
        record = make_record()
        wire = encode(record)
        assert decode_record(json.loads(wire)) == record

    def test_undated_record_roundtrip(self):
        record = make_record()
        record.first_seen = None
        assert decode_record(json.loads(encode(record))) == record

    def test_outcome_roundtrip(self):
        for kind in ("miner", "rejected", "deferred", "nonexec"):
            outcome = make_outcome(kind=kind)
            back = decode_outcome(json.loads(encode(outcome)))
            assert back == outcome

    def test_stats_roundtrip(self):
        stats = PipelineStats()
        stats.collected = 11
        stats.executables = 7
        stats.by_source = {"VT": 9, "HA": 2}
        assert decode_stats(json.loads(encode(stats))) == stats


class TestCheckpointStore:
    def test_fresh_store_is_empty(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck", fsync=False)
        assert not store.exists()
        replay = store.load()
        assert replay.snapshot is None
        assert replay.committed == []
        assert replay.partial == {}
        assert replay.cursor == 0

    def test_committed_batch_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck", fsync=False)
        outcomes = [make_outcome(sha=f"s{i}") for i in range(3)]
        payloads = [json.loads(encode(outcome)) for outcome in outcomes]
        for outcome in outcomes:
            store.append_outcome(0, outcome)
        store.commit_batch(0, {"batch_id": 0, "samples": 3})
        store.close()
        replay = CheckpointStore(tmp_path / "ck", fsync=False).load()
        assert replay.committed == [(0, payloads)]
        assert replay.commits == [(0, {"batch_id": 0, "samples": 3})]
        assert replay.partial == {}
        assert replay.cursor == 1

    def test_uncommitted_outcomes_stay_partial(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck", fsync=False)
        store.append_outcome(0, {"sha256": "x"})
        store.commit_batch(0, {})
        store.append_outcome(1, {"sha256": "y"})
        store.close()  # no commit line for batch 1
        replay = store.load()
        assert replay.cursor == 1
        assert replay.partial == {1: [{"sha256": "y"}]}

    def test_torn_tail_is_ignored(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck", fsync=False)
        store.append_outcome(0, {"sha256": "x"})
        store.commit_batch(0, {})
        store.close()
        with open(store.journal_path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "outcome", "batch": 1, "da')  # power cut
        replay = store.load()
        assert replay.cursor == 1
        assert replay.partial == {}

    def test_commit_after_torn_tail_is_visible(self, tmp_path):
        """The first append after a load cuts the torn fragment off, so
        the next line does not glue onto it and stay unreadable."""
        store = CheckpointStore(tmp_path / "ck", fsync=False)
        store.append_outcome(0, {"sha256": "x"})
        store.commit_batch(0, {})
        store.close()
        with open(store.journal_path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "outcome", "batch": 1, "da')  # power cut
        resumed = CheckpointStore(tmp_path / "ck", fsync=True)
        assert resumed.load().cursor == 1
        resumed.append_outcome(1, {"sha256": "y"})
        resumed.commit_batch(1, {})
        resumed.close()
        replay = CheckpointStore(tmp_path / "ck", fsync=False).load()
        assert replay.committed == [(0, [{"sha256": "x"}]),
                                    (1, [{"sha256": "y"}])]
        assert replay.cursor == 2

    def test_line_without_newline_is_torn(self, tmp_path):
        """A write tears before its newline as easily as inside it; a
        commit line that parses but has no newline never committed."""
        store = CheckpointStore(tmp_path / "ck", fsync=False)
        store.commit_batch(0, {})
        store.close()
        with open(store.journal_path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "commit", "batch": 1, "metrics": {}}')
        assert store.load().cursor == 1
        store.commit_batch(1, {})
        store.close()
        assert store.load().cursor == 2
        assert store.journal_path.read_text().count("\n") == 2

    def test_snapshot_bytes_are_json_dumps(self, tmp_path):
        """The streamed snapshot is byte for byte ``json.dumps`` of the
        state, with pre-encoded list elements copied as they are."""
        store = CheckpointStore(tmp_path / "ck", fsync=False)
        record = make_record()
        state = {"records": [Encoded(encode(record))], "empty": [],
                 "stats": PipelineStats(collected=2),
                 "pending": [("s1", 4)], "cursor": 3, "name": "é"}
        store.write_snapshot(state)
        expected = json.dumps(
            {"records": [json.loads(encode(record))], "empty": [],
             "stats": json.loads(encode(PipelineStats(collected=2))),
             "pending": [["s1", 4]], "cursor": 3, "name": "é",
             "v": FORMAT_VERSION}, sort_keys=True)
        assert store.snapshot_path.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("fault", ["unserialisable", "oserror"])
    def test_failed_snapshot_leaves_previous_intact(self, tmp_path,
                                                    monkeypatch, fault):
        store = CheckpointStore(tmp_path / "ck", fsync=False)
        store.write_snapshot({"cursor": 1})
        before = store.snapshot_path.read_bytes()
        store.append_outcome(1, {"sha256": "x"})
        store.commit_batch(1, {})
        if fault == "unserialisable":
            state, error = {"cursor": 2, "confirmed": {"W1"}}, TypeError
        else:
            def broken_replace(src, dst):
                raise OSError("disk full")
            monkeypatch.setattr(os, "replace", broken_replace)
            state, error = {"cursor": 2}, OSError
        with pytest.raises(error):
            store.write_snapshot(state)
        monkeypatch.undo()
        store.close()
        assert sorted(p.name for p in store.directory.iterdir()) == \
            ["journal.jsonl", "snapshot.json"]
        assert store.snapshot_path.read_bytes() == before
        replay = store.load()
        assert replay.snapshot["cursor"] == 1
        assert replay.committed == [(1, [{"sha256": "x"}])]

    def test_failed_rotation_leaves_no_temp_file(self, tmp_path,
                                                 monkeypatch):
        store = CheckpointStore(tmp_path / "ck", fsync=False)
        store.commit_batch(0, {})
        real_replace = os.replace

        def replace(src, dst):
            if str(src).endswith(".jsonl.tmp"):
                raise OSError("disk full")
            real_replace(src, dst)
        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError):
            store.write_snapshot({"cursor": 1})
        assert sorted(p.name for p in store.directory.iterdir()) == \
            ["journal.jsonl", "snapshot.json"]
        assert store.load().cursor == 1

    def test_snapshot_rotates_journal(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck", fsync=False)
        store.append_outcome(0, {"sha256": "x"})
        store.commit_batch(0, {})
        store.write_snapshot({"cursor": 1, "records": []})
        store.close()
        assert store.journal_path.read_text() == ""
        replay = store.load()
        assert replay.snapshot["cursor"] == 1
        assert replay.committed == []
        assert replay.cursor == 1

    def test_stale_journal_entries_dropped(self, tmp_path):
        """A crash between snapshot and rotation leaves duplicate
        journal entries for compacted batches; the loader skips them."""
        store = CheckpointStore(tmp_path / "ck", fsync=False)
        store.write_snapshot({"cursor": 2})
        with open(store.journal_path, "a", encoding="utf-8") as fh:
            for batch_id in (0, 1, 2):
                fh.write(json.dumps({"type": "outcome", "batch": batch_id,
                                     "data": {"sha256": f"s{batch_id}"}})
                         + "\n")
                fh.write(json.dumps({"type": "commit", "batch": batch_id,
                                     "metrics": {}}) + "\n")
        replay = store.load()
        assert replay.committed == [(2, [{"sha256": "s2"}])]
        assert replay.cursor == 3

    def test_snapshot_version_mismatch_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck", fsync=False)
        store.snapshot_path.write_text(json.dumps({"cursor": 0, "v": -1}))
        with pytest.raises(ValueError, match="format"):
            store.load()
        assert FORMAT_VERSION >= 1

    def test_exists_after_any_write(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck", fsync=False)
        store.append_outcome(0, {})
        store.close()
        assert store.exists()

    def test_fsync_path_works(self, tmp_path):
        """The fsync=True write path (the production default) commits
        and snapshots without error on a real filesystem."""
        store = CheckpointStore(tmp_path / "ck", fsync=True)
        store.append_outcome(0, {"sha256": "x"})
        store.commit_batch(0, {"batch_id": 0})
        store.write_snapshot({"cursor": 1})
        store.close()
        assert store.load().cursor == 1


class TestJournalReplayCursor:
    def test_cursor_is_max_of_snapshot_and_commits(self):
        replay = JournalReplay(snapshot={"cursor": 2},
                               committed=[(5, [])])
        assert replay.cursor == 6
        assert JournalReplay(snapshot={"cursor": 9}).cursor == 9


class TestServiceLifetime:
    def test_restored_service_is_freed_without_the_cycle_collector(
            self, tmp_path):
        """A read-only restore (the serving layer's rebuild) must not
        leave the service in a reference cycle: its whole measurement
        state would then outlive the call until a full collection, and
        every full collection in the serving process would walk it."""
        import gc
        import weakref

        from repro.corpus.generator import generate_world
        from repro.corpus.model import ScenarioConfig
        from repro.ingest import IngestionService

        world = generate_world(ScenarioConfig(seed=7, scale=0.003))
        IngestionService(world, tmp_path, batch_days=90, fsync=False).run()
        gc.disable()
        try:
            service = IngestionService(world, tmp_path, batch_days=90,
                                       resume=True, fsync=False)
            service.restore_state()
            service.current_result()
            alive = weakref.ref(service)
            del service
            assert alive() is None
        finally:
            gc.enable()
