"""Unit tests for the checkpoint store and the durable-state codecs."""

import datetime
import json

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
    decode_outcome,
    decode_record,
    decode_stats,
    encode_outcome,
    encode_record,
    encode_stats,
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
        assert decode_record(encode_record(record)) == record

    def test_record_roundtrip_through_json(self):
        record = make_record()
        wire = json.dumps(encode_record(record), sort_keys=True)
        assert decode_record(json.loads(wire)) == record

    def test_undated_record_roundtrip(self):
        record = make_record()
        record.first_seen = None
        assert decode_record(encode_record(record)) == record

    def test_outcome_roundtrip(self):
        for kind in ("miner", "rejected", "deferred", "nonexec"):
            outcome = make_outcome(kind=kind)
            back = decode_outcome(
                json.loads(json.dumps(encode_outcome(outcome))))
            assert back == outcome

    def test_stats_roundtrip(self):
        stats = PipelineStats()
        stats.collected = 11
        stats.executables = 7
        stats.by_source = {"VT": 9, "HA": 2}
        assert decode_stats(
            json.loads(json.dumps(encode_stats(stats)))) == stats


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
        payloads = [encode_outcome(make_outcome(sha=f"s{i}"))
                    for i in range(3)]
        for payload in payloads:
            store.append_outcome(0, payload)
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
