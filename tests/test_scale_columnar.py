"""Columnar segment store: exact roundtrip, immutability, discovery."""

import datetime
import errno
import os
import stat

import pytest

from repro.core.records import MinerRecord
from repro.scale.columnar import RecordStore, SegmentReader, write_segment


def _rich_record(i: int = 0) -> MinerRecord:
    return MinerRecord(
        sha256=f"{i:064x}",
        pool="crypto-pool.fr",
        url_pool="stratum+tcp://xmr.crypto-pool.fr:3333",
        user="W" + "a" * 90,
        password="x",
        nthreads=4,
        agent="xmrig/2.8.1",
        dst_ip="203.0.113.7",
        dst_port=3333,
        dns_rr=["pool.minexmr.com", "backup.minexmr.com"],
        source="virusshare",
        first_seen=datetime.date(2017, 5, 12),
        itw_urls=["http://evil.ru/a.exe"],
        packer="UPX",
        positives=41,
        type="Miner",
        identifiers=["W" + "a" * 90],
        identifier_coins=["XMR"],
        parents=[f"{i + 1:064x}"],
        dropped=[f"{i + 2:064x}"],
        cname_aliases=["mine.ppxxmr.com"],
        proxy_ips=["198.51.100.9"],
        entropy=7.12345678901234,
        obfuscated=True,
        used_dynamic=True,
        used_static=False,
    )


def _sparse_record(i: int = 1) -> MinerRecord:
    # everything optional left at its None/empty default
    return MinerRecord(sha256=f"{i:064x}")


class TestSegmentRoundtrip:
    def test_rich_record_exact(self, tmp_path):
        record = _rich_record()
        path = write_segment([record], tmp_path / "seg-0.rcol")
        with SegmentReader(path) as reader:
            assert len(reader) == 1
            assert reader.record(0) == record

    def test_sparse_record_exact(self, tmp_path):
        record = _sparse_record()
        path = write_segment([record], tmp_path / "seg-0.rcol")
        with SegmentReader(path) as reader:
            out = reader.record(0)
        assert out == record
        assert out.pool is None
        assert out.dst_port is None
        assert out.nthreads is None
        assert out.first_seen is None
        assert out.identifiers == []

    def test_nthreads_zero_distinct_from_none(self, tmp_path):
        zero = _sparse_record(0)
        zero.nthreads = 0
        none = _sparse_record(1)
        path = write_segment([zero, none], tmp_path / "seg-0.rcol")
        with SegmentReader(path) as reader:
            assert reader.record(0).nthreads == 0
            assert reader.record(1).nthreads is None

    def test_none_inside_identifier_coins(self, tmp_path):
        record = _sparse_record()
        record.identifiers = ["Wx", "Wy"]
        record.identifier_coins = ["XMR", None]
        path = write_segment([record], tmp_path / "seg-0.rcol")
        with SegmentReader(path) as reader:
            assert reader.record(0).identifier_coins == ["XMR", None]
            # identifiers_of drops nothing here (no None identifiers)
            assert reader.identifiers_of(0) == ["Wx", "Wy"]

    def test_unicode_strings(self, tmp_path):
        record = _sparse_record()
        record.user = "майнер-中文-\U0001f511"
        record.agent = "agént"
        path = write_segment([record], tmp_path / "seg-0.rcol")
        with SegmentReader(path) as reader:
            out = reader.record(0)
        assert out.user == record.user
        assert out.agent == record.agent

    def test_entropy_is_exact_f64(self, tmp_path):
        record = _sparse_record()
        record.entropy = 7.999999999999999
        path = write_segment([record], tmp_path / "seg-0.rcol")
        with SegmentReader(path) as reader:
            assert reader.record(0).entropy == record.entropy

    def test_many_rows_and_sha_access(self, tmp_path):
        records = [_rich_record(i) if i % 2 else _sparse_record(i)
                   for i in range(100)]
        path = write_segment(records, tmp_path / "seg-0.rcol")
        with SegmentReader(path) as reader:
            assert list(reader.shas()) == [r.sha256 for r in records]
            assert list(reader.iter_records()) == records

    def test_bad_sha_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_segment([MinerRecord(sha256="nothex")],
                          tmp_path / "seg-0.rcol")

    def test_no_tmp_left_behind(self, tmp_path):
        write_segment([_sparse_record()], tmp_path / "seg-0.rcol")
        assert list(tmp_path.glob("*.tmp")) == []

    def test_index_error(self, tmp_path):
        path = write_segment([_sparse_record()], tmp_path / "seg-0.rcol")
        with SegmentReader(path) as reader:
            with pytest.raises(IndexError):
                reader.record(1)

    def test_not_a_segment(self, tmp_path):
        bogus = tmp_path / "seg-x.rcol"
        bogus.write_bytes(b"NOTRCOL!" + b"\x00" * 32)
        with pytest.raises(ValueError):
            SegmentReader(bogus)


class TestSegmentDurability:
    def test_enospc_propagates_and_leaves_nothing(self, tmp_path,
                                                  monkeypatch):
        store = RecordStore(tmp_path / "store")
        store.append_segment([_rich_record(0)], name="seg-a")

        def full_disk(_fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fsync", full_disk)
        with pytest.raises(OSError) as excinfo:
            store.append_segment([_rich_record(1)], name="seg-b")
        monkeypatch.undo()
        assert excinfo.value.errno == errno.ENOSPC
        assert list(store.root.glob("*.tmp")) == []
        assert not store.has_segment("seg-b")
        assert list(store.iter_records()) == [_rich_record(0)]

    def test_directory_fsynced_after_rename(self, tmp_path, monkeypatch):
        target = tmp_path / "seg-0.rcol"
        synced = []
        real_fsync = os.fsync

        def spy(fd):
            synced.append((stat.S_ISDIR(os.fstat(fd).st_mode),
                           target.exists()))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        write_segment([_sparse_record()], target)
        # the file before the rename, then its directory after it
        assert synced == [(False, False), (True, True)]


class TestRecordStore:
    def test_append_and_iterate_in_order(self, tmp_path):
        store = RecordStore(tmp_path / "store")
        first = [_sparse_record(i) for i in range(3)]
        second = [_rich_record(i) for i in range(10, 13)]
        store.append_segment(first)
        store.append_segment(second)
        assert store.num_segments == 2
        assert len(store) == 6
        assert list(store.iter_records()) == first + second

    def test_named_segments_and_immutability(self, tmp_path):
        store = RecordStore(tmp_path / "store")
        store.append_segment([_sparse_record()], name="batch-000007")
        assert store.has_segment("batch-000007")
        assert not store.has_segment("batch-000008")
        with pytest.raises(FileExistsError):
            store.append_segment([_sparse_record()], name="batch-000007")

    def test_empty_store(self, tmp_path):
        store = RecordStore(tmp_path / "store")
        assert store.num_segments == 0
        assert len(store) == 0
        assert list(store.iter_records()) == []

    def test_empty_segment(self, tmp_path):
        store = RecordStore(tmp_path / "store")
        store.append_segment([])
        assert store.num_segments == 1
        assert len(store) == 0
