"""Out-of-core pipeline ≡ batch pipeline.

The stream withholds a few fixture-linked campaigns until late in the
feed, so acceptance *order* differs from the batch world order; every
comparison therefore goes through sha-keyed dicts (all downstream
consumers — aggregation, profiling, reporting — are order-canonical).
"""

import dataclasses
import tempfile
import threading

import pytest

import repro.scale.pipeline as scale_pipeline
from repro.corpus.generator import generate_world
from repro.corpus.model import ScenarioConfig
from repro.scale.columnar import RecordStore
from repro.scale.pipeline import ScalePipeline
from repro.scale.stream import StreamingCorpus
from tests.reference_aggregation import ReferenceAggregator

_CONFIG = ScenarioConfig(seed=1, scale=0.01)


@pytest.fixture(scope="module")
def scale_result():
    corpus = StreamingCorpus(_CONFIG, chunk_samples=512)
    result = ScalePipeline(corpus, num_shards=8).run()
    yield result
    result.close()


class TestScalePipelineEquivalence:
    def test_records_identical(self, scale_result, pipeline_result):
        batch = {r.sha256: r for r in pipeline_result.records}
        stream = {r.sha256: r for r in scale_result.records()}
        assert stream == batch

    def test_funnel_identical(self, scale_result, pipeline_result):
        for f in dataclasses.fields(pipeline_result.stats):
            assert getattr(scale_result.stats, f.name) == \
                getattr(pipeline_result.stats, f.name), f.name

    def test_proxies_profiles_verdicts(self, scale_result,
                                       pipeline_result):
        assert scale_result.proxy_ips == pipeline_result.proxy_ips
        assert scale_result.profiles == pipeline_result.profiles
        # the out-of-core driver keeps no per-sample verdict map
        assert scale_result.verdicts == {}

    def test_campaigns_identical(self, scale_result, small_world,
                                 pipeline_result):
        # the batch result's campaigns carry post-aggregation
        # enrichment; compare against the bare aggregator output,
        # which is what ScalePipeline's sharded stage replaces.  The
        # sharded stage drops each campaign's record list, so compare
        # without it, as diff_measurements does
        batch = ReferenceAggregator(
            small_world.osint, proxy_ips=pipeline_result.proxy_ips
        ).aggregate(pipeline_result.records)
        assert scale_result.campaigns == [
            dataclasses.replace(c, records=[]) for c in batch]

    def test_spill_telemetry(self, scale_result):
        assert scale_result.rejected_spilled > 0
        assert scale_result.recovered > 0
        assert scale_result.spill_bytes > 0
        assert scale_result.store.num_segments >= 1


class TestScalePipelineOptions:
    def test_prefetch_disabled_identical(self, scale_result, request):
        """The module fixture runs with the default prefetch (2); the
        eager path must produce byte-identical records, spills and
        campaigns — prefetch changes timing, never content."""
        corpus = StreamingCorpus(_CONFIG, chunk_samples=512)
        eager = ScalePipeline(corpus, prefetch=0, num_shards=8).run()
        request.addfinalizer(eager.close)
        assert {r.sha256: r for r in eager.records()} == \
            {r.sha256: r for r in scale_result.records()}
        assert eager.campaigns == scale_result.campaigns
        assert eager.stats == scale_result.stats
        assert eager.deferred_spilled == scale_result.deferred_spilled
        assert eager.rejected_spilled == scale_result.rejected_spilled

    def test_rejects_negative_prefetch(self):
        corpus = StreamingCorpus(_CONFIG, chunk_samples=512)
        with pytest.raises(ValueError):
            ScalePipeline(corpus, prefetch=-1)

    def test_small_segments_identical(self, scale_result, request,
                                      monkeypatch):
        monkeypatch.setattr(scale_pipeline, "SEGMENT_ROWS", 64)
        corpus = StreamingCorpus(_CONFIG, chunk_samples=512)
        chunked = ScalePipeline(corpus).run()
        request.addfinalizer(chunked.close)
        assert chunked.store.num_segments > 1
        assert {r.sha256: r for r in chunked.records()} == \
            {r.sha256: r for r in scale_result.records()}
        assert chunked.campaigns == scale_result.campaigns

    def test_lean_defaults_drop_heavy_state(self, scale_result):
        assert scale_result.verdicts == {}
        assert all(c.records == [] for c in scale_result.campaigns)

    def test_explicit_store_persists(self, tmp_path):
        store = RecordStore(tmp_path / "store")
        corpus = StreamingCorpus(_CONFIG, chunk_samples=512)
        result = ScalePipeline(corpus, store=store).run()
        assert result.store is store
        assert store.num_segments >= 1
        assert len(store) == result.stats.all_executables_kept

    def test_second_run_raises(self, tmp_path):
        """The corpus streams its world once; a second run on the same
        pipeline must fail loudly, not measure a different world."""
        config = ScenarioConfig(seed=2019, scale=0.004)
        corpus = StreamingCorpus(config, chunk_samples=512)
        pipeline = ScalePipeline(corpus, workdir=tmp_path / "work")
        first = pipeline.run()
        assert first.stats.collected == len(generate_world(config).samples)
        with pytest.raises(RuntimeError, match="once"):
            pipeline.run()
        assert not (tmp_path / "work" / "deferred.spill").exists()

    def test_closed_result_leaves_nothing_behind(self, tmp_path,
                                                 monkeypatch):
        """A finished run keeps its own workdir for the store its
        result reads; closing the result removes it, and closing twice
        is harmless."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        corpus = StreamingCorpus(ScenarioConfig(seed=2019, scale=0.004),
                                 chunk_samples=512)
        result = ScalePipeline(corpus).run()
        assert len(result.records()) == result.stats.all_executables_kept
        assert [p.name for p in tmp_path.iterdir()] == \
            [result.workdir.name]
        result.close()
        result.close()
        assert list(tmp_path.iterdir()) == []

    def test_cli_scale_leaves_nothing_behind(self, tmp_path, monkeypatch,
                                             capsys):
        from repro.cli import main
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main(["scale", "--scale", "0.004"]) == 0
        assert "campaigns:" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_leaves_nothing_behind(self, tmp_path,
                                              monkeypatch):
        """An error while chunk 2 is analysed removes the run's own
        workdir, store included, and stops the prefetch thread."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        real = scale_pipeline.stage1_analyze

        def failing(sample, index, *args):
            if index >= 2 * 256:
                raise RuntimeError("injected failure in chunk 2")
            return real(sample, index, *args)

        monkeypatch.setattr(scale_pipeline, "stage1_analyze", failing)
        threads = set(threading.enumerate())
        corpus = StreamingCorpus(ScenarioConfig(seed=2019, scale=0.004),
                                 chunk_samples=256)
        pipeline = ScalePipeline(corpus)
        assert len(list(tmp_path.glob("repro-scale-*"))) == 1
        with pytest.raises(RuntimeError, match="chunk 2"):
            pipeline.run()
        assert list(tmp_path.glob("repro-scale-*")) == []
        assert list(tmp_path.rglob("*.spill")) == []
        assert [t for t in threading.enumerate()
                if t not in threads and t.is_alive()] == []


class TestBenchHarness:
    def test_scale_point_metrics(self, tmp_path, monkeypatch):
        from repro.scale.bench import measure_scale_point
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        point = measure_scale_point(0.01, seed=1, chunk_samples=512)
        assert list(tmp_path.iterdir()) == []
        assert point["samples"] > 0
        assert point["records"] > 0
        assert point["campaigns"] > 0
        assert point["run_s"] > 0
        assert point["peak_rss_mib"] > 0
        assert point["segments"] >= 1
        assert "workers" not in point
