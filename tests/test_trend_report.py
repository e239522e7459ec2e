"""The BENCH_history trend report: loading, rendering, CLI."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                       / "benchmarks"))

from trend_report import (  # noqa: E402
    load_history,
    main,
    render_csv,
    render_markdown,
)


def _entry(seq, qps, calibration=None, suite="serve"):
    payload = {"bench": suite,
               "points": [{"scale": 0.02, "concurrency": 8,
                           "workers": 1, "qps": qps}]}
    if calibration is not None:
        payload["calibration"] = calibration
    return f"{suite}-{seq:04d}.json", payload


def _write_history(tmp_path, entries):
    history = tmp_path / "BENCH_history"
    history.mkdir()
    for name, payload in entries:
        (history / name).write_text(json.dumps(payload))
    return history


class TestLoadHistory:
    def test_rows_sorted_and_keyed_like_the_gate(self, tmp_path):
        history = _write_history(tmp_path, [
            _entry(2, 60.0, 1000.0), _entry(1, 80.0, 1000.0)])
        rows = load_history(history)
        assert [r["seq"] for r in rows] == [1, 2]
        assert rows[0]["label"] == "scale=0.02, concurrency=8, workers=1"
        assert rows[0]["normalised"] == 80.0 / 1000.0

    def test_unstamped_entry_has_no_normalised_value(self, tmp_path):
        history = _write_history(tmp_path, [_entry(1, 80.0)])
        (row,) = load_history(history)
        assert row["normalised"] is None

    def test_corrupt_and_unknown_entries_skipped(self, tmp_path):
        history = _write_history(tmp_path, [_entry(1, 80.0)])
        (history / "serve-0002.json").write_text("{not json")
        (history / "mystery-0001.json").write_text(
            json.dumps({"bench": "mystery", "points": []}))
        assert len(load_history(history)) == 1

    def test_suite_filter(self, tmp_path):
        history = _write_history(tmp_path, [_entry(1, 80.0)])
        assert load_history(history, ["scale"]) == []
        assert len(load_history(history, ["serve"])) == 1


class TestRendering:
    def test_markdown_delta_uses_normalised_values(self, tmp_path):
        # same code speed on a machine twice as fast: delta must be 0%
        history = _write_history(tmp_path, [
            _entry(1, 80.0, 1000.0), _entry(2, 160.0, 2000.0)])
        markdown = render_markdown(load_history(history))
        assert "+0.0%" in markdown
        assert "## serve (qps)" in markdown

    def test_markdown_raw_delta_without_stamps(self, tmp_path):
        history = _write_history(tmp_path, [
            _entry(1, 80.0), _entry(2, 40.0)])
        assert "-50.0%" in render_markdown(load_history(history))

    def test_empty_history_renders_placeholder(self):
        assert "No history entries" in render_markdown([])

    def test_csv_round_trips_every_observation(self, tmp_path):
        history = _write_history(tmp_path, [
            _entry(1, 80.0, 1000.0), _entry(2, 60.0, 1000.0)])
        rows = load_history(history)
        text = render_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0].startswith("suite,seq,label,metric")
        assert len(lines) == 1 + len(rows)


class TestCli:
    def test_writes_both_artifacts(self, tmp_path):
        history = _write_history(tmp_path, [_entry(1, 80.0, 1000.0)])
        md = tmp_path / "trends.md"
        out_csv = tmp_path / "trends.csv"
        assert main(["--history-dir", str(history),
                     "--out-md", str(md),
                     "--out-csv", str(out_csv)]) == 0
        assert "## serve" in md.read_text()
        assert out_csv.read_text().count("\n") == 2

    def test_missing_history_dir_fails_cleanly(self, tmp_path):
        assert main(["--history-dir",
                     str(tmp_path / "nope")]) == 2
