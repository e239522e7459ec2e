"""Regression-gate arithmetic: point matching and machine calibration.

The gate compares committed BENCH_*.json baselines against fresh
runs; these tests pin the behaviours PRs keep relying on — the serve
lane's (scale, concurrency, workers) point matching, the scale lane's
matching on scale alone, and the calibration stamp that normalises
throughput across machines of different speed (with a raw fallback
against stamp-less baselines).  ``GATE_METRICS`` is also the one list
of suites both entry points accept.
"""

import pytest

from repro import cli
from repro.common.calibrate import calibration_score
from repro.scale import bench
from repro.scale.bench import GATE_METRICS, compare_runs


def _serve_run(qps, calibration=None):
    payload = {"bench": "serve",
               "points": [{"scale": 0.02, "concurrency": 8,
                           "workers": 1, "qps": qps}]}
    if calibration is not None:
        payload["calibration"] = calibration
    return payload


class TestCompareRuns:
    def test_serve_suite_is_gated(self):
        metric, key_fields = GATE_METRICS["serve"]
        assert metric == "qps"
        assert key_fields == ("scale", "concurrency", "workers")

    def test_scale_keyed_on_scale(self):
        assert GATE_METRICS["scale"] == ("samples_per_s", ("scale",))

    def test_history_point_with_workers_still_matches(self):
        # scale history entries written before the lane dropped its
        # worker count carry ``workers``; they still gate on scale
        prev = {"bench": "scale",
                "points": [{"scale": 0.072, "workers": 1,
                            "samples_per_s": 900.0}]}
        cur = {"bench": "scale",
               "points": [{"scale": 0.072, "samples_per_s": 500.0}]}
        regressions, notes = compare_runs(prev, cur)
        assert len(regressions) == 1
        assert not any("new point" in n for n in notes)

    def test_raw_regression_detected(self):
        regressions, _ = compare_runs(_serve_run(800.0),
                                      _serve_run(500.0))
        assert len(regressions) == 1

    def test_raw_within_threshold_passes(self):
        regressions, _ = compare_runs(_serve_run(800.0),
                                      _serve_run(700.0))
        assert regressions == []

    def test_calibration_normalises_slower_machine(self):
        # half-speed machine, half throughput: hardware, not code —
        # but the same drop WITHOUT stamps is flagged raw.
        prev = _serve_run(800.0, calibration=2000.0)
        cur = _serve_run(400.0, calibration=1000.0)
        regressions, notes = compare_runs(prev, cur)
        assert regressions == []
        assert any("normalised" in n for n in notes)
        assert compare_runs(_serve_run(800.0), _serve_run(400.0))[0]

    def test_calibration_does_not_hide_code_regressions(self):
        prev = _serve_run(800.0, calibration=1500.0)
        cur = _serve_run(400.0, calibration=1500.0)
        assert len(compare_runs(prev, cur)[0]) == 1

    def test_stampless_baseline_compares_raw(self):
        prev = _serve_run(800.0)
        cur = _serve_run(760.0, calibration=1000.0)
        regressions, notes = compare_runs(prev, cur)
        assert regressions == []
        assert not any("normalised" in n for n in notes)


class TestSuites:
    def test_gated_suites_are_scale_and_serve(self):
        assert set(GATE_METRICS) == {"scale", "serve"}

    @pytest.mark.parametrize("suite", ["pipeline", "ingest", "scan",
                                       "lint"])
    def test_both_entry_points_refuse_a_deleted_lane(self, suite,
                                                     tmp_path):
        for entry in (bench.main, lambda argv: cli.main(["bench", *argv])):
            with pytest.raises(SystemExit) as exc:
                entry(["--suite", suite, "--out-dir", str(tmp_path)])
            assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []


class TestCalibration:
    def test_score_is_positive_and_repeatable(self):
        first = calibration_score()
        second = calibration_score()
        assert first > 0 and second > 0
        # same machine, same ballpark (best-of-three absorbs blips)
        assert abs(first - second) / max(first, second) < 0.5
