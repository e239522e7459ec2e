"""Regression-gate arithmetic: point matching and machine calibration.

The gate compares committed BENCH_*.json baselines against fresh
runs; these tests pin the behaviours PRs keep relying on — the lint
lane's (mode, workers) point matching, the scale and pipeline lanes'
matching on scale alone, and the calibration stamp that normalises
throughput across machines of different speed (with a raw fallback
against stamp-less baselines).
"""

from repro.common.calibrate import calibration_score
from repro.scale.bench import (
    GATE_METRICS,
    compare_runs,
    measure_lint_point,
)


def _lint_run(mps, calibration=None):
    payload = {"bench": "lint",
               "points": [{"mode": "cold", "workers": 1,
                           "modules": 155, "modules_per_s": mps}]}
    if calibration is not None:
        payload["calibration"] = calibration
    return payload


class TestCompareRuns:
    def test_lint_suite_is_gated(self):
        metric, key_fields = GATE_METRICS["lint"]
        assert metric == "modules_per_s"
        assert key_fields == ("mode", "workers")

    def test_scale_and_pipeline_keyed_on_scale(self):
        for suite in ("scale", "pipeline"):
            assert GATE_METRICS[suite] == ("samples_per_s", ("scale",))

    def test_history_point_with_workers_still_matches(self):
        # history entries written before the lanes dropped their
        # worker count carry ``workers``; they still gate on scale
        prev = {"bench": "pipeline",
                "points": [{"scale": 0.02, "workers": 1,
                            "samples_per_s": 900.0}]}
        cur = {"bench": "pipeline",
               "points": [{"scale": 0.02, "samples_per_s": 500.0}]}
        regressions, notes = compare_runs(prev, cur)
        assert len(regressions) == 1
        assert not any("new point" in n for n in notes)

    def test_raw_regression_detected(self):
        regressions, _ = compare_runs(_lint_run(80.0), _lint_run(50.0))
        assert len(regressions) == 1

    def test_raw_within_threshold_passes(self):
        regressions, _ = compare_runs(_lint_run(80.0), _lint_run(70.0))
        assert regressions == []

    def test_calibration_normalises_slower_machine(self):
        # half-speed machine, half throughput: hardware, not code —
        # but the same drop WITHOUT stamps is flagged raw.
        prev = _lint_run(80.0, calibration=2000.0)
        cur = _lint_run(40.0, calibration=1000.0)
        regressions, notes = compare_runs(prev, cur)
        assert regressions == []
        assert any("normalised" in n for n in notes)
        assert compare_runs(_lint_run(80.0), _lint_run(40.0))[0]

    def test_calibration_does_not_hide_code_regressions(self):
        prev = _lint_run(80.0, calibration=1500.0)
        cur = _lint_run(40.0, calibration=1500.0)
        assert len(compare_runs(prev, cur)[0]) == 1

    def test_stampless_baseline_compares_raw(self):
        prev = _lint_run(80.0)
        cur = _lint_run(76.0, calibration=1000.0)
        regressions, notes = compare_runs(prev, cur)
        assert regressions == []
        assert not any("normalised" in n for n in notes)


class TestCalibration:
    def test_score_is_positive_and_repeatable(self):
        first = calibration_score()
        second = calibration_score()
        assert first > 0 and second > 0
        # same machine, same ballpark (best-of-three absorbs blips)
        assert abs(first - second) / max(first, second) < 0.5


class TestLintPoint:
    def test_cold_point_shape(self):
        point = measure_lint_point("cold")
        assert point["suite"] == "lint"
        assert point["mode"] == "cold"
        assert point["workers"] == 1
        assert point["modules"] > 100
        assert point["parse_errors"] == 0
        assert point["modules_per_s"] > 0
