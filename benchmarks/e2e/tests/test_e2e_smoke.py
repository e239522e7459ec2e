"""The benchmark end to end at smoke size: checks pass, digests agree."""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "run.py"


def _run(tmp_path, name, *args):
    out = tmp_path / f"{name}.json"
    proc = subprocess.run([sys.executable, str(RUN), *args, "--smoke",
                           "--out", str(out)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), \
        json.loads(out.read_text())


def test_smoke_run_of_every_workload_passes_its_checks(tmp_path):
    result, payload = _run(tmp_path, "all", "--workload", "all")
    assert result["correct"] and result["failed"] == 0
    reports = {r["workload"]: r for r in payload["reports"]}
    assert set(reports) == {"batch", "ingest", "outofcore", "serve"}
    digests = {reports[w]["digest"] for w in ("batch", "ingest",
                                              "outofcore")}
    assert len(digests) == 1
    for report in reports.values():
        assert report["correct"] and report["attempted"] > 0
        assert all(entry["value"] > 0
                   for entry in report["metrics"].values())


def test_digest_is_identical_across_two_runs(tmp_path):
    # the seeds reorder the samples; the measurement must not notice
    first, first_report = _run(tmp_path, "one", "--workload", "batch",
                               "--seed", "1")
    second, second_report = _run(tmp_path, "two", "--workload", "batch",
                                 "--seed", "2")
    assert first["correct"] and second["correct"]
    assert first_report["digest"] == second_report["digest"]
