"""Tests for the released-dataset export and the CLI."""

import csv
import json

import pytest

from repro.cli import main as cli_main
from repro.reporting.dataset_export import (
    export_all,
    export_campaigns_json,
    export_samples_csv,
    export_wallets_csv,
)


class TestSamplesCsv:
    def test_row_count_matches_records(self, pipeline_result, tmp_path):
        path = tmp_path / "samples.csv"
        rows = export_samples_csv(pipeline_result, path)
        assert rows == len(pipeline_result.records)

    def test_table1_schema(self, pipeline_result, tmp_path):
        path = tmp_path / "samples.csv"
        export_samples_csv(pipeline_result, path)
        with path.open() as handle:
            reader = csv.DictReader(handle)
            assert reader.fieldnames == [
                "SHA256", "POOL", "URLPOOL", "USER", "PASS", "NTHREADS",
                "AGENT", "DSTIP", "DSTPORT", "DNSRR", "SOURCE", "FS",
                "ITW_URL", "PACKER", "POSITIVES", "TYPE"]
            first = next(reader)
            assert len(first["SHA256"]) == 64
            assert first["TYPE"] in ("Miner", "Ancillary")

    def test_types_partition(self, pipeline_result, tmp_path):
        path = tmp_path / "samples.csv"
        export_samples_csv(pipeline_result, path)
        with path.open() as handle:
            types = {row["TYPE"] for row in csv.DictReader(handle)}
        assert types == {"Miner", "Ancillary"}


class TestWalletsCsv:
    def test_rows_match_profiles(self, pipeline_result, tmp_path):
        path = tmp_path / "wallets.csv"
        rows = export_wallets_csv(pipeline_result, path)
        expected = sum(len(p.records)
                       for p in pipeline_result.profiles.values())
        assert rows == expected

    def test_total_paid_parsable(self, pipeline_result, tmp_path):
        path = tmp_path / "wallets.csv"
        export_wallets_csv(pipeline_result, path)
        with path.open() as handle:
            total = sum(float(row["TOTAL_PAID"])
                        for row in csv.DictReader(handle)
                        if row["POOL"] != "etn-pool"
                        and not row["POOL"].startswith(("50btc", "slush",
                                                        "btcdig", "f2",
                                                        "supr")))
        measured = sum(p.total_paid
                       for p in pipeline_result.profiles.values())
        assert total == pytest.approx(measured, rel=1e-3)


class TestCampaignsJson:
    def test_count(self, pipeline_result, tmp_path):
        path = tmp_path / "campaigns.json"
        count = export_campaigns_json(pipeline_result, path)
        assert count == len(pipeline_result.campaigns)

    def test_fields(self, pipeline_result, tmp_path):
        path = tmp_path / "campaigns.json"
        export_campaigns_json(pipeline_result, path)
        data = json.loads(path.read_text())
        first = data["campaigns"][0]
        for field in ("campaign_id", "num_samples", "num_wallets",
                      "coins", "total_xmr", "pools", "stock_tools"):
            assert field in first

    def test_export_all_bundle(self, pipeline_result, tmp_path):
        counts = export_all(pipeline_result, tmp_path / "bundle")
        assert set(counts) == {"samples", "wallets", "campaigns"}
        assert (tmp_path / "bundle" / "samples.csv").exists()
        assert (tmp_path / "bundle" / "wallets.csv").exists()
        assert (tmp_path / "bundle" / "campaigns.json").exists()


class TestCli:
    def test_measure(self, capsys, tmp_path):
        code = cli_main(["measure", "--scale", "0.002", "--seed", "5",
                         "--export", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "campaigns:" in out
        assert (tmp_path / "out" / "samples.csv").exists()

    def test_profile_reports_world_generation(self, capsys, monkeypatch):
        from repro import cli
        monkeypatch.setattr(cli, "_WORLD_CACHE", {})
        argv = ["measure", "--scale", "0.002", "--seed", "6"]
        assert cli_main(argv + ["--profile"]) == 0
        profiled = capsys.readouterr()
        first = profiled.err.splitlines()[0]
        assert first.startswith("world generation ")
        assert first.endswith(" samples")
        assert cli_main(argv) == 0  # the world is reused: no line
        plain = capsys.readouterr()
        assert plain.out == profiled.out and plain.err == ""

    def test_casestudy_freebuf(self, capsys):
        code = cli_main(["casestudy", "--scale", "0.002", "--seed", "5",
                         "--name", "Freebuf"])
        assert code == 0
        out = capsys.readouterr().out
        assert "xt.freebuf.info" in out

    def test_casestudy_unknown_name(self, capsys):
        code = cli_main(["casestudy", "--scale", "0.002", "--seed", "5",
                         "--name", "Nonexistent"])
        assert code == 1

    def test_defense(self, capsys):
        code = cli_main(["defense", "--scale", "0.002", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "blacklist:" in out
        assert "fork policy:" in out

    def test_report_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "dossiers.md"
        code = cli_main(["report", "--scale", "0.002", "--seed", "5",
                         "--top", "2", "--output", str(out_file)])
        assert code == 0
        text = out_file.read_text()
        assert text.count("# Campaign C#") == 2

    def test_report_to_stdout(self, capsys):
        code = cli_main(["report", "--scale", "0.002", "--seed", "5",
                         "--top", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "## Identity" in out

    def test_exhibits(self, capsys):
        code = cli_main(["exhibits", "--scale", "0.002", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table IV" in out
        assert "Table XI" in out
