"""Tier-1 gate: ``pytest`` itself fails on new reprolint violations.

This keeps the invariant checks active even where CI is unavailable —
a change that breaks a correctness contract fails the ordinary test
run, with the same findings ``repro lint`` would print.  The CLI tests
pin the gate's exit codes: any finding fails, in every output format.
"""

import json
import shutil
import subprocess
from pathlib import Path

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "lint"


class TestLintGate:
    def test_source_tree_has_no_unbaselined_findings(self,
                                                     source_tree_lint):
        run = source_tree_lint
        assert run.report.parse_errors == []
        assert run.report.modules_scanned > 100  # the real tree, not a stub
        rendered = [f.render() for f in run.report.findings]
        assert rendered == [], (
            "reprolint findings (fix them, or pragma-annotate with a "
            "justification):\n" + "\n".join(rendered))


def _tree_with(tmp_path, fixture):
    root = tmp_path / "tree"
    root.mkdir()
    shutil.copy(FIXTURES / fixture, root / fixture)
    return root


class TestLintCli:
    def test_finding_fails_the_gate(self, tmp_path, capsys):
        root = _tree_with(tmp_path, "exc_bad.py")
        assert main(["lint", "--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "exc_bad.py:" in out and " EXC001 " in out

    def test_json_report_fails_the_gate(self, tmp_path, capsys):
        root = _tree_with(tmp_path, "exc_bad.py")
        assert main(["lint", "--root", str(root), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert ("EXC001", "exc_bad.py") in {
            (f["rule_id"], f["path"]) for f in doc["findings"]}

    def test_sarif_report_fails_the_gate(self, tmp_path, capsys):
        root = _tree_with(tmp_path, "exc_bad.py")
        assert main(["lint", "--root", str(root), "--sarif"]) == 1
        (run,) = json.loads(capsys.readouterr().out)["runs"]
        assert ("EXC001", "exc_bad.py") in {
            (r["ruleId"],
             r["locations"][0]["physicalLocation"]["artifactLocation"]
             ["uri"])
            for r in run["results"]}

    def test_clean_tree_passes(self, tmp_path, capsys):
        root = _tree_with(tmp_path, "exc_ok.py")
        assert main(["lint", "--root", str(root)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_changed_cache_sits_next_to_pyproject(self, tmp_path,
                                                  capsys):
        repo = tmp_path / "repo"
        pkg = repo / "src" / "pkg"
        pkg.mkdir(parents=True)
        (repo / "pyproject.toml").write_text("[project]\nname = 'p'\n")
        (pkg / "a.py").write_text("A = 1\n")

        def git(*argv):
            subprocess.run(
                ["git", "-c", "user.email=t@t", "-c", "user.name=t",
                 *argv], cwd=repo, check=True, capture_output=True)

        git("init", "-b", "main")
        git("add", ".")
        git("commit", "-m", "seed")
        (pkg / "a.py").write_text("A = 2\n")
        assert main(["lint", "--root", str(pkg), "--changed"]) == 0
        assert "1 file(s) since the merge base" in capsys.readouterr().err
        assert (repo / ".reprolint-cache").is_file()
        assert not (pkg / ".reprolint-cache").exists()
