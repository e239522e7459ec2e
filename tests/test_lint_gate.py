"""Tier-1 gate: ``pytest`` itself fails on new reprolint violations.

This keeps the invariant checks active even where CI is unavailable —
a change that breaks a correctness contract fails the ordinary test
run, with the same findings ``repro lint`` would print.
"""

from pathlib import Path

from repro.lint import default_source_root
from repro.lint.baseline import BASELINE_NAME, find_baseline


def _repo_baseline():
    return find_baseline(default_source_root())


class TestLintGate:
    def test_source_tree_has_no_unbaselined_findings(self,
                                                     source_tree_lint):
        run = source_tree_lint
        assert run.report.parse_errors == []
        assert run.report.modules_scanned > 100  # the real tree, not a stub
        rendered = [f.render() for f in run.regressions]
        assert rendered == [], (
            "reprolint regressions (fix them, pragma-annotate with a "
            "justification, or — for accepted legacy findings only — "
            f"add them to {BASELINE_NAME}):\n" + "\n".join(rendered))

    def test_baseline_carries_no_stale_grants(self, source_tree_lint):
        # strict-mode invariant: the committed baseline only lists
        # findings the code still has, so it shrinks monotonically.
        assert source_tree_lint.expired == [], (
            "stale baseline grants — regenerate with "
            "`repro lint --update-baseline`")

    def test_committed_baseline_is_discoverable(self):
        path = _repo_baseline()
        assert path is not None and path.name == BASELINE_NAME
        assert path.parent / "pyproject.toml" in path.parent.iterdir()

    def test_strict_gate_verdict(self, source_tree_lint):
        assert source_tree_lint.ok(strict=True)
