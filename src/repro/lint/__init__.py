"""reprolint — AST/dataflow invariant checking for the pipeline.

The measurement's correctness contracts (enrichment never groups,
grouping ignores donation wallets, streamed == batch, checkpoints are
crash-safe, memo keys are complete, failures are loud) are enforced
mechanically: per-module rule families over a single compile-once
pass of each module, plus whole-program passes (call graph +
interprocedural taint, record-schema contracts, dead-symbol
reachability) over the per-module fact summaries.  See
``docs/static-analysis.md`` for the rule catalogue and pragma syntax.

High-level entry points:

* :func:`lint_source_tree` — lint a tree for gating; what the
  ``repro lint`` CLI, the pytest gate and the overhead bench all call.
  ``changed_only=True`` narrows reporting to files differing from the
  git merge base.
* :class:`repro.lint.engine.LintEngine` — the underlying engine, for
  custom rule sets (the fixture tests drive it directly).
* :func:`repro.lint.callgraph.render_graph` /
  :func:`build_project_index` — the ``repro lint --graph`` dump.
"""

import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from repro.lint.callgraph import (
    ProjectIndex,
    render_concurrency,
    render_graph,
)
from repro.lint.engine import LintEngine, ProjectRule, Rule, lint_tree
from repro.lint.findings import (
    Finding,
    LintReport,
    RULE_REGISTRY,
    known_rule,
)
import repro.lint.rules  # noqa: F401  (registers every rule ID)

__all__ = [
    "Finding",
    "LintEngine",
    "LintReport",
    "LintRun",
    "ProjectIndex",
    "ProjectRule",
    "RULE_REGISTRY",
    "Rule",
    "build_project_index",
    "changed_files",
    "default_source_root",
    "known_rule",
    "lint_source_tree",
    "lint_tree",
    "render_concurrency",
    "render_graph",
]


def default_source_root() -> Path:
    """The installed ``repro`` package directory — what HEAD lints."""
    return Path(__file__).resolve().parent.parent


def changed_files(root: Path,
                  base_refs: Tuple[str, ...] = ("origin/main", "main"),
                  ) -> Optional[List[str]]:
    """Files under ``root`` differing from the git merge base.

    Tries ``git merge-base HEAD <ref>`` for each ref in order, then
    diffs (committed *and* working-tree changes).  Returns relpaths
    under ``root``; ``None`` means "couldn't tell" (outside a git
    checkout, or no usable base ref) and callers should fall back to
    a full scan.
    """
    root = Path(root).resolve()

    def git(*argv: str) -> Optional[str]:
        try:
            proc = subprocess.run(
                ["git", *argv], cwd=root, capture_output=True,
                text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout if proc.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None:
        return None
    for ref in base_refs:
        base = git("merge-base", "HEAD", ref)
        if base is None:
            continue
        diff = git("diff", "--name-only", base.strip(), "--", ".")
        if diff is None:
            continue
        repo_top = Path(top.strip())
        out: List[str] = []
        for line in diff.splitlines():
            if not line.endswith(".py"):
                continue
            absolute = repo_top / line
            try:
                out.append(absolute.relative_to(root).as_posix())
            except ValueError:
                continue  # changed file outside the lint root
        return sorted(set(out))
    return None


@dataclass
class LintRun:
    """One lint evaluation, ready for gating."""

    report: LintReport
    #: relpaths reporting was narrowed to (``--changed``), or None.
    focus: Optional[List[str]] = None

    def ok(self) -> bool:
        """Gate verdict: any finding or parse error fails."""
        return not (self.report.parse_errors or self.report.findings)


def lint_source_tree(root: Optional[Path] = None,
                     changed_only: bool = False,
                     cache_path: Optional[Path] = None) -> LintRun:
    """Lint ``root`` (default: the repro package).

    ``changed_only`` narrows the *reported* files to those differing
    from the git merge base (the whole tree is still summarized so
    cross-module passes stay sound); when git can't answer, the full
    tree is reported.  Changed-only runs keep a fact cache
    (``.reprolint-cache`` next to the nearest ``pyproject.toml``, or
    ``cache_path``) so unchanged modules feed the whole-program passes
    without re-parsing.
    """
    root = Path(root) if root is not None else default_source_root()
    focus: Optional[List[str]] = None
    if changed_only:
        focus = changed_files(root)
        if focus is not None and not focus:
            # clean diff: nothing to lint, nothing to gate.
            return LintRun(report=LintReport(), focus=[])
        if focus is not None and cache_path is None:
            project = _project_dir(root)
            if project is not None:
                cache_path = project / ".reprolint-cache"
    report = LintEngine(cache_path=cache_path).run(root, focus=focus)
    return LintRun(report=report, focus=focus)


def _project_dir(start: Path) -> Optional[Path]:
    """The nearest directory at or above ``start`` with a pyproject."""
    start = Path(start).resolve()
    if start.is_file():
        start = start.parent
    for directory in (start, *start.parents):
        if (directory / "pyproject.toml").exists():
            return directory
    return None


def build_project_index(root: Optional[Path] = None) -> ProjectIndex:
    """Summarize ``root`` into the whole-program index (``--graph``)."""
    from repro.lint.facts import summarize_module
    from repro.lint.symbols import build_module_info
    root = Path(root) if root is not None else default_source_root()
    root = root.resolve()
    base = root.parent if root.is_file() else root
    summaries = []
    for path in LintEngine.discover(root):
        try:
            summaries.append(
                summarize_module(build_module_info(path, base)))
        except (SyntaxError, UnicodeDecodeError):
            continue
    return ProjectIndex(summaries)
