"""The reprolint engine: compile once, traverse once, run every rule.

Each module under the lint root is read and parsed exactly one time;
the engine then makes a single depth-first pass over the AST while
maintaining the enclosing-scope stack, offering every node to each
applicable rule (mirroring the scan kernel's one-pass philosophy: the
per-module cost is one parse + one walk regardless of how many rule
families ship).  The same parse also distils the module into a
picklable fact summary (:mod:`repro.lint.facts`); after every module
is in, the *project rules* — interprocedural taint, schema contracts,
dead-symbol reachability, fork/thread/asyncio safety and resource
lifecycle — run over the joined
:class:`~repro.lint.callgraph.ProjectIndex` without touching an AST
again.  The concurrency and resource families are whole-program by
construction: a blocking call is only a defect if a coroutine can
*reach* it, a thread spawn only matters at a *later* fork point, so
their facts flow through the same resolved call graph
(:func:`repro.lint.interproc.resolved_program`) the taint pass uses.

Modules are linted one after another in path order.  ``focus``
narrows *reporting* to a subset of files (``repro lint --changed``)
while the whole program still feeds the project passes.
"""

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.facts import ModuleSummary, summarize_module
from repro.lint.findings import Finding, LintReport, known_rule
from repro.lint.symbols import (
    FUNCTION_NODES,
    ModuleInfo,
    build_module_info,
)

#: directories never linted (caches, build trees).
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", "build"})


class Emitter:
    """The finding callback handed to rules for one module."""

    def __init__(self, module: ModuleInfo, report: LintReport) -> None:
        self._module = module
        self._report = report
        self._stack: List[str] = []

    def push(self, name: str) -> None:
        """Enter a function/class scope named ``name``."""
        self._stack.append(name)

    def pop(self) -> None:
        """Leave the innermost scope."""
        self._stack.pop()

    @property
    def symbol(self) -> str:
        return ".".join(self._stack)

    def emit(self, rule_id: str, node: ast.AST, message: str,
             symbol: Optional[str] = None) -> None:
        """Record one finding (or its suppression) at ``node``."""
        if known_rule(rule_id) is None:
            raise ValueError(f"unregistered rule id {rule_id}")
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        finding = Finding(
            rule_id=rule_id, path=self._module.relpath, line=line,
            col=col, message=message,
            symbol=symbol if symbol is not None else self.symbol)
        if self._module.pragmas.disabled(line, rule_id):
            self._report.suppressed.append(finding)
        else:
            self._report.findings.append(finding)


class Rule:
    """Base class: override ``applies``/``visit``/``finish``.

    ``visit`` is called once per AST node during the engine's single
    traversal; ``finish`` once per module afterwards, for rules that
    need whole-module context (e.g. tracing a submitted callable back
    through call sites).
    """

    def applies(self, module: ModuleInfo) -> bool:
        """Whether this rule runs on ``module`` at all."""
        return True

    def visit(self, node: ast.AST, module: ModuleInfo,
              emitter: Emitter) -> None:
        """Offered every AST node during the single traversal."""

    def finish(self, module: ModuleInfo, emitter: Emitter) -> None:
        """Called once per module after the traversal completes."""


class ProjectEmitter:
    """Finding callback for whole-program passes.

    Findings land on a *module* (by summary) rather than the module
    being walked; pragma suppression is routed through that module's
    own pragma index, so ``# reprolint: disable=`` works identically
    for project findings.
    """

    def __init__(self, index, report: LintReport) -> None:
        self._index = index
        self._report = report

    def emit(self, rule_id: str, module_dotted: str, line: int,
             col: int, message: str, symbol: str = "") -> None:
        """Record one project finding against ``module_dotted``."""
        if known_rule(rule_id) is None:
            raise ValueError(f"unregistered rule id {rule_id}")
        summary = self._index.by_dotted[module_dotted]
        finding = Finding(
            rule_id=rule_id, path=summary.relpath, line=line, col=col,
            message=message, symbol=symbol)
        if summary.pragmas.disabled(line, rule_id):
            self._report.suppressed.append(finding)
        else:
            self._report.findings.append(finding)


class ProjectRule:
    """Base class for whole-program passes over the fact summaries."""

    def applies(self, index) -> bool:
        """Whether this pass runs on the project at all."""
        return True

    def run(self, index, emitter: ProjectEmitter) -> None:
        """One pass over the joined project index."""


# --------------------------------------------------------------------------
# Per-module work
# --------------------------------------------------------------------------

#: (relpath, findings, suppressed, parse error, summary) per module.
ModuleResult = Tuple[str, List[Finding], List[Finding], Optional[str],
                     Optional[ModuleSummary]]


def _lint_one(path: Path, base: Path,
              rules: Sequence[Rule],
              run_module_rules: bool) -> ModuleResult:
    """Parse + walk + summarize one module."""
    try:
        module = build_module_info(path, base,
                                   with_pragmas=run_module_rules)
    except (SyntaxError, UnicodeDecodeError) as exc:
        return (str(path), [], [], f"{path}: {exc}", None)
    report = LintReport()
    if run_module_rules:
        active = [rule for rule in rules if rule.applies(module)]
        if active:
            emitter = Emitter(module, report)
            _walk(module.tree, module, emitter, active)
            for rule in active:
                rule.finish(module, emitter)
    return (module.relpath, report.findings, report.suppressed, None,
            summarize_module(module))


def _walk(node: ast.AST, module: ModuleInfo, emitter: Emitter,
          rules: Sequence[Rule]) -> None:
    scoped = isinstance(node, FUNCTION_NODES + (ast.ClassDef,))
    if scoped:
        emitter.push(node.name)
    for rule in rules:
        rule.visit(node, module, emitter)
    for child in ast.iter_child_nodes(node):
        _walk(child, module, emitter, rules)
    if scoped:
        emitter.pop()


class LintEngine:
    """Runs a rule set over every Python module under a root."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None,
                 project_rules: Optional[Sequence[ProjectRule]] = None,
                 cache_path=None) -> None:
        self._default_rules = rules is None
        if rules is None:
            from repro.lint.rules import default_rules
            rules = default_rules()
            if project_rules is None:
                from repro.lint.rules import default_project_rules
                project_rules = default_project_rules()
        self.rules = list(rules)
        # an explicit per-module rule set means *exactly* those rules
        self.project_rules = list(project_rules or [])
        self._cache = None
        if cache_path is not None:
            from repro.lint.cache import SummaryCache
            self._cache = SummaryCache(cache_path)

    # -- module discovery --------------------------------------------------

    @staticmethod
    def discover(root: Path) -> List[Path]:
        """Every lintable ``.py`` file under ``root``, sorted."""
        root = Path(root)
        if root.is_file():
            return [root]
        return sorted(
            p for p in root.rglob("*.py")
            if not _SKIP_DIRS.intersection(p.relative_to(root).parts))

    # -- the pass ----------------------------------------------------------

    def run(self, root: Path,
            paths: Optional[Iterable[Path]] = None,
            focus: Optional[Iterable[str]] = None) -> LintReport:
        """Lint ``paths`` (default: all modules) relative to ``root``.

        ``paths`` defines the *program* the project passes see;
        ``focus`` (relpaths) narrows which files findings are reported
        for — the whole program is still parsed and summarized so
        cross-module analysis stays sound under ``--changed``.
        """
        root = Path(root).resolve()
        base = root.parent if root.is_file() else root
        path_list = [Path(p).resolve()
                     for p in (paths if paths is not None
                               else self.discover(root))]
        focus_set: Optional[Set[str]] = (
            set(focus) if focus is not None else None)
        report = LintReport()
        results = self._run_modules(path_list, base, focus_set)
        summaries: List[ModuleSummary] = []
        for relpath, findings, suppressed, error, summary in results:
            if error is not None:
                report.parse_errors.append(error)
                continue
            report.findings.extend(findings)
            report.suppressed.extend(suppressed)
            report.modules_scanned += 1
            if summary is not None:
                summaries.append(summary)
        self._run_project(summaries, report, focus_set)
        self._check_stale_pragmas(summaries, report, focus_set)
        report.findings.sort(key=Finding.sort_key)
        return report

    def _run_modules(self, path_list: List[Path], base: Path,
                     focus: Optional[Set[str]]) -> List[ModuleResult]:
        from repro.lint.cache import cache_stamp
        results = []
        for path in path_list:
            relpath = (path.relative_to(base).as_posix()
                       if path.is_relative_to(base) else str(path))
            run_module = focus is None or relpath in focus
            stamp = (cache_stamp(path) if self._cache is not None
                     else None)
            if self._cache is not None and not run_module:
                # facts-only module: serve from the warm cache
                cached = self._cache.get(relpath, stamp)
                if cached is not None:
                    results.append((relpath, [], [], None, cached))
                    continue
            result = _lint_one(path, base, self.rules, run_module)
            if self._cache is not None and result[3] is None and \
                    result[4] is not None:
                self._cache.put(relpath, stamp, result[4])
            results.append(result)
        if self._cache is not None:
            self._cache.save()
        return results

    def _run_project(self, summaries: List[ModuleSummary],
                     report: LintReport,
                     focus: Optional[Set[str]]) -> None:
        if not self.project_rules or not summaries:
            return
        from repro.lint.callgraph import ProjectIndex
        index = ProjectIndex(summaries)
        scoped = (report if focus is None else LintReport())
        emitter = ProjectEmitter(index, scoped)
        for rule in self.project_rules:
            if rule.applies(index):
                rule.run(index, emitter)
        if focus is not None:
            report.findings.extend(
                f for f in scoped.findings if f.path in focus)
            report.suppressed.extend(
                f for f in scoped.suppressed if f.path in focus)

    def _check_stale_pragmas(self, summaries: List[ModuleSummary],
                             report: LintReport,
                             focus: Optional[Set[str]]) -> None:
        """PRAGMA001: suppressions that no longer suppress anything.

        Runs after the per-module *and* project passes so a pragma
        justified by any rule family counts as live.  The check keys
        off ``report.suppressed``: a pragma rule that silenced at
        least one finding (on its line, or anywhere for
        ``disable-file``) is live; everything else is stale noise that
        would hide future regressions.
        """
        if known_rule("PRAGMA001") is None or not self._default_rules:
            return
        for summary in summaries:
            if focus is not None and summary.relpath not in focus:
                continue
            by_line: Set[Tuple[str, int]] = set()
            file_wide: Set[str] = set()
            for finding in report.suppressed:
                if finding.path != summary.relpath:
                    continue
                by_line.add((finding.rule_id, finding.line))
                file_wide.add(finding.rule_id)
            for entry in summary.pragmas.entries:
                if entry.scope == "disable-file":
                    stale = [r for r in entry.rules
                             if r != "all" and r not in file_wide]
                    if "all" in entry.rules and not file_wide:
                        stale.append("all")
                else:
                    stale = [r for r in entry.rules
                             if r != "all"
                             and (r, entry.line) not in by_line]
                    if "all" in entry.rules and not any(
                            line == entry.line
                            for _, line in by_line):
                        stale.append("all")
                if not stale:
                    continue
                finding = Finding(
                    rule_id="PRAGMA001", path=summary.relpath,
                    line=entry.line, col=1,
                    message=f"stale pragma: no finding matches "
                    f"'{entry.scope}={','.join(stale)}' — remove the "
                    f"suppression so it cannot mask a future "
                    f"regression")
                if summary.pragmas.disabled(entry.line, "PRAGMA001"):
                    report.suppressed.append(finding)
                else:
                    report.findings.append(finding)


def lint_tree(root, rules: Optional[Sequence[Rule]] = None) -> LintReport:
    """Convenience one-shot: lint every module under ``root``."""
    return LintEngine(rules).run(Path(root))
