"""TAINT — enrichment data must never become campaign-grouping edges.

The paper (§III-E) is explicit that enrichment annotations — PPI botnet
membership, stock-tool CTPH attribution, packer/entropy findings — are
*informative*, not grouping features: third-party PPI infrastructure
and off-the-shelf tool binaries are shared by unrelated operators, so
an edge drawn from them would merge unrelated campaigns.  The code
keeps this by convention (enrichment runs after aggregation); these
rules keep it mechanically.

Applicability: a module participates in grouping iff it defines or
imports :func:`record_attachments` / :func:`build_campaign` — exactly
the campaign core (``core/aggregation.py``) and its sharded front-end
(``scale/shards.py``) today, and automatically any future module that
takes on edge construction.

* **TAINT001** — a grouping module imports an enrichment module.
* **TAINT002** — a grouping module *reads* an enrichment-owned
  attribute (``uses_ppi``, ``stock_tools``, ``packer`` ...).  Writes
  and dataclass field declarations are fine — campaigns carry the
  annotations; they must not be grouped by them.
"""

import ast
from typing import Set

from repro.lint.contracts import (
    GROUPING_FUNCTIONS,
    TAINTED_ATTRIBUTES,
    TAINTED_MODULES,
)
from repro.lint.engine import Emitter, ProjectEmitter, ProjectRule, Rule
from repro.lint.findings import register_rule
from repro.lint.symbols import FUNCTION_NODES, ModuleInfo

__all__ = [
    "GROUPING_FUNCTIONS", "TAINTED_ATTRIBUTES", "TAINTED_MODULES",
    "TaintSeparationRule", "InterproceduralTaintRule",
    "is_grouping_module",
]

TAINT001 = register_rule(
    "TAINT001", "taint",
    "grouping module imports an enrichment module")
TAINT002 = register_rule(
    "TAINT002", "taint",
    "grouping code reads an enrichment-owned attribute")
TAINT003 = register_rule(
    "TAINT003", "taint",
    "enrichment-tainted value reaches the checkpoint store")


def is_grouping_module(module: ModuleInfo) -> bool:
    """Whether ``module`` defines or imports the edge-building core."""
    if GROUPING_FUNCTIONS.intersection(module.module_functions):
        return True
    for name in GROUPING_FUNCTIONS:
        origin = module.origin_of(name)
        if origin is not None and origin.endswith("." + name):
            return True
    return False


class TaintSeparationRule(Rule):
    """TAINT001/TAINT002 over grouping modules."""

    def applies(self, module: ModuleInfo) -> bool:
        return is_grouping_module(module)

    def visit(self, node: ast.AST, module: ModuleInfo,
              emitter: Emitter) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            self._check_import(node, emitter)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load) and \
                node.attr in TAINTED_ATTRIBUTES:
            emitter.emit(
                TAINT002.rule_id, node,
                f"enrichment attribute '.{node.attr}' read inside a "
                "grouping module — enrichment must stay informative, "
                "never a grouping edge (paper §III-E)")
        elif isinstance(node, ast.Subscript) and \
                isinstance(node.ctx, ast.Load) and \
                isinstance(node.slice, ast.Constant) and \
                node.slice.value in TAINTED_ATTRIBUTES:
            # field sensitivity for record-shaped dicts: the key is
            # the same enrichment-owned name, the container differs.
            emitter.emit(
                TAINT002.rule_id, node,
                f"enrichment key '[{node.slice.value!r}]' read inside "
                "a grouping module — enrichment must stay "
                "informative, never a grouping edge (paper §III-E)")

    def _check_import(self, node: ast.AST, emitter: Emitter) -> None:
        names: Set[str] = set()
        if isinstance(node, ast.Import):
            names = {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = {node.module}
            names |= {f"{node.module}.{alias.name}"
                      for alias in node.names}
        for name in names:
            if any(name == t or name.startswith(t + ".")
                   for t in TAINTED_MODULES):
                emitter.emit(
                    TAINT001.rule_id, node,
                    f"grouping module imports '{name}' — enrichment "
                    "outputs must not feed edge construction")
                return


class InterproceduralTaintRule(ProjectRule):
    """TAINT002 (any call depth) + TAINT003 via the fixpoint engine.

    The per-module rule above catches *direct* enrichment reads in
    grouping code; this pass catches the laundered ones — a helper
    chain (possibly crossing a ``pool.submit`` boundary) whose return
    value carries enrichment taint into a grouping module, and any
    path by which a tainted value reaches the checkpoint store
    (:mod:`repro.lint.interproc` documents the lattice and the
    deliberate mutation-tracking gap).
    """

    def run(self, index, emitter: ProjectEmitter) -> None:
        from repro.lint.interproc import (
            resolved_program,
            run_taint_analysis,
        )
        for finding in run_taint_analysis(resolved_program(index)):
            emitter.emit(
                finding.rule_id, finding.module, finding.line,
                finding.col, finding.message, symbol=finding.symbol)
