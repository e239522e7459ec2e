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

What a run can check is checked at run time instead:
``tests/test_enrichment_separation.py`` scrambles every
enrichment-owned record field and asserts the campaign partition does
not move, and ``tests/test_checkpoint_fingerprint.py`` pins the same
checkpoint bytes with enrichment replaced by a no-op.
"""

import ast
from typing import Set

from repro.lint.contracts import (
    GROUPING_FUNCTIONS,
    TAINTED_ATTRIBUTES,
    TAINTED_MODULES,
)
from repro.lint.engine import Emitter, Rule
from repro.lint.findings import register_rule
from repro.lint.symbols import ModuleInfo

__all__ = [
    "GROUPING_FUNCTIONS", "TAINTED_ATTRIBUTES", "TAINTED_MODULES",
    "TaintSeparationRule", "is_grouping_module",
]

TAINT001 = register_rule(
    "TAINT001", "taint",
    "grouping module imports an enrichment module")
TAINT002 = register_rule(
    "TAINT002", "taint",
    "grouping code reads an enrichment-owned attribute")


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
