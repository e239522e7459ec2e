"""The shipped reprolint rule families.

Importing this package registers every rule ID in
:data:`repro.lint.findings.RULE_REGISTRY`; :func:`default_rules`
instantiates the per-module set and :func:`default_project_rules` the
whole-program set — together they are what the CLI and the pytest
gate run.
"""

from typing import List

from repro.lint.engine import ProjectRule, Rule
from repro.lint.rules.cache_keys import CacheKeyRule
from repro.lint.rules.concurrency import ConcurrencyRule
from repro.lint.rules.deadcode import DeadCodeRule
from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.exception_hygiene import ExceptionHygieneRule
from repro.lint.rules.pragma_hygiene import PRAGMA001  # noqa: F401
from repro.lint.rules.schema import SchemaContractRule
from repro.lint.rules.taint import TaintSeparationRule
from repro.lint.rules.units import UnitKindRule

__all__ = [
    "CacheKeyRule",
    "ConcurrencyRule",
    "DeadCodeRule",
    "DeterminismRule",
    "ExceptionHygieneRule",
    "SchemaContractRule",
    "TaintSeparationRule",
    "UnitKindRule",
    "default_project_rules",
    "default_rules",
]


def default_rules() -> List[Rule]:
    """One instance of every shipped per-module rule family."""
    return [
        TaintSeparationRule(),
        DeterminismRule(),
        CacheKeyRule(),
        ExceptionHygieneRule(),
    ]


def default_project_rules() -> List[ProjectRule]:
    """One instance of every shipped whole-program pass."""
    return [
        SchemaContractRule(),
        DeadCodeRule(),
        ConcurrencyRule(),
        UnitKindRule(),
    ]
