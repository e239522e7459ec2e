"""Finding and rule-identity types shared by every reprolint rule."""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class RuleSpec:
    """One rule's identity: stable ID, family, and a short summary."""

    rule_id: str
    family: str
    summary: str


@dataclass(frozen=True)
class Finding:
    """One precise violation: rule, location, and the human message.

    ``path`` is relative to the lint root so findings are portable
    across checkouts.  ``symbol`` is the enclosing function/class
    qualname, kept for readable output.
    """

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    symbol: str = ""

    def render(self) -> str:
        """``path:line:col: RULE message`` — the canonical text form."""
        where = f"{self.path}:{self.line}:{self.col}"
        sym = f" [{self.symbol}]" if self.symbol else ""
        return f"{where}: {self.rule_id} {self.message}{sym}"

    def sort_key(self) -> Tuple[str, int, int, str]:
        """Stable ordering: path, then position, then rule."""
        return (self.path, self.line, self.col, self.rule_id)


@dataclass
class LintReport:
    """Everything one engine run produced."""

    findings: List[Finding] = field(default_factory=list)
    #: findings silenced by ``# reprolint: disable=...`` pragmas
    suppressed: List[Finding] = field(default_factory=list)
    modules_scanned: int = 0
    parse_errors: List[str] = field(default_factory=list)

    def by_rule(self) -> Dict[str, List[Finding]]:
        """Findings grouped by rule ID."""
        out: Dict[str, List[Finding]] = {}
        for finding in self.findings:
            out.setdefault(finding.rule_id, []).append(finding)
        return out


#: every shipped rule, by ID (populated by the rules package import).
RULE_REGISTRY: Dict[str, RuleSpec] = {}


def register_rule(rule_id: str, family: str, summary: str) -> RuleSpec:
    """Register one rule ID; duplicate registrations must agree."""
    spec = RuleSpec(rule_id, family, summary)
    existing = RULE_REGISTRY.get(rule_id)
    if existing is not None and existing != spec:
        raise ValueError(f"conflicting registration for {rule_id}")
    RULE_REGISTRY[rule_id] = spec
    return spec


def known_rule(rule_id: str) -> Optional[RuleSpec]:
    """The spec for ``rule_id``, or None for unknown IDs."""
    return RULE_REGISTRY.get(rule_id)
