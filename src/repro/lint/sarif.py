"""SARIF 2.1.0 serialization for reprolint reports.

One run, one tool, one result per finding — the minimal valid subset
code-scanning UIs ingest (GitHub code scanning, VS Code SARIF viewer).
Rules are emitted once in the driver's ``rules`` array (index-linked
from each result), and findings become ``results`` with a single
physical location.

Deliberately dependency-free and deterministic: plain dicts, sorted
rule order, stable finding order (the report is already sorted), so
the same tree always serializes byte-identically.
"""

import json
from typing import Dict, List

from repro.lint.findings import Finding, LintReport, RULE_REGISTRY

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/"
                "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")

#: reprolint's stable identity within SARIF tooling.
TOOL_NAME = "reprolint"
TOOL_URI = "docs/static-analysis.md"


def _rule_descriptor(rule_id: str) -> Dict:
    spec = RULE_REGISTRY.get(rule_id)
    descriptor: Dict = {"id": rule_id}
    if spec is not None:
        descriptor["shortDescription"] = {"text": spec.summary}
        descriptor["properties"] = {"family": spec.family}
    return descriptor


def _result(finding: Finding, rule_index: Dict[str, int]) -> Dict:
    result: Dict = {
        "ruleId": finding.rule_id,
        "ruleIndex": rule_index[finding.rule_id],
        "level": "error",
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": finding.path},
                "region": {"startLine": finding.line,
                           "startColumn": finding.col},
            },
        }],
    }
    if finding.symbol:
        result["locations"][0]["logicalLocations"] = [
            {"fullyQualifiedName": finding.symbol}]
    return result


def to_sarif(report: LintReport) -> Dict:
    """The SARIF document (as a plain dict) for one lint report."""
    fired = sorted({f.rule_id for f in report.findings})
    rule_index = {rule_id: i for i, rule_id in enumerate(fired)}
    results: List[Dict] = [
        _result(finding, rule_index) for finding in report.findings]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {"driver": {
                "name": TOOL_NAME,
                "informationUri": TOOL_URI,
                "rules": [_rule_descriptor(r) for r in fired],
            }},
            "results": results,
            "columnKind": "utf16CodeUnits",
        }],
    }


def render_sarif(report: LintReport) -> str:
    """``to_sarif`` as stable, indented JSON text."""
    return json.dumps(to_sarif(report), indent=2, sort_keys=True)
