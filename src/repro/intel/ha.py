"""Hybrid-Analysis-style report store.

HA contributes ready-made dynamic-analysis intelligence: when a sample
already has an HA report the pipeline reuses it instead of detonating
the sample itself (§III-A item 3, §III-C).
"""

from typing import Dict, Optional

from repro.sandbox.emulator import SandboxReport


class HaService:
    """Keyed store of community sandbox reports."""

    def __init__(self) -> None:
        self._reports: Dict[str, SandboxReport] = {}

    def publish(self, report: SandboxReport) -> None:
        """Store a community sandbox report, keyed by sample hash."""
        self._reports[report.sample_sha256] = report

    def get_report(self, sha256: str) -> Optional[SandboxReport]:
        """The stored sandbox report for a hash, or None."""
        return self._reports.get(sha256)

    def __len__(self) -> int:
        return len(self._reports)

    def __contains__(self, sha256: str) -> bool:
        return sha256 in self._reports
