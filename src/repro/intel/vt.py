"""VirusTotal-style AV aggregation service.

Stores one :class:`AvReport` per sample and answers the metadata and
advanced-search queries the measurement pipeline issues.  The number of
positives per sample is assigned by the corpus generator's detection
model (packed and younger samples detect less), and — as the paper's
Table I notes — positives for a sample can *grow over time*; the service
models this with a detection date per vendor.
"""

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.simtime import Date

#: A stable roster of AV vendor names for label attribution.
AV_VENDORS: Tuple[str, ...] = (
    "Avast", "AVG", "Avira", "BitDefender", "ClamAV", "Comodo", "CrowdStrike",
    "Cylance", "DrWeb", "Emsisoft", "ESET-NOD32", "F-Prot", "F-Secure",
    "Fortinet", "GData", "Ikarus", "Jiangmin", "K7GW", "Kaspersky",
    "Malwarebytes", "McAfee", "Microsoft", "NANO-Antivirus", "Panda",
    "Qihoo-360", "Rising", "Sophos", "Symantec", "TrendMicro", "VBA32",
    "VIPRE", "ViRobot", "Webroot", "Yandex", "Zillya", "ZoneAlarm",
)


@dataclass
class AvReport:
    """Everything VT knows about one sample."""

    sha256: str
    md5: str = ""
    first_seen: Optional[Date] = None
    #: vendor -> (label, detection date); a vendor missing = not detected.
    detections: Dict[str, Tuple[str, Date]] = field(default_factory=dict)
    total_engines: int = len(AV_VENDORS)
    itw_urls: List[str] = field(default_factory=list)
    parents: List[str] = field(default_factory=list)       # dropper hashes
    contacted_domains: List[str] = field(default_factory=list)
    file_type: str = "PE"

    def positives(self, as_of: Optional[Date] = None) -> int:
        """Detections visible at ``as_of`` (all of them when None)."""
        if as_of is None:
            return len(self.detections)
        return sum(1 for _, (_, when) in self.detections.items()
                   if when <= as_of)

    def labels(self) -> List[str]:
        """Every vendor label on this sample."""
        return [label for label, _ in self.detections.values()]

    def miner_label_count(self) -> int:
        """Vendors whose label contains a miner keyword."""
        keywords = ("miner", "coinmine", "bitcoinminer", "cryptonight")
        return sum(
            1 for label in self.labels()
            if any(k in label.lower() for k in keywords)
        )


class VtService:
    """In-memory VT: report storage plus the paper's advanced queries."""

    def __init__(self, rate_limit: Optional[int] = None) -> None:
        self._reports: Dict[str, AvReport] = {}
        self._rate_limit = rate_limit
        self._queries_served = 0
        #: parent sha -> child shas, built on the first children_of call
        self._children: Optional[Dict[str, List[str]]] = None

    def add_report(self, report: AvReport) -> None:
        """Store (or replace) the report for one sample."""
        self._reports[report.sha256] = report
        # A replaced report keeps its old dict position, so the index is
        # rebuilt rather than appended to: children stay in report order.
        self._children = None

    def __len__(self) -> int:
        return len(self._reports)

    def get_report(self, sha256: str) -> Optional[AvReport]:
        """Fetch a report; returns None past the (optional) rate limit.

        The paper could not retrieve first-seen for its newest samples
        because of VT rate limits (the "~19?" row of Table IV); setting
        ``rate_limit`` reproduces that failure mode.
        """
        if self._rate_limit is not None and self._queries_served >= self._rate_limit:
            return None
        self._queries_served += 1
        return self._reports.get(sha256)

    def reports(self) -> Iterable[AvReport]:
        """All stored reports (iteration order is insertion order)."""
        return self._reports.values()

    def children_of(self, sha256: str) -> List[str]:
        """Samples that list ``sha256`` among their parents.

        Answered from a reverse-parents index built on the first call
        after any ``add_report``: children in report insertion order,
        each listed once however often it names the parent.
        """
        if self._children is None:
            children: Dict[str, List[str]] = {}
            for report in self._reports.values():
                for parent in dict.fromkeys(report.parents):
                    children.setdefault(parent, []).append(report.sha256)
            self._children = children
        return list(self._children.get(sha256, ()))
