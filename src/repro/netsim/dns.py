"""DNS zones, resolution and passive-DNS history.

Records are time-versioned: a CNAME can point at ``pool.minexmr.com``
for one period and at ``crypto-pool.fr`` later — the paper observed two
aliases (x.alibuf.com, xmrf.fjhan.club) that each fronted two different
pools over time.  ``PassiveDns`` exposes the full history, which is how
the pipeline de-aliases domains whose records have since changed.
"""

import datetime
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.common.simtime import Date, SIM_END, SIM_START

_MAX_CNAME_DEPTH = 8


@dataclass(frozen=True)
class DnsRecord:
    """One time-versioned DNS record."""

    name: str
    rtype: str  # "A" | "CNAME"
    value: str
    valid_from: Date = SIM_START
    valid_to: Date = SIM_END

    def active_at(self, when: Date) -> bool:
        """Whether the record is valid on the given date."""
        return self.valid_from <= when <= self.valid_to


class DnsZone:
    """Mutable registry of DNS records for the whole simulated internet."""

    def __init__(self) -> None:
        self._records: Dict[str, List[DnsRecord]] = {}

    def add(self, record: DnsRecord) -> None:
        """Register one record."""
        self._records.setdefault(record.name.lower(), []).append(record)

    def add_a(self, name: str, ip: str, valid_from: Date = SIM_START,
              valid_to: Date = SIM_END) -> None:
        """Register an A record for ``name`` -> ``ip``."""
        self.add(DnsRecord(name, "A", ip, valid_from, valid_to))

    def add_cname(self, name: str, target: str, valid_from: Date = SIM_START,
                  valid_to: Date = SIM_END) -> None:
        """Register a CNAME alias ``name`` -> ``target``."""
        self.add(DnsRecord(name, "CNAME", target, valid_from, valid_to))

    def records_for(self, name: str) -> List[DnsRecord]:
        """All records (any validity window) for a name."""
        return list(self._records.get(name.lower(), []))


@dataclass
class ResolutionResult:
    """Outcome of a resolution: final IP plus the CNAME chain walked."""

    name: str
    ip: Optional[str]
    cname_chain: List[str] = field(default_factory=list)

    @property
    def resolved(self) -> bool:
        return self.ip is not None


class Resolver:
    """Point-in-time resolver over a :class:`DnsZone`."""

    def __init__(self, zone: DnsZone) -> None:
        self._zone = zone

    def resolve(self, name: str, when: Date) -> ResolutionResult:
        """Resolve ``name`` at date ``when``, following CNAMEs."""
        chain: List[str] = []
        current = name.lower()
        for _ in range(_MAX_CNAME_DEPTH):
            records = [r for r in self._zone.records_for(current)
                       if r.active_at(when)]
            a_records = [r for r in records if r.rtype == "A"]
            if a_records:
                return ResolutionResult(name, a_records[0].value, chain)
            cnames = [r for r in records if r.rtype == "CNAME"]
            if not cnames:
                return ResolutionResult(name, None, chain)
            chain.append(cnames[0].value.lower())
            current = cnames[0].value.lower()
        return ResolutionResult(name, None, chain)

    def cname_targets(self, name: str, when: Date) -> List[str]:
        """Targets of active CNAME records for ``name`` (no recursion)."""
        return [
            r.value.lower()
            for r in self._zone.records_for(name)
            if r.rtype == "CNAME" and r.active_at(when)
        ]


class PassiveDns:
    """Historical DNS database (the ThreatCrowd analog).

    ``history`` returns every record that has ever existed for a name,
    which lets the pipeline recover pool aliases whose CNAMEs were
    rotated before the sample was analysed.
    """

    def __init__(self, zone: DnsZone) -> None:
        self._zone = zone

    def history(self, name: str) -> List[DnsRecord]:
        """Every record that has ever existed for ``name``."""
        return self._zone.records_for(name)

    def ever_cname_targets(self, name: str) -> List[str]:
        """All CNAME targets a name has pointed at, in record order."""
        seen: Set[str] = set()
        out: List[str] = []
        for record in self._zone.records_for(name):
            if record.rtype == "CNAME":
                target = record.value.lower()
                if target not in seen:
                    seen.add(target)
                    out.append(target)
        return out
