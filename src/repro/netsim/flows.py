"""Network flow records (the sandbox traffic capture).

A flow is one TCP connection observed during dynamic analysis.  Stratum
flows carry the parsed login identifier and the destination hostname the
sample used (pre-resolution), which is what the extraction stage mines.
"""

from dataclasses import dataclass, field
from typing import Iterator, List, Optional


@dataclass(frozen=True)
class FlowRecord:
    """One observed connection."""

    dst_host: str            # hostname the sample connected to ("" if by IP)
    dst_ip: str
    dst_port: int
    protocol: str            # "stratum" | "http" | "dns" | "tcp"
    login: Optional[str] = None      # Stratum login identifier, if any
    password: Optional[str] = None   # Stratum pass field
    agent: Optional[str] = None      # Stratum user agent
    payload_excerpt: str = ""        # first bytes of payload, printable


class FlowLog:
    """Append-only capture of flows from one sandbox execution."""

    def __init__(self) -> None:
        self._flows: List[FlowRecord] = []

    def record(self, flow: FlowRecord) -> None:
        """Append one flow to the capture."""
        self._flows.append(flow)

    def __iter__(self) -> Iterator[FlowRecord]:
        return iter(self._flows)

    def __len__(self) -> int:
        return len(self._flows)

    def stratum_flows(self) -> List[FlowRecord]:
        """Only the flows speaking the Stratum protocol."""
        return [f for f in self._flows if f.protocol == "stratum"]
