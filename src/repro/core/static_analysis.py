"""Static analysis (§III-C): binary inspection for mining evidence.

Reads one sample through the :class:`~repro.perf.scan.ScanContext` its
caller built: the packer the context identified (Table X) and its
unpacked bytes (the F-Prot analog), whose embedded strings and miner
config are walked for identifiers and Stratum URLs.  Entropy of the
raw bytes drives the obfuscation heuristic.  The caller hands the same
context to the sanity checker's rule scan, so each view of a sample is
computed once per analysis.
"""

import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.binfmt.entropy import OBFUSCATION_THRESHOLD, shannon_entropy
from repro.binfmt.format import parse_binary
from repro.perf.scan import ScanContext
from repro.common.errors import BinaryFormatError
from repro.wallets.detect import (
    ClassifiedIdentifier,
    IdentifierKind,
    classify_identifier,
    extract_identifiers,
)

_STRATUM_URL_RE = re.compile(
    r"stratum\+(?:tcp|ssl)://(?P<host>[A-Za-z0-9.-]+):(?P<port>\d{2,5})"
)


@dataclass
class StaticFindings:
    """What static analysis pulled out of one binary."""

    identifiers: List[ClassifiedIdentifier] = field(default_factory=list)
    stratum_urls: List[Tuple[str, int]] = field(default_factory=list)
    packer: Optional[str] = None
    entropy: float = 0.0
    obfuscated: bool = False
    unpacked: bool = False
    strings: List[str] = field(default_factory=list)
    config_pool: Optional[str] = None

    @property
    def wallets(self) -> List[str]:
        return [i.value for i in self.identifiers
                if i.kind is IdentifierKind.WALLET]


class StaticAnalyzer:
    """Stateless binary inspector."""

    def analyze(self, ctx: ScanContext) -> StaticFindings:
        """Inspect one binary: packer, strings, config, entropy."""
        findings = StaticFindings()
        findings.entropy = shannon_entropy(ctx.raw)
        packer = ctx.packer
        if packer is not None:
            # compression-only families (plain archives) render with a
            # suffix so Table X keeps them apart from obfuscators
            # (SIV-E: compression is not considered obfuscation).
            findings.packer = (f"{packer.name} (archive)"
                               if packer.is_compression_only
                               else packer.name)
            findings.unpacked = ctx.unpacked
        else:
            # no known packer: entropy is the only obfuscation signal
            findings.obfuscated = findings.entropy > OBFUSCATION_THRESHOLD
        if packer is not None and not packer.is_compression_only:
            findings.obfuscated = True
        self._scan_content(ctx, findings)
        return findings

    def _scan_content(self, ctx: ScanContext,
                      findings: StaticFindings) -> None:
        findings.strings = list(ctx.strings)  # findings own their copy
        blob = ctx.text
        findings.identifiers = extract_identifiers(blob)
        if "stratum+" in blob:
            for match in _STRATUM_URL_RE.finditer(blob):
                entry = (match.group("host").lower(),
                         int(match.group("port")))
                if entry not in findings.stratum_urls:
                    findings.stratum_urls.append(entry)
        # structured miner config, if the binary carries one
        try:
            parsed = parse_binary(ctx.data)
        except BinaryFormatError:
            return
        config = parsed.config
        if config:
            url = config.get("url", "")
            match = _STRATUM_URL_RE.match(url)
            if match:
                entry = (match.group("host").lower(),
                         int(match.group("port")))
                if entry not in findings.stratum_urls:
                    findings.stratum_urls.append(entry)
                findings.config_pool = match.group("host").lower()
            user = config.get("user")
            if user:
                classified = classify_identifier(user)
                if classified.kind is not IdentifierKind.UNKNOWN and not any(
                        i.value == classified.value
                        for i in findings.identifiers):
                    findings.identifiers.append(classified)
