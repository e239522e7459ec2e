"""Independent oracles for the one-pass scan kernel.

Production code scans through ``repro.perf.scan.ScanKernel`` (rules)
and the fused wallet alternation in ``repro.wallets.detect``
(identifiers).  This module keeps the per-pattern evaluators those
replaced:

- ``scan_legacy(rules, data)`` walks every rule's strings one at a
  time over the raw bytes (one shared lowercase fold for nocase text)
  and evaluates each condition on the fired map;
- ``classify_identifier_legacy`` tries the thirteen per-coin regexes in
  order, then e-mail, then ``worker_`` usernames;
- ``extract_identifiers_legacy`` splits free text on delimiters and
  classifies every token of six or more characters.

``RuleSet.scan``, ``classify_identifier`` and ``extract_identifiers``
must equal these exactly; ``tests/test_scan_kernel.py`` and
``benchmarks/bench_scan_kernel.py`` check them against each other.
"""

import re
from typing import Dict, List, Optional

from repro.wallets.addresses import COINS, Coin, is_valid_address
from repro.wallets.detect import ClassifiedIdentifier, IdentifierKind
from repro.yarm.engine import CompiledRule, Match, RuleSet, StringPattern

__all__ = [
    "classify_identifier_legacy",
    "evaluate_rule",
    "extract_identifiers_legacy",
    "pattern_matches",
    "scan_legacy",
]


def pattern_matches(sp: StringPattern, data: bytes,
                    lowered: Optional[bytes] = None) -> bool:
    """Whether one ``$id = ...`` pattern occurs anywhere in ``data``.

    ``lowered`` shares one ``data.lower()`` across all nocase text
    patterns of a scan; hex patterns ignore nocase.
    """
    if sp.kind == "text":
        if sp.nocase:
            haystack = data.lower() if lowered is None else lowered
            return sp.pattern.lower() in haystack
        return sp.pattern in data
    if sp.kind == "hex":
        return sp.pattern in data
    flags = re.IGNORECASE if sp.nocase else 0
    return re.search(sp.pattern, data, flags) is not None


def evaluate_rule(rule: CompiledRule, data: bytes,
                  lowered: Optional[bytes] = None) -> Optional[Match]:
    """One rule on ``data``: a Match, or None.  Duplicate identifiers
    overwrite in declaration order (it is a dict comprehension)."""
    if lowered is None and any(
            sp.nocase and sp.kind == "text" for sp in rule.strings):
        lowered = data.lower()
    fired: Dict[str, bool] = {sp.identifier: pattern_matches(sp, data,
                                                             lowered)
                              for sp in rule.strings}
    if rule.condition.evaluate(fired):
        return Match(rule=rule.name, tags=list(rule.tags),
                     fired=[name for name, hit in fired.items() if hit])
    return None


def scan_legacy(rules: RuleSet, data: bytes) -> List[Match]:
    """Every rule of ``rules`` on ``data``, pattern by pattern."""
    needs_lower = any(sp.nocase and sp.kind == "text"
                      for rule in rules.rules for sp in rule.strings)
    lowered = data.lower() if needs_lower else None
    matches = []
    for rule in rules.rules:
        match = evaluate_rule(rule, data, lowered)
        if match is not None:
            matches.append(match)
    return matches


_EMAIL_RE = re.compile(r"^[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}$")

#: most specific first, so a longer prefix is tried before its prefix
_COIN_ORDER = [
    "SUMO", "TRTL", "ETN", "AEON", "ITNS", "ZEC", "ETH",
    "XMR", "XMR_SUB", "BCN", "LTC", "DOGE", "BTC",
]

_B58 = r"[1-9A-HJ-NP-Za-km-z]"


def _coin_regex(coin: Coin) -> "re.Pattern":
    if coin.alphabet == "hex":
        return re.compile(re.escape(coin.prefix)
                          + r"[0-9a-f]{%d}" % coin.body_length)
    return re.compile(re.escape(coin.prefix)
                      + _B58 + r"{%d}" % coin.body_length)


_COIN_RES = [(key, _coin_regex(COINS[key])) for key in _COIN_ORDER]

#: characters that can delimit an identifier inside a command line
_TOKEN_SPLIT_RE = re.compile(r"[\s\"'=,;|<>()]+")


def classify_identifier_legacy(value: str) -> ClassifiedIdentifier:
    """Sequential per-coin classifier."""
    stripped = value.strip()
    for key, pattern in _COIN_RES:
        if pattern.fullmatch(stripped) and is_valid_address(stripped,
                                                            COINS[key]):
            return ClassifiedIdentifier(stripped, IdentifierKind.WALLET,
                                        COINS[key].ticker)
    if _EMAIL_RE.fullmatch(stripped):
        return ClassifiedIdentifier(stripped, IdentifierKind.EMAIL)
    if stripped.startswith("worker_"):
        return ClassifiedIdentifier(stripped, IdentifierKind.USERNAME)
    return ClassifiedIdentifier(stripped, IdentifierKind.UNKNOWN)


def extract_identifiers_legacy(text: str) -> List[ClassifiedIdentifier]:
    """Token-split extractor: wallets and e-mails in first-seen order."""
    seen = set()
    found: List[ClassifiedIdentifier] = []
    for token in _TOKEN_SPLIT_RE.split(text):
        if len(token) < 6 or token in seen:
            continue
        seen.add(token)
        classified = classify_identifier_legacy(token)
        if classified.kind in (IdentifierKind.WALLET, IdentifierKind.EMAIL):
            found.append(classified)
    return found
