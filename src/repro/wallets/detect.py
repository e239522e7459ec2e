"""Identifier detection and classification (§III-C, §IV-B).

The pipeline extracts 16,050 distinct identifiers in the paper: wallet
addresses of ten currencies, e-mails (minergate logins) and opaque
usernames.  ``classify_identifier`` reproduces the regex-based currency
attribution; ``extract_identifiers`` scans free text (command lines,
Stratum login parameters, network payloads) for candidates.
"""

import enum
import re
from dataclasses import dataclass
from typing import List, Optional

from repro.wallets.addresses import COINS, Coin, is_valid_address


__all__ = [
    "ClassifiedIdentifier",
    "IdentifierKind",
    "classify_identifier",
    "extract_identifiers",
]


class IdentifierKind(enum.Enum):
    """What kind of mining identifier a string is."""

    WALLET = "wallet"
    EMAIL = "email"
    USERNAME = "username"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ClassifiedIdentifier:
    """An identifier with its kind and (for wallets) coin ticker."""

    value: str
    kind: IdentifierKind
    ticker: Optional[str] = None


_EMAIL_RE = re.compile(r"^[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}$")

#: Most-specific-first ordering so e.g. 'Sumoo...' is not eaten by a
#: shorter prefix pattern.
_COIN_ORDER = [
    "SUMO", "TRTL", "ETN", "AEON", "ITNS", "ZEC", "ETH",
    "XMR", "XMR_SUB", "BCN", "LTC", "DOGE", "BTC",
]

_B58 = r"[1-9A-HJ-NP-Za-km-z]"


def _coin_regex(coin: Coin) -> re.Pattern:
    if coin.alphabet == "hex":
        return re.compile(re.escape(coin.prefix) + r"[0-9a-f]{%d}" % coin.body_length)
    return re.compile(re.escape(coin.prefix) + _B58 + r"{%d}" % coin.body_length)


#: All thirteen per-coin regexes fused into one named-group
#: alternation.  ``fullmatch`` tries branches in ``_COIN_ORDER``, so
#: ``lastgroup`` names the same registry key the sequential loop would
#: have stopped at; coin prefixes start with pairwise-distinct
#: characters, so at most one branch can ever match a given string and
#: a failed checksum cannot be rescued by a later branch.
_COMBINED_COIN_RE = re.compile("|".join(
    f"(?P<{key}>{_coin_regex(COINS[key]).pattern})" for key in _COIN_ORDER
))

#: First characters a wallet candidate can start with (one per coin).
_WALLET_LEAD_CHARS = frozenset(
    COINS[key].prefix[0] for key in _COIN_ORDER)


def classify_identifier(value: str) -> ClassifiedIdentifier:
    """Classify a mining identifier string.

    Wallet classification requires both a full-string regex match and a
    valid checksum; otherwise the identifier falls through to e-mail and
    finally to the 'unknown' bucket (Table IV's 2,195 unknowns).
    """
    stripped = value.strip()
    if stripped and stripped[0] in _WALLET_LEAD_CHARS:
        match = _COMBINED_COIN_RE.fullmatch(stripped)
        if match is not None:
            key = match.lastgroup
            if is_valid_address(stripped, COINS[key]):
                # registry key and ticker differ for variants
                # (XMR_SUB -> XMR)
                return ClassifiedIdentifier(
                    stripped, IdentifierKind.WALLET, COINS[key].ticker)
    if "@" in stripped and _EMAIL_RE.fullmatch(stripped):
        return ClassifiedIdentifier(stripped, IdentifierKind.EMAIL)
    if stripped.startswith("worker_"):
        return ClassifiedIdentifier(stripped, IdentifierKind.USERNAME)
    return ClassifiedIdentifier(stripped, IdentifierKind.UNKNOWN)


#: Maximal runs free of identifier delimiters (whitespace, quotes and
#: ``=,;|<>()``) long enough to be identifiers.
_CANDIDATE_RUN_RE = re.compile(r"[^\s\"'=,;|<>()]{6,}")


def extract_identifiers(text: str) -> List[ClassifiedIdentifier]:
    """Scan free text for wallet/e-mail identifiers.

    Returns classified identifiers in order of first appearance, without
    duplicates.  Tokens classified as UNKNOWN are dropped — in free text
    almost everything is an unknown token; unknown identifiers only enter
    the dataset via explicit Stratum ``login`` fields (see
    :mod:`repro.core.dynamic_analysis`).

    Only tokens that can possibly classify as wallet or e-mail reach
    the classifier: a wallet token must start with a coin-prefix lead
    character and an e-mail must contain ``@``, so everything else is
    dropped by two O(1) checks per token.
    """
    seen = set()
    found: List[ClassifiedIdentifier] = []
    lead_chars = _WALLET_LEAD_CHARS
    find = text.find
    for match in _CANDIDATE_RUN_RE.finditer(text):
        start = match.start()
        # gate on the span before materialising the token string
        if (text[start] not in lead_chars
                and find("@", start, match.end()) < 0):
            continue
        token = match.group()
        if token in seen:
            continue
        seen.add(token)
        classified = classify_identifier(token)
        if classified.kind in (IdentifierKind.WALLET, IdentifierKind.EMAIL):
            found.append(classified)
    return found
