"""Parser and evaluator for the yarm rule language.

Supported syntax (a practical subset of YARA)::

    rule StratumMiner : miner tag2 {
        meta:
            author = "repro"
            score = 10
        strings:
            $proto = "stratum+tcp://"
            $pool  = /pool\\.[a-z0-9.-]+/ nocase
            $magic = { DE AD BE EF }
        condition:
            $proto or (any of them) or 2 of them
    }

Evaluation is over raw bytes; matches report rule name, tags, and which
string identifiers fired.
"""

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.common.errors import RuleSyntaxError

# --------------------------------------------------------------------------
# String patterns
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StringPattern:
    """One ``$id = ...`` declaration."""

    identifier: str
    kind: str            # "text" | "regex" | "hex"
    pattern: bytes       # raw needle for text/hex; regex source for regex
    nocase: bool = False


# --------------------------------------------------------------------------
# Condition AST
# --------------------------------------------------------------------------


class _Node:
    def evaluate(self, fired: Dict[str, bool]) -> bool:
        raise NotImplementedError


@dataclass
class _Ident(_Node):
    name: str

    def evaluate(self, fired: Dict[str, bool]) -> bool:
        if self.name not in fired:
            raise RuleSyntaxError(f"unknown string ${self.name} in condition")
        return fired[self.name]


@dataclass
class _NOf(_Node):
    count: int  # 0 means "any", -1 means "all"

    def evaluate(self, fired: Dict[str, bool]) -> bool:
        total = sum(1 for v in fired.values() if v)
        if self.count == -1:
            return total == len(fired) and bool(fired)
        needed = 1 if self.count == 0 else self.count
        return total >= needed


@dataclass
class _Not(_Node):
    child: _Node

    def evaluate(self, fired: Dict[str, bool]) -> bool:
        return not self.child.evaluate(fired)


@dataclass
class _Bool(_Node):
    op: str
    left: _Node
    right: _Node

    def evaluate(self, fired: Dict[str, bool]) -> bool:
        if self.op == "and":
            return self.left.evaluate(fired) and self.right.evaluate(fired)
        return self.left.evaluate(fired) or self.right.evaluate(fired)


# --------------------------------------------------------------------------
# Condition parser (tokenizer + recursive descent)
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lparen>\()|(?P<rparen>\))|(?P<ident>\$[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<number>\d+)|(?P<word>[A-Za-z_]+))"
)


def _tokenize_condition(text: str) -> List[str]:
    tokens: List[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match or match.end() == pos:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise RuleSyntaxError(f"bad condition near: {remainder[:20]!r}")
        pos = match.end()
        for group in ("lparen", "rparen", "ident", "number", "word"):
            value = match.group(group)
            if value is not None:
                tokens.append(value)
                break
    return tokens


class _ConditionParser:
    def __init__(self, tokens: Sequence[str]) -> None:
        self._tokens = list(tokens)
        self._pos = 0

    def parse(self) -> _Node:
        node = self._parse_or()
        if self._pos != len(self._tokens):
            raise RuleSyntaxError(
                f"trailing tokens in condition: {self._tokens[self._pos:]}"
            )
        return node

    def _peek(self) -> Optional[str]:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _advance(self) -> str:
        token = self._peek()
        if token is None:
            raise RuleSyntaxError("unexpected end of condition")
        self._pos += 1
        return token

    def _parse_or(self) -> _Node:
        node = self._parse_and()
        while self._peek() == "or":
            self._advance()
            node = _Bool("or", node, self._parse_and())
        return node

    def _parse_and(self) -> _Node:
        node = self._parse_unary()
        while self._peek() == "and":
            self._advance()
            node = _Bool("and", node, self._parse_unary())
        return node

    def _parse_unary(self) -> _Node:
        token = self._peek()
        if token == "not":
            self._advance()
            return _Not(self._parse_unary())
        return self._parse_atom()

    def _parse_atom(self) -> _Node:
        token = self._advance()
        if token == "(":
            node = self._parse_or()
            if self._advance() != ")":
                raise RuleSyntaxError("missing closing parenthesis")
            return node
        if token.startswith("$"):
            return _Ident(token[1:])
        if token in ("any", "all"):
            self._expect("of")
            self._expect("them")
            return _NOf(0 if token == "any" else -1)
        if token.isdigit():
            self._expect("of")
            self._expect("them")
            return _NOf(int(token))
        raise RuleSyntaxError(f"unexpected token in condition: {token!r}")

    def _expect(self, word: str) -> None:
        token = self._advance()
        if token != word:
            raise RuleSyntaxError(f"expected {word!r}, got {token!r}")


# --------------------------------------------------------------------------
# Rule compilation
# --------------------------------------------------------------------------


@dataclass
class CompiledRule:
    """A parsed rule ready for evaluation."""

    name: str
    tags: List[str]
    meta: Dict[str, str]
    strings: List[StringPattern]
    condition: _Node


@dataclass(frozen=True)
class Match:
    """A rule that matched, with the string identifiers that fired."""

    rule: str
    tags: List[str]
    fired: List[str]


_RULE_HEADER_RE = re.compile(
    r"rule\s+(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*(?::\s*(?P<tags>[^{]+))?\{"
)
_STRING_DECL_RE = re.compile(
    r"\$(?P<id>[A-Za-z_][A-Za-z0-9_]*)\s*=\s*(?P<value>.+?)\s*$"
)
_META_DECL_RE = re.compile(
    r"(?P<key>[A-Za-z_][A-Za-z0-9_]*)\s*=\s*(?P<value>.+?)\s*$"
)


def _parse_string_value(raw: str) -> StringPattern:
    raw = raw.strip()
    nocase = False
    if raw.endswith(" nocase"):
        nocase = True
        raw = raw[: -len(" nocase")].rstrip()
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        text = raw[1:-1].encode("utf-8").decode("unicode_escape")
        return StringPattern("", "text", text.encode("latin-1"), nocase)
    if raw.startswith("/") and raw.endswith("/") and len(raw) >= 2:
        return StringPattern("", "regex", raw[1:-1].encode("latin-1"), nocase)
    if raw.startswith("{") and raw.endswith("}"):
        hex_text = raw[1:-1].replace(" ", "")
        if len(hex_text) % 2 != 0 or not re.fullmatch(r"[0-9A-Fa-f]*", hex_text):
            raise RuleSyntaxError(f"bad hex string: {raw!r}")
        return StringPattern("", "hex", bytes.fromhex(hex_text), nocase)
    raise RuleSyntaxError(f"unrecognised string value: {raw!r}")


def compile_rules(source: str) -> "RuleSet":
    """Compile rule source text into a :class:`RuleSet`."""
    rules: List[CompiledRule] = []
    pos = 0
    while True:
        header = _RULE_HEADER_RE.search(source, pos)
        if not header:
            break
        depth = 1
        body_start = header.end()
        idx = body_start
        while idx < len(source) and depth > 0:
            if source[idx] == "{":
                depth += 1
            elif source[idx] == "}":
                depth -= 1
            idx += 1
        if depth != 0:
            raise RuleSyntaxError(f"unbalanced braces in rule {header.group('name')}")
        body = source[body_start:idx - 1]
        pos = idx
        rules.append(_compile_rule_body(header, body))
    if not rules:
        raise RuleSyntaxError("no rules found in source")
    return RuleSet(rules)


def _compile_rule_body(header: "re.Match", body: str) -> CompiledRule:
    name = header.group("name")
    tags = (header.group("tags") or "").split()
    sections: Dict[str, List[str]] = {"meta": [], "strings": [], "condition": []}
    current: Optional[str] = None
    for line in body.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("//"):
            continue
        lowered = stripped.rstrip(":")
        if stripped.endswith(":") and lowered in sections:
            current = lowered
            continue
        if current is None:
            raise RuleSyntaxError(f"statement outside section in rule {name}")
        sections[current].append(stripped)

    meta: Dict[str, str] = {}
    for line in sections["meta"]:
        match = _META_DECL_RE.match(line)
        if not match:
            raise RuleSyntaxError(f"bad meta line in {name}: {line!r}")
        meta[match.group("key")] = match.group("value").strip('"')

    strings: List[StringPattern] = []
    for line in sections["strings"]:
        match = _STRING_DECL_RE.match(line)
        if not match:
            raise RuleSyntaxError(f"bad string line in {name}: {line!r}")
        pattern = _parse_string_value(match.group("value"))
        strings.append(
            StringPattern(match.group("id"), pattern.kind, pattern.pattern,
                          pattern.nocase)
        )

    condition_text = " ".join(sections["condition"])
    if not condition_text:
        raise RuleSyntaxError(f"rule {name} has no condition")
    condition = _ConditionParser(_tokenize_condition(condition_text)).parse()
    return CompiledRule(name, tags, meta, strings, condition)


class RuleSet:
    """A compiled collection of rules.

    ``scan`` goes through the one-pass multi-pattern kernel
    (:class:`repro.perf.scan.ScanKernel`), compiled lazily once per
    rule set; the per-pattern evaluator it replaced is the oracle in
    ``tests/reference_scan.py``.
    """

    def __init__(self, rules: List[CompiledRule]) -> None:
        self.rules = rules
        self._kernel = None

    def __len__(self) -> int:
        return len(self.rules)

    def kernel(self):
        """The compiled scan kernel for this rule set (built once)."""
        if self._kernel is None:
            from repro.perf.scan import ScanKernel
            self._kernel = ScanKernel(self)
        return self._kernel

    def scan(self, data) -> List[Match]:
        """Evaluate every rule against ``data``; return the matches.

        ``data`` may be raw bytes or a prepared
        :class:`repro.perf.scan.ScanContext` (which lets callers share
        derived views across consumers).
        """
        return self.kernel().scan(data)

    def names(self) -> List[str]:
        """Names of every rule in the set."""
        return [rule.name for rule in self.rules]
