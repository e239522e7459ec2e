"""Compile-once, scan-once multi-pattern kernel (the hot-path scanner).

Every byte-scanning consumer — yarm rule evaluation in
:mod:`repro.core.sanity`, the strings / identifier / Stratum walk in
:mod:`repro.core.static_analysis` — used to traverse the same sample
independently, once per pattern.  This module collapses that work:

- :class:`AhoCorasick` ingests all literal needles of a rule set once
  and reports which fire in a single pass.  ``walk()`` is the textbook
  automaton (goto/fail/output links) and serves as the reference
  implementation; ``find()`` answers the same membership question
  through CPython's C substring search per unique needle, which for the
  small needle sets of real rule files beats stepping a pure-Python
  automaton byte by byte.  Equivalence of the two is asserted by the
  test suite, and ``find()`` self-switches to ``walk()`` for dense
  needle sets where the automaton's O(n) bound wins.
- :class:`ScanContext` memoises the derived views of one sample
  (unpacked bytes, the joined printable-strings blob, lowercase
  folds), so unpacking and string extraction happen once per sample
  instead of once per consumer.  ``scan_context`` adds a content-keyed
  LRU so sanity and static analysis share one context per binary.
- :class:`ScanKernel` compiles a :class:`~repro.yarm.engine.RuleSet`
  into per-view pattern classes: printable literals of >= blob-run
  length scan the small strings blob, everything else scans the raw
  bytes; nocase literals scan a lowercase fold computed once; the
  residual regex patterns are fused into one combined alternation per
  (view, case-sensitivity) class used as a presence prefilter before
  per-pattern confirmation.  Rules whose condition is monotone (no
  ``not``) are skipped outright when none of their strings fired.

The kernel is bit-equivalent to the legacy per-pattern evaluators
(``RuleSet.scan_legacy`` stays as the oracle): a printable needle of
length >= the blob's run threshold occurs in the sample iff it occurs
in the blob, because any occurrence lies inside a maximal printable
run, and every such run long enough to contain it is a blob line.
"""

import re
from collections import deque
from contextlib import contextmanager
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

try:
    import numpy as _np
except ImportError:  # pragma: no cover - stdlib-only environments
    _np = None

from repro.perf.cache import (
    LruCache,
    UNPACK_CACHE,
    cached_unpack,
    register_cache,
)
from repro.yarm.engine import Match, RuleSet, _NOf

#: minimum printable-run length captured in the strings blob.  Matches
#: :func:`repro.binfmt.strings.extract_strings`'s default so the blob
#: doubles as the static analyzer's strings view.
BLOB_MIN_RUN = 6

_RUNS_RE = re.compile(rb"[\x20-\x7e]{%d,}" % BLOB_MIN_RUN)

#: below this size the fixed cost of the vectorised run extractor
#: exceeds the regex engine's per-byte cost.
_VECTOR_BLOB_MIN_BYTES = 1024


def build_blob(data: bytes) -> bytes:
    """Printable runs of >= BLOB_MIN_RUN bytes, newline-joined.

    Equals ``b"\\n".join(_RUNS_RE.findall(data))``; large inputs take a
    vectorised path (edge detection over a printable-byte mask) when
    numpy is available.
    """
    if _np is None or len(data) < _VECTOR_BLOB_MIN_BYTES:
        return b"\n".join(_RUNS_RE.findall(data))
    buf = _np.frombuffer(data, dtype=_np.uint8)
    flags = _np.zeros(len(data) + 2, dtype=_np.int8)
    flags[1:-1] = (buf >= 0x20) & (buf <= 0x7E)
    edges = _np.diff(flags)
    starts = _np.flatnonzero(edges == 1)
    ends = _np.flatnonzero(edges == -1)
    keep = (ends - starts) >= BLOB_MIN_RUN
    return b"\n".join(
        [data[s:e] for s, e in
         zip(starts[keep].tolist(), ends[keep].tolist())])

#: needle count beyond which ``AhoCorasick.find`` steps the automaton
#: instead of running one C substring search per needle.
_DENSE_NEEDLE_CUTOVER = 128


# --------------------------------------------------------------------------
# Process-wide counters (surfaced via --profile)
# --------------------------------------------------------------------------

def _fresh_stats() -> Dict[str, int]:
    return {
        "kernels_built": 0,
        "kernel_scans": 0,
        "rules_skipped": 0,
        "rules_evaluated": 0,
        "regex_prefilter_misses": 0,
        "contexts_built": 0,
    }


_STATS = _fresh_stats()


def scan_stats() -> Dict[str, int]:
    """Snapshot of the kernel counters (kernel builds, scans, skips)."""
    return dict(_STATS)


def reset_scan_stats() -> None:
    """Zero the kernel counters (tests and benches isolate runs)."""
    _STATS.update(_fresh_stats())


def render_scan_stats() -> str:
    """The kernel counters as aligned ``key  value`` lines."""
    width = max(len(key) for key in _STATS)
    return "\n".join(f"{key:<{width}}  {_STATS[key]}"
                     for key in sorted(_STATS))


# --------------------------------------------------------------------------
# Aho-Corasick automaton
# --------------------------------------------------------------------------


class AhoCorasick:
    """Multi-needle literal matcher built once per needle set.

    ``needles`` keep their positional indices: both :meth:`walk` and
    :meth:`find` return the frozen set of indices whose needle occurs
    in the data.  Duplicate needles share automaton states; empty
    needles fire on every input (``b"" in data`` is always True, which
    is what the legacy per-pattern evaluator did).
    """

    def __init__(self, needles: Sequence[bytes]) -> None:
        self.needles: List[bytes] = [bytes(n) for n in needles]
        self._by_needle: Dict[bytes, List[int]] = {}
        for index, needle in enumerate(self.needles):
            self._by_needle.setdefault(needle, []).append(index)
        self._always: FrozenSet[int] = frozenset(
            self._by_needle.get(b"", ()))
        self._unique: List[bytes] = [n for n in self._by_needle if n]
        # trie: goto is a list of {byte: state}; out[state] holds the
        # unique-needle ids terminating at that state.
        goto: List[Dict[int, int]] = [{}]
        out: List[set] = [set()]
        for uid, needle in enumerate(self._unique):
            state = 0
            for byte in needle:
                nxt = goto[state].get(byte)
                if nxt is None:
                    nxt = len(goto)
                    goto.append({})
                    out.append(set())
                    goto[state][byte] = nxt
                state = nxt
            out[state].add(uid)
        # fail links by BFS; suffix outputs are merged into each state
        # so the walk never has to chase output links.
        fail = [0] * len(goto)
        queue = deque(goto[0].values())
        while queue:
            state = queue.popleft()
            for byte, child in goto[state].items():
                queue.append(child)
                link = fail[state]
                while link and byte not in goto[link]:
                    link = fail[link]
                candidate = goto[link].get(byte, 0)
                fail[child] = candidate if candidate != child else 0
                out[child] |= out[fail[child]]
        self._goto = goto
        self._fail = fail
        self._out = [frozenset(s) for s in out]

    def __len__(self) -> int:
        return len(self.needles)

    def walk(self, data: bytes) -> FrozenSet[int]:
        """One pass of the automaton over ``data`` (reference path)."""
        goto, fail, out = self._goto, self._fail, self._out
        state = 0
        hits: set = set()
        for byte in data:
            while state and byte not in goto[state]:
                state = fail[state]
            state = goto[state].get(byte, 0)
            if out[state]:
                hits |= out[state]
        return self._expand(hits)

    def find(self, data: bytes) -> FrozenSet[int]:
        """Which needles occur in ``data`` (accelerated path).

        Small needle sets use one C ``in`` per unique needle (two-way
        substring search beats a per-byte Python loop by ~100x); dense
        sets fall back to the true single-pass automaton.
        """
        if len(self._unique) >= _DENSE_NEEDLE_CUTOVER:
            return self.walk(data)
        fired = set(self._always)
        for needle, indices in self._by_needle.items():
            if needle and needle in data:
                fired.update(indices)
        return frozenset(fired)

    def _expand(self, unique_hits: Iterable[int]) -> FrozenSet[int]:
        fired = set(self._always)
        for uid in unique_hits:
            fired.update(self._by_needle[self._unique[uid]])
        return frozenset(fired)


# --------------------------------------------------------------------------
# Per-sample scan context
# --------------------------------------------------------------------------


class ScanContext:
    """Memoised derived views of one sample's scannable bytes.

    Consumers share one context per sample so the expensive pure
    functions of its content — the printable-strings blob, lowercase
    folds, the decoded strings list — are computed at most once.
    """

    __slots__ = ("raw", "data", "unpacked", "_blob", "_lowered_blob",
                 "_lowered_data", "_text", "_strings")

    def __init__(self, data: bytes, raw: Optional[bytes] = None,
                 unpacked: bool = False) -> None:
        self.raw = data if raw is None else raw
        self.data = data
        self.unpacked = unpacked
        self._blob: Optional[bytes] = None
        self._lowered_blob: Optional[bytes] = None
        self._lowered_data: Optional[bytes] = None
        self._text: Optional[str] = None
        self._strings: Optional[List[str]] = None
        _STATS["contexts_built"] += 1

    @classmethod
    def for_sample(cls, raw: bytes) -> "ScanContext":
        """Context over a sample's unpacked (scannable) bytes."""
        data, unpacked = cached_unpack(raw)
        return cls(data, raw=raw, unpacked=unpacked)

    @property
    def blob(self) -> bytes:
        """Printable runs >= BLOB_MIN_RUN chars, newline-joined."""
        if self._blob is None:
            self._blob = build_blob(self.data)
        return self._blob

    @property
    def lowered_blob(self) -> bytes:
        """Lowercase fold of :attr:`blob` (one allocation per sample)."""
        if self._lowered_blob is None:
            self._lowered_blob = self.blob.lower()
        return self._lowered_blob

    @property
    def lowered_data(self) -> bytes:
        """Lowercase fold of the full scannable bytes."""
        if self._lowered_data is None:
            self._lowered_data = self.data.lower()
        return self._lowered_data

    @property
    def text(self) -> str:
        """The strings blob decoded, for text-level scanners."""
        if self._text is None:
            self._text = self.blob.decode("ascii")
        return self._text

    @property
    def strings(self) -> List[str]:
        """Equals ``extract_strings(self.data)``: runs are blob lines."""
        if self._strings is None:
            text = self.text
            self._strings = text.split("\n") if text else []
        return self._strings


#: content-keyed contexts, so sanity's rule scan and the static
#: analyzer walk one shared view of each binary.
SCAN_CONTEXT_CACHE = register_cache(LruCache("scan_context", maxsize=2048))


def scan_context(raw: bytes) -> ScanContext:
    """The (memoised) scan context for one sample's raw bytes."""
    key = bytes(raw)
    return SCAN_CONTEXT_CACHE.get_or_compute(
        key, lambda: ScanContext.for_sample(key))


# --------------------------------------------------------------------------
# Conservative regex analysis: can a pattern scan the strings blob?
# --------------------------------------------------------------------------

_SPECIALS = frozenset(b".^$*+?{}[]()|\\")
_PRINTABLE = frozenset(range(0x20, 0x7F))


class _Unsafe(Exception):
    pass


def printable_min_len(pattern: bytes) -> Optional[int]:
    """Minimum match length of a blob-safe pattern, else None.

    A pattern is blob-safe when every string it can match consists only
    of printable ASCII: then each match lies inside one maximal
    printable run and (if long enough) inside one blob line, so
    searching the blob equals searching the raw bytes.  The analysis is
    a conservative whitelist — literals, positive character classes,
    ``(?:...)`` groups, alternation and counted quantifiers; anything
    else (anchors, ``.``, ``\\d``/``\\w``/``\\s``, lookarounds,
    backrefs) returns None and keeps the pattern on the raw view.
    """
    try:
        length, pos = _parse_alternation(pattern, 0)
    except _Unsafe:
        return None
    if pos != len(pattern):
        return None
    return length


def _parse_alternation(pattern: bytes, pos: int) -> Tuple[int, int]:
    best: Optional[int] = None
    while True:
        length, pos = _parse_sequence(pattern, pos)
        best = length if best is None else min(best, length)
        if pos < len(pattern) and pattern[pos] == ord("|"):
            pos += 1
            continue
        return best, pos


def _parse_sequence(pattern: bytes, pos: int) -> Tuple[int, int]:
    total = 0
    while pos < len(pattern):
        byte = pattern[pos]
        if byte in (ord("|"), ord(")")):
            break
        atom_len, pos = _parse_atom(pattern, pos)
        repeat, pos = _parse_quantifier(pattern, pos)
        total += atom_len * repeat
    return total, pos


def _parse_atom(pattern: bytes, pos: int) -> Tuple[int, int]:
    byte = pattern[pos]
    if byte == ord("("):
        pos += 1
        if pattern[pos:pos + 1] == b"?":
            if pattern[pos:pos + 2] != b"?:":
                raise _Unsafe  # lookarounds, flags, named groups
            pos += 2
        length, pos = _parse_alternation(pattern, pos)
        if pos >= len(pattern) or pattern[pos] != ord(")"):
            raise _Unsafe
        return length, pos + 1
    if byte == ord("["):
        return 1, _parse_class(pattern, pos + 1)
    if byte == ord("\\"):
        if pos + 1 >= len(pattern):
            raise _Unsafe
        escaped = pattern[pos + 1]
        # escaped punctuation is a printable literal; \d \w \s \b and
        # backreferences are not blob-safe.
        if escaped in _PRINTABLE and not (
                ord("0") <= escaped <= ord("9")
                or ord("a") <= escaped <= ord("z")
                or ord("A") <= escaped <= ord("Z")):
            return 1, pos + 2
        raise _Unsafe
    if byte in _SPECIALS or byte not in _PRINTABLE:
        raise _Unsafe  # anchors, '.', quantifier without atom, raw bytes
    return 1, pos + 1


def _parse_class(pattern: bytes, pos: int) -> int:
    if pos < len(pattern) and pattern[pos] == ord("^"):
        raise _Unsafe  # negated classes admit non-printable bytes
    first = True
    while pos < len(pattern):
        byte = pattern[pos]
        if byte == ord("]") and not first:
            return pos + 1
        if byte == ord("\\") or byte not in _PRINTABLE:
            raise _Unsafe
        first = False
        pos += 1
    raise _Unsafe


_BRACE_RE = re.compile(rb"\{(\d+)(,(\d*))?\}")


def _parse_quantifier(pattern: bytes, pos: int) -> Tuple[int, int]:
    if pos >= len(pattern):
        return 1, pos
    byte = pattern[pos]
    if byte in (ord("*"), ord("?")):
        return 0, _skip_lazy(pattern, pos + 1)
    if byte == ord("+"):
        return 1, _skip_lazy(pattern, pos + 1)
    if byte == ord("{"):
        match = _BRACE_RE.match(pattern, pos)
        if not match:
            raise _Unsafe
        return int(match.group(1)), _skip_lazy(pattern, match.end())
    return 1, pos


def _skip_lazy(pattern: bytes, pos: int) -> int:
    if pos < len(pattern) and pattern[pos] == ord("?"):
        return pos + 1
    return pos


# --------------------------------------------------------------------------
# The kernel
# --------------------------------------------------------------------------

#: view names a pattern class can scan.
_V_BLOB = "blob"
_V_LOWERED_BLOB = "lowered_blob"
_V_RAW = "raw"
_V_LOWERED_RAW = "lowered_raw"


def _context_view(ctx: ScanContext, view: str) -> bytes:
    if view == _V_BLOB:
        return ctx.blob
    if view == _V_LOWERED_BLOB:
        return ctx.lowered_blob
    if view == _V_RAW:
        return ctx.data
    return ctx.lowered_data


class ScanKernel:
    """A rule set compiled into one-pass multi-pattern scan plans.

    Built once per :class:`~repro.yarm.engine.RuleSet` (and therefore
    once per process for the built-in miner rules); ``scan()`` is
    bit-equivalent to ``RuleSet.scan_legacy``.
    """

    def __init__(self, ruleset: RuleSet) -> None:
        # slot = index of one unique (kind, pattern, nocase) triple.
        slot_of: Dict[tuple, int] = {}
        literal_groups: Dict[str, Tuple[List[bytes], List[int]]] = {}
        regex_groups: Dict[Tuple[str, int], List[Tuple[int, "re.Pattern"]]] \
            = {}
        self._plans: List[tuple] = []
        for rule in ruleset.rules:
            plan: List[Tuple[str, int]] = []
            for sp in rule.strings:
                key = (sp.kind, sp.pattern, sp.nocase)
                slot = slot_of.get(key)
                if slot is None:
                    slot = len(slot_of)
                    slot_of[key] = slot
                    self._classify(sp, slot, literal_groups, regex_groups)
                plan.append((sp.identifier, slot))
            # a rule is skippable only when its condition is monotone
            # AND references only declared strings — conditions naming
            # unknown identifiers must still raise, like the legacy
            # evaluator does.
            declared = {sp.identifier for sp in rule.strings}
            monotone = (_is_monotone(rule.condition)
                        and _condition_idents(rule.condition) <= declared)
            plan_bits = [(ident, 1 << slot) for ident, slot in plan]
            plan_mask = 0
            for _, bit in plan_bits:
                plan_mask |= bit
            # plain "N of them" conditions resolve directly on the
            # fired mask: any -> mask hit, all -> every plan bit set,
            # counted N -> popcount.  Duplicate identifiers (the dict
            # overwrite case) and identifiers sharing a slot keep the
            # generic AST path; counted N also needs one bit per
            # identifier for popcount to equal the fired-ident count.
            nof = None
            idents = [ident for ident, _ in plan]
            if (monotone and isinstance(rule.condition, _NOf)
                    and len(set(idents)) == len(idents)):
                count = rule.condition.count
                if count in (0, -1) or len({b for _, b in plan_bits}) \
                        == len(plan_bits):
                    nof = count
            self._plans.append(
                (rule, plan_bits, monotone, plan_mask, nof))
        self._slot_count = len(slot_of)
        self._automata: List[Tuple[str, AhoCorasick, List[int]]] = [
            (view, AhoCorasick(needles), slots)
            for view, (needles, slots) in literal_groups.items()
        ]
        # per-view literal matchers: fired slots are tracked as bits of
        # one integer mask, so the monotone-skip test below is a single
        # AND.  Sparse needle sets run one C substring search per unique
        # needle; dense sets step the automaton.
        self._literal_groups: List[tuple] = []
        for view, automaton, slots in self._automata:
            base = 0
            for local in automaton._always:
                base |= 1 << slots[local]
            pairs = None
            if len(automaton._unique) < _DENSE_NEEDLE_CUTOVER:
                pairs = []
                for needle, locals_ in automaton._by_needle.items():
                    if not needle:
                        continue
                    bit = 0
                    for local in locals_:
                        bit |= 1 << slots[local]
                    pairs.append((needle, bit))
            local_bits = [1 << slot for slot in slots]
            self._literal_groups.append(
                (view, pairs, automaton, local_bits, base))
        # one combined alternation per (view, flags) class: a single
        # search answers "does anything here fire?" before per-pattern
        # confirmation pinpoints which members did.
        self._regex_groups: List[tuple] = []
        for (view, flags), members in regex_groups.items():
            fused = None
            if len(members) > 1:
                fused = re.compile(
                    b"|".join(b"(?:%s)" % rx.pattern for _, rx in members),
                    flags)
            self._regex_groups.append(
                (view, fused, [(1 << slot, rx) for slot, rx in members]))
        _STATS["kernels_built"] += 1

    @staticmethod
    def _classify(sp, slot: int, literal_groups, regex_groups) -> None:
        """Assign one unique pattern to its (view, matcher) class."""
        if sp.kind == "regex":
            flags = re.IGNORECASE if sp.nocase else 0
            min_len = printable_min_len(sp.pattern)
            view = (_V_BLOB if min_len is not None
                    and min_len >= BLOB_MIN_RUN else _V_RAW)
            regex_groups.setdefault((view, flags), []).append(
                (slot, re.compile(sp.pattern, flags)))
            return
        if sp.kind == "hex":
            # the legacy evaluator ignores nocase for hex patterns
            needle, view = sp.pattern, _V_RAW
        elif sp.nocase:
            needle = sp.pattern.lower()
            view = (_V_LOWERED_BLOB if _is_blob_needle(needle)
                    else _V_LOWERED_RAW)
        else:
            needle = sp.pattern
            view = _V_BLOB if _is_blob_needle(needle) else _V_RAW
        needles, slots = literal_groups.setdefault(view, ([], []))
        needles.append(needle)
        slots.append(slot)

    # ------------------------------------------------------------------

    def scan(self, data) -> List[Match]:
        """All rule matches for ``data`` (bytes or a ScanContext)."""
        ctx = data if isinstance(data, ScanContext) else ScanContext(data)
        _STATS["kernel_scans"] += 1
        mask = 0
        for view, pairs, automaton, local_bits, base in self._literal_groups:
            buffer = _context_view(ctx, view)
            mask |= base
            if pairs is not None:
                for needle, bit in pairs:
                    if needle in buffer:
                        mask |= bit
            else:
                for local in automaton.walk(buffer):
                    mask |= local_bits[local]
        for view, fused, members in self._regex_groups:
            buffer = _context_view(ctx, view)
            if fused is not None and fused.search(buffer) is None:
                _STATS["regex_prefilter_misses"] += 1
                continue
            for bit, rx in members:
                if rx.search(buffer):
                    mask |= bit
        matches: List[Match] = []
        skipped = evaluated = 0
        for rule, plan_bits, monotone, plan_mask, nof in self._plans:
            sub = mask & plan_mask
            if monotone and not sub:
                skipped += 1
                continue
            evaluated += 1
            if nof is not None:
                if nof == -1:
                    hit = sub == plan_mask
                elif nof <= 1:
                    hit = sub != 0
                else:
                    hit = sub.bit_count() >= nof
                if hit:
                    matches.append(Match(
                        rule=rule.name,
                        tags=list(rule.tags),
                        fired=[ident for ident, bit in plan_bits
                               if mask & bit],
                    ))
                continue
            # duplicate identifiers overwrite in declaration order,
            # exactly like the legacy dict comprehension.
            rule_fired = {ident: mask & bit != 0 for ident, bit in plan_bits}
            if rule.condition.evaluate(rule_fired):
                matches.append(Match(
                    rule=rule.name,
                    tags=list(rule.tags),
                    fired=[ident for ident, hit in rule_fired.items()
                           if hit],
                ))
        _STATS["rules_skipped"] += skipped
        _STATS["rules_evaluated"] += evaluated
        return matches


def _is_blob_needle(needle: bytes) -> bool:
    """Printable needles of blob-run length scan the strings blob."""
    return (len(needle) >= BLOB_MIN_RUN
            and all(byte in _PRINTABLE for byte in needle))


def _condition_idents(node) -> set:
    """All ``$identifier`` names referenced by a condition AST."""
    names: set = set()
    stack = [node]
    while stack:
        current = stack.pop()
        name = getattr(current, "name", None)
        if isinstance(name, str):
            names.add(name)
        for attr in ("left", "right", "child"):
            child = getattr(current, attr, None)
            if child is not None:
                stack.append(child)
    return names


def _is_monotone(node) -> bool:
    """True when the condition AST contains no negation.

    For such conditions an all-False fired map always evaluates False,
    so rules with no fired strings can be skipped without building the
    map or walking the AST.
    """
    stack = [node]
    while stack:
        current = stack.pop()
        if current.__class__.__name__ == "_Not":
            return False
        for attr in ("left", "right", "child"):
            child = getattr(current, attr, None)
            if child is not None:
                stack.append(child)
    return True


# --------------------------------------------------------------------------
# Profiler integration
# --------------------------------------------------------------------------


@contextmanager
def profiled_scan(profiler):
    """Feed kernel + memo counter deltas into a PipelineProfiler.

    Wrap a pipeline or ingest run: on exit the counters gained during
    the block land in the profiler's free-form counter table, next to
    the per-stage timings that ``--profile`` prints.
    """
    stats_before = scan_stats()
    memos = (UNPACK_CACHE, SCAN_CONTEXT_CACHE)
    memo_before = {cache.name: (cache.hits, cache.misses)
                   for cache in memos}
    try:
        yield profiler
    finally:
        stats_after = scan_stats()
        for key, value in stats_after.items():
            delta = value - stats_before.get(key, 0)
            if delta:
                profiler.count(f"scan_{key}", delta)
        for cache in memos:
            hits0, misses0 = memo_before[cache.name]
            if cache.hits - hits0:
                profiler.count(f"{cache.name}_memo_hits",
                               cache.hits - hits0)
            if cache.misses - misses0:
                profiler.count(f"{cache.name}_memo_misses",
                               cache.misses - misses0)
