"""Project-wide call graph over the per-module fact summaries.

:class:`ProjectIndex` joins every module's :class:`ModuleSummary` into
one resolvable namespace: dotted call-site text resolves through import
aliases, package ``__init__`` re-export chains, ``self.`` method
dispatch and locally-constructed instance types to a concrete project
function or class.  Resolution is *conservative*: anything dynamic
resolves to ``None`` rather than pretending to know the callee.

The same index answers the dead-symbol question (which module-level
functions are unreachable from the CLI entrypoints) and renders the
human-readable graph for ``repro lint --graph``.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.facts import CallFact, FunctionFact, ModuleSummary

#: resolution chain depth cap (re-export hops, alias chains).
_MAX_HOPS = 8


@dataclass(frozen=True)
class Resolution:
    """What a call site's callee text resolves to."""

    kind: str                    # "function" | "class"
    module: Optional[str] = None  # ModuleSummary.dotted key
    qualname: Optional[str] = None
    #: fully-qualified display text ("repro.osint.stock_tools.match")
    origin: Optional[str] = None


class ProjectIndex:
    """Every module summary, joined into one resolvable program."""

    def __init__(self, summaries: List[ModuleSummary]) -> None:
        self.summaries = sorted(summaries, key=lambda s: s.relpath)
        self.by_dotted: Dict[str, ModuleSummary] = {}
        for summary in self.summaries:
            self.by_dotted[summary.dotted] = summary
            if summary.parts[-1] == "__init__" and len(summary.parts) > 1:
                # a package's __init__ answers for the package name
                self.by_dotted.setdefault(
                    ".".join(summary.parts[:-1]), summary)
        self._by_stem: Dict[str, List[str]] = {}
        for dotted in self.by_dotted:
            self._by_stem.setdefault(
                dotted.split(".")[-1], []).append(dotted)
        self.has_entrypoint = any(s.is_entrypoint
                                  for s in self.summaries)

    # -- module and symbol lookup ------------------------------------------

    def find_module(self, dotted: str) -> Optional[ModuleSummary]:
        """Module whose dotted path matches ``dotted`` by suffix.

        Lint roots are package directories, so summaries carry paths
        like ``core.aggregation`` while imports say
        ``repro.core.aggregation``; a match requires one dotted path to
        be a part-boundary suffix of the other, and must be unique.
        """
        exact = self.by_dotted.get(dotted)
        if exact is not None:
            return exact
        stem = dotted.split(".")[-1]
        hits = []
        for candidate in self._by_stem.get(stem, ()):
            if dotted.endswith("." + candidate) or \
                    candidate.endswith("." + dotted):
                hits.append(candidate)
        if len(hits) == 1:
            return self.by_dotted[hits[0]]
        return None

    def resolve_qualified(self, origin: str,
                          hops: int = _MAX_HOPS) -> Optional[Resolution]:
        """Resolve fully-qualified ``origin`` text to a symbol.

        Splits ``pkg.mod.sym`` at every boundary and follows re-export
        aliases through package ``__init__`` modules.
        """
        if hops <= 0:
            return None
        parts = origin.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = self.find_module(".".join(parts[:split]))
            if module is None:
                continue
            return self._resolve_in_module(module, parts[split:], hops)
        return None

    def _resolve_in_module(self, module: ModuleSummary,
                           rest: List[str],
                           hops: int) -> Optional[Resolution]:
        head = rest[0]
        if head in module.classes:
            if len(rest) == 1:
                return Resolution(
                    kind="class", module=module.dotted, qualname=head,
                    origin=f"{module.dotted}.{head}")
            qual = f"{head}.{rest[1]}"
            if qual in module.functions:
                return Resolution(
                    kind="function", module=module.dotted,
                    qualname=qual, origin=f"{module.dotted}.{qual}")
            return None
        if head in module.functions and len(rest) == 1:
            return Resolution(
                kind="function", module=module.dotted, qualname=head,
                origin=f"{module.dotted}.{head}")
        alias = module.import_aliases.get(head)
        if alias is not None:
            # re-export: from .parallel import Engine in __init__.py
            return self.resolve_qualified(
                ".".join([alias] + rest[1:]), hops - 1)
        return None

    # -- call-site resolution ----------------------------------------------

    def resolve_call(self, call: CallFact, fact: FunctionFact,
                     summary: ModuleSummary,
                     hops: int = _MAX_HOPS) -> Optional[Resolution]:
        """Resolve one call site in ``fact`` (in ``summary``)."""
        text = call.callee
        if text is None or hops <= 0:
            return None
        parts = text.split(".")
        head = parts[0]
        if head in ("self", "cls") and len(parts) == 2 and \
                "." in fact.qualname:
            cls = fact.qualname.split(".")[0]
            qual = f"{cls}.{parts[1]}"
            if qual in summary.functions:
                return Resolution(
                    kind="function", module=summary.dotted,
                    qualname=qual,
                    origin=f"{summary.dotted}.{qual}")
            return None
        if len(parts) == 1:
            if text in summary.functions and \
                    text in summary.module_functions:
                return Resolution(
                    kind="function", module=summary.dotted,
                    qualname=text,
                    origin=f"{summary.dotted}.{text}")
            if text in summary.classes:
                return Resolution(
                    kind="class", module=summary.dotted, qualname=text,
                    origin=f"{summary.dotted}.{text}")
            origin = summary.import_aliases.get(text)
            if origin is not None:
                return self.resolve_qualified(origin)
            return None
        # dotted call: instance method on a locally-typed name?
        local_type = fact.local_types.get(head)
        if local_type is not None and len(parts) == 2:
            ctor = self._resolve_text(local_type, summary, fact,
                                      hops - 1)
            if ctor is not None and ctor.kind == "function":
                # the local is bound from a *factory* call — follow the
                # factory's return annotation to the instance class
                # (``engine = self._chunk_engine(...)`` with
                # ``-> ParallelExtractionEngine``).
                owner = self.by_dotted[ctor.module]
                target = owner.functions.get(ctor.qualname)
                annotation = (target.ret_annotation
                              if target is not None else None)
                if annotation:
                    ctor = self._resolve_text(annotation, owner, target,
                                              hops - 1)
                else:
                    ctor = None
            if ctor is not None and ctor.kind == "class":
                owner = self.by_dotted[ctor.module]
                qual = f"{ctor.qualname}.{parts[1]}"
                if qual in owner.functions:
                    return Resolution(
                        kind="function", module=owner.dotted,
                        qualname=qual,
                        origin=f"{owner.dotted}.{qual}")
            return None
        origin = summary.import_aliases.get(head)
        if origin is not None:
            return self.resolve_qualified(
                ".".join([origin] + parts[1:]))
        return None

    def _resolve_text(self, text: str, summary: ModuleSummary,
                      fact: FunctionFact,
                      hops: int = _MAX_HOPS) -> Optional[Resolution]:
        """Resolve arbitrary dotted text seen inside ``summary``."""
        synthetic = CallFact(line=0, col=0, callee=text)
        return self.resolve_call(synthetic, fact, summary, hops)

    # -- call-graph edges ---------------------------------------------------

    def edges(self) -> Dict[Tuple[str, str], List[Resolution]]:
        """``(module, qualname) -> resolved callees``, stable order."""
        out: Dict[Tuple[str, str], List[Resolution]] = {}
        for summary in self.summaries:
            for qualname in sorted(summary.functions):
                fact = summary.functions[qualname]
                seen: Set[str] = set()
                resolved: List[Resolution] = []
                for call in fact.calls:
                    res = self.resolve_call(call, fact, summary)
                    if res is None or res.origin in seen:
                        continue
                    seen.add(res.origin)
                    resolved.append(res)
                out[(summary.dotted, qualname)] = resolved
        return out

    # -- dead-symbol reachability ------------------------------------------

    def reachable_functions(self) -> Set[Tuple[str, str]]:
        """``(module, qualname)`` pairs reachable from the roots.

        Roots are every module body, every method (classes may be
        driven dynamically), every ``__all__`` export, every dunder,
        and everything defined in an entrypoint module.  Edges are any
        name/attribute-chain *reference* — calling, storing, passing:
        a reference is liveness; only the never-mentioned die.
        """
        live: Set[Tuple[str, str]] = set()
        stack: List[Tuple[str, str]] = []

        def mark(module: str, qualname: str) -> None:
            key = (module, qualname)
            if key not in live:
                live.add(key)
                stack.append(key)

        def mark_reads(summary: ModuleSummary, reads) -> None:
            for name in reads:
                for target in self._read_targets(summary, name):
                    mark(*target)

        for summary in self.summaries:
            mark_reads(summary, summary.module_reads)
            for qualname in summary.functions:
                if "." in qualname or summary.is_entrypoint or \
                        qualname in summary.exported or \
                        (qualname.startswith("__")
                         and qualname.endswith("__")):
                    mark(summary.dotted, qualname)
            for name in summary.exported:
                # ``__all__`` re-export: the name is a string, so it
                # never shows up as a Name load — follow the import
                # alias to the defining module explicitly.
                origin = summary.import_aliases.get(name)
                if origin is not None:
                    res = self.resolve_qualified(origin)
                    if res is not None and res.kind == "function" \
                            and "." not in res.qualname:
                        mark(res.module, res.qualname)
                    continue
                if name in summary.functions:
                    continue
                # unaliased export (lazy ``__getattr__`` dispatch):
                # any module this one references that defines the
                # name may be the origin — mark them all; liveness
                # over-approximation only suppresses DEAD001.
                referenced = set(summary.import_aliases.values())
                referenced.update(summary.imported_modules)
                for dotted in referenced:
                    target = self.find_module(dotted)
                    if target is not None and \
                            name in target.module_functions:
                        mark(target.dotted, name)
        while stack:
            module, qualname = stack.pop()
            summary = self.by_dotted.get(module)
            fact = summary.functions.get(qualname) if summary else None
            if fact is not None:
                mark_reads(summary, fact.reads_all)
        return live

    def _read_targets(self, summary: ModuleSummary,
                      name: str) -> List[Tuple[str, str]]:
        """Module-level functions a name/attr-chain read refers to."""
        parts = name.split(".")
        head = parts[0]
        if head in ("self", "cls"):
            return []
        if len(parts) == 1:
            if name in summary.module_functions:
                return [(summary.dotted, name)]
            origin = summary.import_aliases.get(name)
            if origin is None:
                return []
            res = self.resolve_qualified(origin)
        else:
            origin = summary.import_aliases.get(head)
            dotted = (".".join([origin] + parts[1:])
                      if origin is not None else name)
            res = self.resolve_qualified(dotted)
        if res is not None and res.kind == "function" and \
                "." not in res.qualname:
            return [(res.module, res.qualname)]
        return []


# --------------------------------------------------------------------------
# --graph rendering
# --------------------------------------------------------------------------


def render_contracts(index: ProjectIndex) -> str:
    """The stage-contract table: dict keys produced/required per
    function (only rows with inferred shape facts)."""
    lines: List[str] = [
        "# stage contracts (inferred dict-key sets)",
        "# produces: constant keys of every returned dict display",
        "# requires: keys a parameter is indexed with (d['k'] "
        "hard, d.get/'k' in d soft)",
    ]
    for summary in index.summaries:
        for qualname in sorted(summary.functions):
            fact = summary.functions[qualname]
            rows: List[str] = []
            if fact.returns_dict_keys:
                keys = ", ".join(sorted(fact.returns_dict_keys))
                rows.append(f"  produces: {{{keys}}}")
            for i, name in enumerate(fact.params):
                use = fact.name_uses.get(name)
                if use is None or use.open_reads:
                    continue
                hard = sorted(use.key_reads)
                soft = sorted(set(use.key_tests) - set(use.key_reads))
                if not hard and not soft:
                    continue
                spec = ", ".join(hard + [f"{k}?" for k in soft])
                rows.append(f"  requires[{name}]: {{{spec}}}")
            if rows:
                lines.append(f"{summary.dotted}.{qualname}")
                lines.extend(rows)
    return "\n".join(lines) + "\n"


def render_concurrency(index: ProjectIndex) -> str:
    """The thread/fork/coroutine fact summary for ``--graph``.

    One line per concurrency-relevant site — thread spawns (with their
    targets), fork points, coroutines and blocking calls — so the CI
    artifact shows exactly which surfaces the FORK/ASYNC/THR passes
    reason about.
    """
    lines: List[str] = ["# concurrency facts "
                        "(thread / fork / coroutine sites)"]
    spawns = forks = coroutines = blocking = 0
    for summary in index.summaries:
        rows: List[str] = []
        for qualname in sorted(summary.functions):
            fact = summary.functions[qualname]
            if fact.is_async:
                coroutines += 1
                rows.append(f"  async {qualname} (line {fact.line})")
            for line in fact.thread_spawns:
                spawns += 1
                target = next((t for t, tl in fact.thread_targets
                               if tl == line), None)
                suffix = f" target={target}" if target else ""
                rows.append(f"  thread-spawn {qualname}:{line}{suffix}")
            for line in fact.fork_points:
                forks += 1
                rows.append(f"  fork-point {qualname}:{line}")
            for line, callee in fact.blocking_calls:
                blocking += 1
                rows.append(f"  blocking {qualname}:{line} {callee}()")
        if rows:
            lines.append(summary.dotted)
            lines.extend(rows)
    lines.append(f"# {spawns} thread spawns, {forks} fork points, "
                 f"{coroutines} coroutines, {blocking} blocking sites")
    return "\n".join(lines) + "\n"


def render_graph(index: ProjectIndex) -> str:
    """The human-readable call graph for ``repro lint --graph``."""
    lines: List[str] = ["# call graph (resolved edges only)"]
    edges = index.edges()
    for (module, qualname), targets in sorted(edges.items()):
        if not targets:
            continue
        lines.append(f"{module}.{qualname}")
        for res in targets:
            tag = "->" if res.kind == "function" else "=>"
            lines.append(f"  {tag} {res.origin}")
    unresolved = sum(1 for targets in edges.values()
                     if not targets)
    lines.append(f"# {len(edges)} functions, "
                 f"{unresolved} with no resolved edges")
    return "\n".join(lines) + "\n"
