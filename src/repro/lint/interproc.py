"""Fixpoint interprocedural taint over the project call graph.

The lattice is the two-point enrichment lattice (untainted <
tainted) with field sensitivity supplied at fact-extraction time:
sources are reads of enrichment-owned attributes/keys and calls that
resolve into an enrichment module (:data:`TAINTED_MODULES`).  The
engine computes, per function, a summary

* ``ret_taint`` — the return value carries taint from a source inside
  the function (with a human witness chain),
* ``ret_params`` — parameter positions whose taint flows to the
  return value,
* ``sink_params`` — parameter positions that flow (transitively) into
  a :class:`CheckpointStore` write API,

iterating to fixpoint so taint crosses arbitrary call depth —
including ``pool.submit(f, ...)`` sites, which fact extraction rewrote
into direct calls to ``f``.  Analysis is flow-insensitive over merged
local bindings: one assignment of a tainted value marks the name for
the whole function.  Deliberate precision gap: *mutation* of an
argument does not taint the caller's binding (the enrichment stage
annotates campaigns in place by design; tracking mutation would flag
every post-enrichment snapshot).

Findings derived from the summaries:

* **TAINT002** (upgraded) — a grouping-module call returns an
  enrichment-tainted value (the helper-laundering case the one-hop
  rule missed);
* **TAINT003** — a tainted value reaches a checkpoint sink through
  any call path.

The module also holds what every whole-program pass shares: the
resolved call graph (:class:`ResolvedProgram`), the one caller-ward
worklist (:func:`propagate`) and the summary-engine skeleton
(:class:`FixpointEngine`) that taint and unit/kind flow
(:mod:`repro.lint.unitflow`) both specialise.
"""

from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.lint.callgraph import ProjectIndex, Resolution
from repro.lint.facts import (
    ArgFact,
    BindFact,
    CallFact,
    FunctionFact,
    ModuleSummary,
)

FnKey = Tuple[str, str]  # (module dotted, qualname)


class ResolvedProgram:
    """Memoised call-site resolutions + caller edges over one index.

    Every whole-program pass (taint, unit/kind flow, concurrency,
    resource lifecycle) needs the same three things: a flat
    ``FnKey -> (summary, fact)`` map, a memo of per-call-site
    :class:`Resolution` results, and reverse caller edges for
    worklist propagation.  One instance per index feeds them all (the
    full-tree budget rules out re-resolving the tree per rule).
    Constructor calls (``kind == "class"``) map onto the class's
    ``__init__`` so thread spawns and resource acquisitions inside
    constructors propagate to the instantiation site; taint reads
    only ``kind == "function"`` resolutions, so for it those edges
    merely trigger re-evaluations that return the same summary.
    """

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.facts: Dict[FnKey, Tuple[ModuleSummary, FunctionFact]] = {}
        for summary in index.summaries:
            for qualname in sorted(summary.functions):
                self.facts[(summary.dotted, qualname)] = \
                    (summary, summary.functions[qualname])
        self._resolutions: Dict[Tuple[str, str, int],
                                Optional[Resolution]] = {}
        self._edges: Dict[FnKey,
                          Tuple[Tuple[int, int, FnKey], ...]] = {}
        self._callers: Optional[Dict[FnKey, Tuple[FnKey, ...]]] = None

    def resolve(self, key: FnKey, call_idx: int) -> Optional[Resolution]:
        """The (memoised) resolution of one call site."""
        memo_key = (key[0], key[1], call_idx)
        if memo_key not in self._resolutions:
            summary, fact = self.facts[key]
            self._resolutions[memo_key] = self.index.resolve_call(
                fact.calls[call_idx], fact, summary)
        return self._resolutions[memo_key]

    def callee_key(self, res: Optional[Resolution]) -> Optional[FnKey]:
        """FnKey a resolution lands on: functions directly,
        constructor calls on the class's ``__init__``."""
        if res is None:
            return None
        if res.kind == "function":
            key = (res.module, res.qualname)
            return key if key in self.facts else None
        if res.kind == "class":
            key = (res.module, f"{res.qualname}.__init__")
            return key if key in self.facts else None
        return None

    def edges(self, key: FnKey) -> Tuple[Tuple[int, int, FnKey], ...]:
        """``(call index, line, callee FnKey)`` for every resolved,
        in-project call inside ``key`` (memoised)."""
        cached = self._edges.get(key)
        if cached is not None:
            return cached
        _, fact = self.facts[key]
        out: List[Tuple[int, int, FnKey]] = []
        for ci, call in enumerate(fact.calls):
            callee = self.callee_key(self.resolve(key, ci))
            if callee is not None:
                out.append((ci, call.line, callee))
        result = tuple(out)
        self._edges[key] = result
        return result

    def callers(self, key: FnKey) -> Tuple[FnKey, ...]:
        """Reverse edges (built lazily over the *whole* program)."""
        if self._callers is None:
            callers: Dict[FnKey, Set[FnKey]] = {}
            for caller in self.facts:
                for _ci, _line, callee in self.edges(caller):
                    callers.setdefault(callee, set()).add(caller)
            self._callers = {k: tuple(sorted(v))
                             for k, v in callers.items()}
        return self._callers.get(key, ())


def resolved_program(index: ProjectIndex) -> ResolvedProgram:
    """One shared :class:`ResolvedProgram` per index.

    The project rules run back to back inside one lint invocation;
    caching the program on the index keeps the (expensive) whole-tree
    resolution pass single-shot.
    """
    program = getattr(index, "_resolved_program", None)
    if program is None or program.index is not index:
        program = ResolvedProgram(index)
        index._resolved_program = program
    return program


@dataclass(frozen=True)
class ProjectFinding:
    """A project-level taint or unit/kind violation, pre-Finding."""

    rule_id: str
    module: str          # ModuleSummary.dotted
    line: int
    col: int
    message: str
    symbol: str


def propagate(program: ResolvedProgram, changed: Iterable[FnKey],
              update: Callable[[FnKey, FnKey], bool],
              max_rounds: int = 50) -> None:
    """The caller-ward worklist every whole-program fixpoint runs on.

    Starting from the functions in ``changed``, offer every caller of
    a changed function to ``update(caller, callee)``, which refreshes
    the caller's state and returns whether it changed; changed callers
    join the queue.  The cost therefore scales with the depth of the
    actual chains, not with rounds × program size; ``max_rounds``
    bounds pathological programs at that many visits per function.
    """
    queue = deque(changed)
    queued = set(queue)
    budget = max_rounds * max(1, len(program.facts))
    while queue and budget > 0:
        key = queue.popleft()
        queued.discard(key)
        for caller in program.callers(key):
            budget -= 1
            if update(caller, key) and caller not in queued:
                queue.append(caller)
                queued.add(caller)


class FixpointEngine:
    """Per-function summaries solved to fixpoint, then one report pass.

    Subclasses supply ``_evaluate(key, report)``, which computes one
    function's summary from its callees' current summaries (appending
    findings when ``report`` is a list), and a summary type with a
    ``same`` fixpoint-equality test.
    """

    def __init__(self, program: ResolvedProgram, bottom) -> None:
        self.program = program
        self.summaries = {key: bottom() for key in program.facts}

    def solve(self, max_rounds: int = 50) -> None:
        """Evaluate every function once, then re-evaluate callers of
        whatever changed until the summaries stabilise."""
        changed = [key for key in self.program.facts
                   if self._refresh(key)]
        propagate(self.program, changed,
                  lambda caller, _callee: self._refresh(caller),
                  max_rounds)

    def _refresh(self, key: FnKey) -> bool:
        new = self._evaluate(key, None)
        if new.same(self.summaries[key]):
            return False
        self.summaries[key] = new
        return True

    def report(self) -> List[ProjectFinding]:
        """One reporting pass over the solved program."""
        findings: List[ProjectFinding] = []
        for key in self.program.facts:
            self._evaluate(key, findings)
        findings.sort(key=lambda f: (f.module, f.line, f.col,
                                     f.rule_id, f.message))
        return findings

    def _evaluate(self, key: FnKey,
                  report: Optional[List[ProjectFinding]]):
        raise NotImplementedError


@dataclass(frozen=True)
class TaintState:
    """One value's abstract state: witness (if tainted) + param deps."""

    witness: Optional[str] = None
    params: FrozenSet[int] = frozenset()

    @property
    def tainted(self) -> bool:
        return self.witness is not None

    def merge(self, other: "TaintState") -> "TaintState":
        """Lattice join: keep the first witness, union param deps."""
        if other.witness is None and not other.params:
            return self
        return TaintState(
            witness=self.witness if self.witness is not None
            else other.witness,
            params=self.params | other.params)


_BOTTOM = TaintState()


@dataclass
class FnSummary:
    """Fixpoint state for one function."""

    ret_taint: Optional[str] = None
    ret_params: FrozenSet[int] = frozenset()
    #: param position -> description of the sink it reaches
    sink_params: Dict[int, str] = field(default_factory=dict)

    def same(self, other: "FnSummary") -> bool:
        """Fixpoint equality (witness text is display-only)."""
        return (self.ret_taint is None) == (other.ret_taint is None) \
            and self.ret_params == other.ret_params \
            and set(self.sink_params) == set(other.sink_params)


class TaintEngine(FixpointEngine):
    """Runs the whole-program taint fixpoint and reports violations."""

    def __init__(self, program: ResolvedProgram) -> None:
        super().__init__(program, FnSummary)

    # -- per-function abstract evaluation ----------------------------------

    def _evaluate(self, key: FnKey,
                  report: Optional[List[ProjectFinding]]) -> FnSummary:
        summary, fact = self.program.facts[key]
        names: Dict[str, TaintState] = {
            name: TaintState(params=frozenset({i}))
            for i, name in enumerate(fact.params)}
        call_cache: Dict[int, TaintState] = {}

        def state_of_name(name: str) -> TaintState:
            return names.get(name, _BOTTOM)

        def state_of_reads(reads) -> TaintState:
            state = _BOTTOM
            for name in sorted(reads):
                state = state.merge(state_of_name(name))
            return state

        def state_of_arg(arg: ArgFact,
                         depth: int = 0) -> TaintState:
            state = state_of_reads(arg.reads)
            if arg.direct is not None:
                state = state.merge(TaintState(witness=arg.direct))
            for ci in arg.calls:
                state = state.merge(call_result(ci, depth + 1))
            return state

        def call_result(ci: int, depth: int = 0) -> TaintState:
            if depth > len(fact.calls) + 2:
                return _BOTTOM  # pathological nesting; stay sound-ish
            if ci in call_cache:
                return call_cache[ci]
            call_cache[ci] = _BOTTOM  # cycle guard
            call = fact.calls[ci]
            res = self.program.resolve(key, ci)
            arg_states = [state_of_arg(a, depth) for a in call.args]
            kw_states = [(kw, state_of_arg(a, depth))
                         for kw, a in call.kwargs]
            base = state_of_reads(call.base_reads)
            if call.base_direct is not None:
                base = base.merge(TaintState(witness=call.base_direct))
            state = self._apply_call(
                call, res, arg_states, kw_states, base)
            call_cache[ci] = state
            return state

        # iterate local bindings to a (small) fixpoint: loops can
        # thread taint through cyclic local dependencies.
        for _ in range(max(2, len(fact.binds))):
            changed = False
            for name in sorted(fact.binds):
                bind = fact.binds[name]
                state = state_of_reads(bind.reads)
                if bind.direct is not None:
                    state = state.merge(TaintState(witness=bind.direct))
                for ci in bind.calls:
                    state = state.merge(call_result(ci))
                merged = state_of_name(name).merge(state)
                if merged != names.get(name):
                    names[name] = merged
                    changed = True
            call_cache.clear()
            if not changed:
                break

        new = FnSummary()
        self._finish_calls(key, names, call_result, state_of_arg, new,
                           report)
        ret = state_of_reads(fact.ret.reads)
        if fact.ret.direct is not None:
            ret = ret.merge(TaintState(witness=fact.ret.direct))
        for ci in fact.ret.calls:
            ret = ret.merge(call_result(ci))
        new.ret_taint = ret.witness
        new.ret_params = ret.params
        return new

    def _apply_call(self, call: CallFact, res: Optional[Resolution],
                    arg_states: List[TaintState],
                    kw_states: List[Tuple[Optional[str], TaintState]],
                    base: TaintState) -> TaintState:
        if res is not None and res.kind == "tainted":
            params = base.params
            for state in arg_states:
                params = params | state.params
            return TaintState(
                witness=f"call into enrichment module "
                f"'{res.origin}' (line {call.line})",
                params=params)
        if res is not None and res.kind == "function":
            target = self.summaries.get((res.module, res.qualname))
            _, target_fact = self.program.facts[
                (res.module, res.qualname)]
            state = base  # method results may carry their receiver
            if target is None:
                return state
            if target.ret_taint is not None:
                state = state.merge(TaintState(
                    witness=f"{res.origin}() returns a tainted value "
                    f"({target.ret_taint})"))
            for j in target.ret_params:
                flowing = self._arg_at(target_fact, j, arg_states,
                                       kw_states)
                if flowing is not None:
                    state = state.merge(flowing)
            return state
        # unresolved call (or plain constructor): conservative
        # pass-through of everything flowing in.
        state = base
        for other in arg_states:
            state = state.merge(other)
        for _, other in kw_states:
            state = state.merge(other)
        return state

    @staticmethod
    def _arg_at(target_fact: FunctionFact, j: int,
                arg_states: List[TaintState],
                kw_states: List[Tuple[Optional[str], TaintState]],
                ) -> Optional[TaintState]:
        if j < len(arg_states):
            return arg_states[j]
        if j < len(target_fact.params):
            wanted = target_fact.params[j]
            for kw, state in kw_states:
                if kw == wanted:
                    return state
        return None

    def _finish_calls(self, key: FnKey,
                      names: Dict[str, TaintState],
                      call_result: Callable[[int], TaintState],
                      state_of_arg: Callable[[ArgFact], TaintState],
                      new: FnSummary,
                      report: Optional[List[ProjectFinding]]) -> None:
        """Sink propagation + (on the reporting pass) findings."""
        summary, fact = self.program.facts[key]
        for ci, call in enumerate(fact.calls):
            res = self.program.resolve(key, ci)
            arg_states = [state_of_arg(a) for a in call.args]
            kw_states = [(kw, state_of_arg(a))
                         for kw, a in call.kwargs]
            if call.is_sink:
                flowing = _BOTTOM
                for state in arg_states:
                    flowing = flowing.merge(state)
                for _, state in kw_states:
                    flowing = flowing.merge(state)
                where = (f"checkpoint sink "
                         f"'{(call.callee or '?').split('.')[-1]}()' "
                         f"at {summary.relpath}:{call.line}")
                for j in flowing.params:
                    new.sink_params.setdefault(j, where)
                if flowing.tainted and report is not None:
                    report.append(ProjectFinding(
                        rule_id="TAINT003", module=summary.dotted,
                        line=call.line, col=call.col,
                        message=f"enrichment-tainted value reaches "
                        f"{where.split(' at ')[0]} — checkpoints must "
                        f"be pure functions of the corpus "
                        f"(source: {flowing.witness})",
                        symbol=fact.qualname))
            if res is not None and res.kind == "function":
                target = self.summaries.get((res.module, res.qualname))
                _, target_fact = self.program.facts[
                    (res.module, res.qualname)]
                if target is not None and target.sink_params:
                    for j, sink_desc in sorted(
                            target.sink_params.items()):
                        flowing = self._arg_at(
                            target_fact, j, arg_states, kw_states)
                        if flowing is None:
                            continue
                        for p in flowing.params:
                            new.sink_params.setdefault(
                                p, sink_desc)
                        if flowing.tainted and report is not None:
                            report.append(ProjectFinding(
                                rule_id="TAINT003",
                                module=summary.dotted,
                                line=call.line, col=call.col,
                                message=f"enrichment-tainted value "
                                f"flows through {res.origin}() into "
                                f"the {sink_desc} "
                                f"(source: {flowing.witness})",
                                symbol=fact.qualname))
                if summary.is_grouping and report is not None and \
                        target is not None and \
                        target.ret_taint is not None:
                    report.append(ProjectFinding(
                        rule_id="TAINT002", module=summary.dotted,
                        line=call.line, col=call.col,
                        message=f"call to {res.origin}() returns an "
                        f"enrichment-tainted value inside a grouping "
                        f"module ({target.ret_taint}) — enrichment "
                        f"must stay informative, never a grouping "
                        f"edge (paper §III-E)",
                        symbol=fact.qualname))


def run_taint_analysis(program: ResolvedProgram) -> List[ProjectFinding]:
    """Solve the fixpoint and return every project-level violation."""
    engine = TaintEngine(program)
    engine.solve()
    return engine.report()
