"""The resolved call graph every whole-program pass shares.

The concurrency and unit/kind passes need the same two things over
the project call graph: a flat ``FnKey -> (summary, fact)`` map with
memoised call-site resolutions and caller edges
(:class:`ResolvedProgram`), and one caller-ward worklist
(:func:`propagate`).
"""

from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.callgraph import ProjectIndex, Resolution
from repro.lint.facts import FunctionFact, ModuleSummary

FnKey = Tuple[str, str]  # (module dotted, qualname)


class ResolvedProgram:
    """Memoised call-site resolutions + caller edges over one index.

    Every whole-program pass (unit/kind flow, concurrency) needs the
    same three things: a flat ``FnKey -> (summary, fact)`` map, a memo
    of per-call-site :class:`Resolution` results, and reverse caller
    edges for worklist propagation.  One instance per index feeds them
    all (the full-tree budget rules out re-resolving the tree per
    rule).  Constructor calls (``kind == "class"``) map onto the
    class's ``__init__`` so thread spawns inside constructors
    propagate to the instantiation site.
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
