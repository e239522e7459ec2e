"""RES — acquire/release pair tracking over the whole program.

The out-of-core pipeline leans on OS-backed handles everywhere:
``mmap``-ed segment readers in ``scale.store``, spill files in the
sharded aggregator, listen/reservation sockets in the server fleet.
Every one of those must reach a release on *every* path out of its
owner, or a long ingest run leaks file descriptors until the kernel
says no.  This pass tracks acquisition sites
(:data:`~repro.lint.contracts.RESOURCE_FACTORY_TEXTS` /
:data:`RESOURCE_FACTORY_CALLS`) and their releases as interprocedural
facts on the shared :class:`~repro.lint.interproc.ResolvedProgram`.

**RES001** fires when an acquisition path can exit without release:

* the handle is bound but no ``close``/``release``/``stop`` ever
  touches it ("never released"),
* the only release is outside any ``finally`` ("released only on the
  happy path" — an exception between acquire and close leaks),
* the result is stored on ``self`` but the owning class defines no
  release method at all,
* the result is acquired and immediately dropped.

Sanctioned ownership transfers stay silent: ``with`` management,
returning the handle (the *caller* inherits the obligation — calls to
such factory functions are themselves acquisition sites, found by a
returns-resource fixpoint), yielding it, passing it whole to another
call, or storing it on a class that has a release method.  Classes
that wrap a raw acquire in ``__init__`` and expose a release method
("resource classes": segment readers, clients) make their *call
sites* acquisition sites too, under the same ownership rules.
"""

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lint.contracts import RESOURCE_RELEASE_METHODS
from repro.lint.engine import ProjectEmitter, ProjectRule
from repro.lint.facts import AcquireFact, FunctionFact, ModuleSummary
from repro.lint.findings import register_rule
from repro.lint.interproc import (
    FnKey,
    ResolvedProgram,
    propagate,
    resolved_program,
)

RES001 = register_rule(
    "RES001", "resource-lifecycle",
    "resource acquisition can exit without release")

#: the subsystems that own OS-backed handles — emission is scoped here
#: (the returner/resource-class fixpoints stay whole-program so an
#: in-scope caller of an out-of-scope factory is still checked).
SCOPE_DIRS = frozenset({"scale", "serve", "stratum", "perf", "ingest"})


def _in_scope(dotted: str) -> bool:
    return not SCOPE_DIRS.isdisjoint(dotted.split("."))


def _has_release(summary: ModuleSummary, cls_name: str) -> bool:
    cls = summary.classes.get(cls_name)
    return cls is not None and \
        bool(cls.attrs & RESOURCE_RELEASE_METHODS)


def _bound_names(fact: FunctionFact) -> Dict[int, str]:
    """call index -> the single local name its result is bound to."""
    out: Dict[int, str] = {}
    for name, bind in fact.binds.items():
        if bind.is_call is not None:
            out[bind.is_call] = name
    return out


def _candidate_names(fact: FunctionFact, ci: Optional[int]
                     ) -> FrozenSet[str]:
    """Every local name whose binding involves call ``ci`` — the
    tuple-unpack (``r, w = os.pipe()``) and reassigned-name
    (``sock = make() ... sock = other``) fallback when the acquire has
    no unique single-name binding."""
    if ci is None:
        return frozenset()
    return frozenset(name for name, bind in fact.binds.items()
                     if ci in bind.calls)


def _consumed_calls(fact: FunctionFact) -> Set[int]:
    """Call indices whose value flows onward: returned, or nested in
    another call's arguments (ownership transferred)."""
    consumed: Set[int] = set(fact.ret.calls)
    for call in fact.calls:
        for arg in call.args:
            consumed.update(arg.calls)
        for _kw, arg in call.kwargs:
            consumed.update(arg.calls)
    return consumed


class ResourceLifecycleRule(ProjectRule):
    """RES001 over direct, factory-returned and class-wrapped handles."""

    def run(self, index, emitter: ProjectEmitter) -> None:
        program = resolved_program(index)
        returners = self._resource_returners(program)
        resource_classes = self._resource_classes(program, returners)
        for key in sorted(program.facts):
            if not _in_scope(key[0]):
                continue
            self._check_function(program, key, returners,
                                 resource_classes, emitter)

    # -- interprocedural substrate -----------------------------------------

    @staticmethod
    def _escapes_with(fact: FunctionFact, acq: AcquireFact) -> bool:
        """The acquired handle leaves this function's ownership."""
        if acq.name is not None and acq.name in fact.returned_names:
            return True
        return acq.call_index is not None and \
            acq.call_index in fact.ret.calls

    def _resource_returners(self, program: ResolvedProgram
                            ) -> Dict[FnKey, str]:
        """Functions whose return value is an unreleased handle."""
        returners: Dict[FnKey, str] = {}
        for key, (_summary, fact) in program.facts.items():
            for acq in fact.acquires:
                if not acq.managed and self._escapes_with(fact, acq):
                    returners[key] = acq.kind
                    break

        # transitive: returning another returner's result.
        def update(caller: FnKey, callee: FnKey) -> bool:
            if caller in returners:
                return False
            fact = program.facts[caller][1]
            bound = _bound_names(fact)
            for ci, _line, target in program.edges(caller):
                if target != callee:
                    continue
                name = bound.get(ci)
                if ci in fact.ret.calls or (
                        name is not None and name in fact.returned_names):
                    returners[caller] = returners[callee]
                    return True
            return False

        propagate(program, sorted(returners), update)
        return returners

    @staticmethod
    def _resource_classes(program: ResolvedProgram,
                          returners: Dict[FnKey, str]
                          ) -> Dict[FnKey, str]:
        """``(module, "Cls.__init__")`` keys whose class wraps a raw
        handle and exposes a release method; value is the kind."""
        out: Dict[FnKey, str] = {}
        for key, (summary, fact) in program.facts.items():
            if not key[1].endswith(".__init__"):
                continue
            cls_name = key[1].split(".")[0]
            if not _has_release(summary, cls_name):
                continue
            kind: Optional[str] = None
            if fact.acquires:
                kind = fact.acquires[0].kind
            else:
                for _ci, _line, callee in program.edges(key):
                    if callee in returners:
                        kind = returners[callee]
                        break
            if kind is not None:
                out[key] = f"{cls_name}({kind})"
        return out

    # -- per-function ownership check --------------------------------------

    def _check_function(self, program: ResolvedProgram, key: FnKey,
                        returners: Dict[FnKey, str],
                        resource_classes: Dict[FnKey, str],
                        emitter: ProjectEmitter) -> None:
        summary, fact = program.facts[key]
        bound = _bound_names(fact)
        consumed = _consumed_calls(fact)
        events: List[Tuple[int, int, str, Optional[str], bool,
                           Optional[int]]] = []
        for acq in fact.acquires:
            if acq.managed:
                continue
            events.append((acq.line, acq.col, acq.kind, acq.name,
                           acq.stored_attr, acq.call_index))
        for ci, line, callee in program.edges(key):
            kind = returners.get(callee) or resource_classes.get(callee)
            if kind is None or callee == key:
                continue
            if ci in fact.with_call_indices:
                continue
            events.append((line, 1, kind, bound.get(ci),
                           ci in fact.attr_store_call_indices, ci))
        for line, col, kind, name, stored_attr, ci in sorted(events):
            message = self._verdict(summary, fact, kind, name,
                                    stored_attr, ci, consumed)
            if message is not None:
                emitter.emit(RES001.rule_id, summary.dotted, line,
                             col, message, symbol=fact.qualname)

    @staticmethod
    def _verdict(summary: ModuleSummary, fact: FunctionFact, kind: str,
                 name: Optional[str], stored_attr: bool,
                 ci: Optional[int], consumed: Set[int]
                 ) -> Optional[str]:
        """None when ownership is sound, else the RES001 message."""
        names = (frozenset({name}) if name is not None
                 else _candidate_names(fact, ci))
        if names:
            happy: List[str] = []
            for candidate in sorted(names):
                if candidate in fact.escaping_names or \
                        candidate in fact.with_names or \
                        candidate in fact.finally_closed_names:
                    continue  # transferred, managed, or finally-closed
                if candidate in fact.closed_names:
                    happy.append(candidate)
                    continue
                return (f"'{candidate}' ({kind}) is never released on "
                        f"any path — close it in a finally or use "
                        f"`with`")
            if happy:
                return (f"'{happy[0]}' ({kind}) is released only on "
                        f"the happy path — an exception between "
                        f"acquire and close leaks the handle; move "
                        f"the close into a finally or use `with`")
            return None
        if stored_attr:
            cls_name = fact.qualname.split(".")[0] \
                if "." in fact.qualname else None
            if cls_name is not None and _has_release(summary, cls_name):
                return None  # the owning object carries the obligation
            owner = cls_name or "the module"
            return (f"{kind} handle stored on an attribute, but "
                    f"{owner} defines no release method "
                    f"(close/stop/shutdown/__exit__)")
        if ci is not None and ci in consumed:
            return None  # returned or passed whole to another call
        return (f"{kind} handle is acquired and immediately dropped — "
                f"bind and release it, or use `with`")
