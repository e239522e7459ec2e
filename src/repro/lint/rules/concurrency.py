"""FORK/ASYNC/THR — concurrency discipline over the multi-core code.

The repository runs a bounded prefetcher thread, an asyncio serving
loop with lock-free hot swap, and a forked server fleet.  Each of
those is only correct under an ordering discipline the code keeps by
convention; this whole-program pass keeps it mechanically, on top of
the shared :class:`~repro.lint.interproc.ResolvedProgram` substrate.

* **FORK001** — no live threads at a fork point.  A forked child
  inherits only the forking thread; any other thread's locks (the
  prefetcher queue's, a logging handler's) are frozen mid-state in
  the child, which then deadlocks at first touch.  The pass finds,
  per function, a thread-spawning call (direct ``Thread(...)`` or a
  call into a function that *returns* with a live thread) followed by
  a fork-ward call (direct pool/``os.fork`` or a call
  whose callee transitively forks) with no release (``close``/
  ``join``/``stop``/``shutdown``) in between.
* **ASYNC001** — no blocking call (``time.sleep``, raw socket I/O,
  ``open``, ``subprocess``) reachable from a coroutine body through
  sync calls without an executor hop; one blocked coroutine stalls
  every connection the loop serves.  ``await``-ed calls and
  ``run_in_executor``/``to_thread`` arguments are exempt at fact
  extraction, so the async stream APIs sharing these method names
  never fire.
* **ASYNC002** — a call that resolves to a coroutine function must be
  awaited, scheduled (``create_task``/``gather``/``asyncio.run`` ...)
  or bound/forwarded for a later await; a bare call just builds a
  coroutine object and silently does nothing.  Second half: calls to
  loop-affine flip methods (:data:`LOOP_AFFINE_METHODS`, the index
  hot-swap) on a class that owns coroutines must come from the loop
  thread — an async caller, a ``call_soon``-marshalled callback, or
  the class's own methods.
* **THR001** — module-level mutable state (plain dict/list/set)
  touched from both a thread target's call tree and the main path,
  with at least one side mutating, must be a ``queue.Queue``/
  ``Event`` (:data:`THREAD_SAFE_TYPES`) or lock-guarded (every
  mutator holds a ``with ...lock:`` block).
"""

from collections import deque
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.lint.contracts import LOOP_AFFINE_METHODS
from repro.lint.engine import ProjectEmitter, ProjectRule
from repro.lint.findings import register_rule
from repro.lint.interproc import (
    FnKey,
    ResolvedProgram,
    propagate,
    resolved_program,
)

FORK001 = register_rule(
    "FORK001", "concurrency",
    "live thread at a fork point (release it first)")
ASYNC001 = register_rule(
    "ASYNC001", "concurrency",
    "blocking call reachable inside a coroutine without an executor hop")
ASYNC002 = register_rule(
    "ASYNC002", "concurrency",
    "coroutine never awaited/scheduled, or loop-affine call off-loop")
THR001 = register_rule(
    "THR001", "concurrency",
    "module-level mutable state shared between a thread and the main path")


def _reach(program: ResolvedProgram, seeded: Dict[FnKey, str],
           passes: Callable[[FnKey, int], bool]) -> Dict[FnKey, str]:
    """Extend ``seeded`` caller-ward on the shared worklist: a caller
    inherits a member callee's witness when ``passes(caller, line)``
    holds for its call at ``line``."""
    def update(caller: FnKey, callee: FnKey) -> bool:
        if caller in seeded:
            return False
        for _ci, line, target in program.edges(caller):
            if target == callee and passes(caller, line):
                seeded[caller] = seeded[callee]
                return True
        return False

    propagate(program, sorted(seeded), update)
    return seeded


class ConcurrencyRule(ProjectRule):
    """FORK001/ASYNC001/ASYNC002/THR001 over the program."""

    def run(self, index, emitter: ProjectEmitter) -> None:
        program = resolved_program(index)
        self._check_fork_ordering(program, emitter)
        self._check_async(program, emitter)
        self._check_shared_state(program, emitter)

    # -- FORK001 -----------------------------------------------------------

    def _fork_reachers(self, program: ResolvedProgram) -> Dict[FnKey, str]:
        """FnKey -> witness for functions that may fork."""
        seeded: Dict[FnKey, str] = {}
        for key, (summary, fact) in program.facts.items():
            if fact.fork_points:
                seeded[key] = f"{summary.dotted}.{fact.qualname}" \
                              f" (fork at line {fact.fork_points[0]})"
        return _reach(program, seeded, lambda _caller, _line: True)

    def _live_spawners(self, program: ResolvedProgram) -> Dict[FnKey, str]:
        """FnKey -> witness for functions that may *return* with a
        thread they started still running."""
        seeded: Dict[FnKey, str] = {}
        for key, (summary, fact) in program.facts.items():
            for line in fact.thread_spawns:
                if not any(r > line for r in fact.release_lines):
                    seeded[key] = f"{summary.dotted}.{fact.qualname}" \
                                  f" (thread spawned at line {line})"
                    break

        def passes(caller: FnKey, line: int) -> bool:
            _, fact = program.facts[caller]
            return not any(r > line for r in fact.release_lines)

        return _reach(program, seeded, passes)

    def _check_fork_ordering(self, program: ResolvedProgram,
                             emitter: ProjectEmitter) -> None:
        forkers = self._fork_reachers(program)
        spawners = self._live_spawners(program)
        for key, (summary, fact) in program.facts.items():
            spawn_events: List[Tuple[int, str]] = [
                (line, f"thread spawned at line {line}")
                for line in fact.thread_spawns]
            fork_events: List[Tuple[int, str]] = [
                (line, "fork point") for line in fact.fork_points]
            for _ci, line, callee in program.edges(key):
                if callee in spawners and callee != key:
                    spawn_events.append(
                        (line, f"call into {spawners[callee]}"))
                if callee in forkers and callee != key:
                    fork_events.append(
                        (line, f"call into {forkers[callee]}"))
            if not spawn_events or not fork_events:
                continue
            for fork_line, fork_desc in sorted(fork_events):
                live = [
                    desc for line, desc in spawn_events
                    if line < fork_line and not any(
                        line < r <= fork_line
                        for r in fact.release_lines)]
                if live:
                    emitter.emit(
                        FORK001.rule_id, summary.dotted, fork_line, 1,
                        f"fork-ward call ({fork_desc}) with a live "
                        f"thread ({live[0]}) — a forked child inherits "
                        f"the thread's locks mid-state; join, stop or "
                        f"close the thread before forking",
                        symbol=fact.qualname)

    # -- ASYNC001 + ASYNC002 -----------------------------------------------

    def _check_async(self, program: ResolvedProgram,
                     emitter: ProjectEmitter) -> None:
        roots = [key for key, (_s, fact) in program.facts.items()
                 if fact.is_async]
        reported: Set[Tuple[str, int, str]] = set()
        for root in sorted(roots):
            root_summary, root_fact = program.facts[root]
            root_name = f"{root_summary.dotted}.{root_fact.qualname}"
            seen = {root}
            queue = deque([root])
            while queue:
                key = queue.popleft()
                summary, fact = program.facts[key]
                for line, callee_text in fact.blocking_calls:
                    mark = (summary.dotted, line, callee_text)
                    if mark in reported:
                        continue
                    reported.add(mark)
                    emitter.emit(
                        ASYNC001.rule_id, summary.dotted, line, 1,
                        f"blocking call '{callee_text}()' reachable "
                        f"from coroutine {root_name}() — it stalls "
                        f"every connection on the loop; hop through "
                        f"loop.run_in_executor / asyncio.to_thread",
                        symbol=fact.qualname)
                for ci, _line, callee in program.edges(key):
                    if callee in seen:
                        continue
                    if ci in fact.hop_arg_calls:
                        continue  # runs off the loop
                    if program.facts[callee][1].is_async:
                        continue  # its own root
                    seen.add(callee)
                    queue.append(callee)
        self._check_await_discipline(program, emitter)

    def _check_await_discipline(self, program: ResolvedProgram,
                                emitter: ProjectEmitter) -> None:
        affine = self._loop_affine_targets(program)
        for key, (summary, fact) in program.facts.items():
            consumed: Set[int] = set(fact.ret.calls)
            for bind in fact.binds.values():
                consumed.update(bind.calls)
            for call in fact.calls:
                for arg in call.args:
                    consumed.update(arg.calls)
                for _kw, arg in call.kwargs:
                    consumed.update(arg.calls)
            for ci, line, callee in program.edges(key):
                _, callee_fact = program.facts[callee]
                if callee_fact.is_async:
                    if ci in fact.awaited_calls or \
                            ci in fact.sched_arg_calls or \
                            ci in fact.hop_arg_calls or \
                            ci in consumed:
                        continue
                    emitter.emit(
                        ASYNC002.rule_id, summary.dotted, line, 1,
                        f"coroutine '{callee_fact.qualname}()' is "
                        f"called but never awaited or scheduled — the "
                        f"call only builds a coroutine object; await "
                        f"it or hand it to asyncio.create_task/run",
                        symbol=fact.qualname)
                    continue
                if callee in affine and not fact.is_async and \
                        ci not in fact.sched_arg_calls:
                    owner_cls = callee[1].split(".")[0]
                    if fact.qualname.split(".")[0] == owner_cls and \
                            summary.dotted == callee[0]:
                        continue  # the class manages its own affinity
                    emitter.emit(
                        ASYNC002.rule_id, summary.dotted, line, 1,
                        f"loop-affine call '{callee[1]}()' from sync "
                        f"code — the hot-swap flip must run on the "
                        f"event-loop thread (await path, or marshal "
                        f"via loop.call_soon_threadsafe)",
                        symbol=fact.qualname)

    @staticmethod
    def _loop_affine_targets(program: ResolvedProgram) -> Set[FnKey]:
        """Methods in LOOP_AFFINE_METHODS on classes owning coroutines."""
        async_classes: Set[Tuple[str, str]] = set()
        for (dotted, qualname), (_s, fact) in program.facts.items():
            if fact.is_async and "." in qualname:
                async_classes.add((dotted, qualname.split(".")[0]))
        out: Set[FnKey] = set()
        for key in program.facts:
            dotted, qualname = key
            if "." not in qualname:
                continue
            cls, method = qualname.split(".", 1)
            if method in LOOP_AFFINE_METHODS and \
                    (dotted, cls) in async_classes:
                out.add(key)
        return out

    # -- THR001 ------------------------------------------------------------

    def _check_shared_state(self, program: ResolvedProgram,
                            emitter: ProjectEmitter) -> None:
        thread_reachable = self._thread_reachable(program)
        if not thread_reachable:
            return
        for summary in program.index.summaries:
            for name, line in sorted(summary.module_mutables.items()):
                self._check_one_global(program, summary, name, line,
                                       thread_reachable, emitter)

    def _thread_reachable(self, program: ResolvedProgram
                          ) -> Dict[FnKey, str]:
        """Functions reachable from any thread target, with the
        spawning root as witness."""
        roots: Dict[FnKey, str] = {}
        for key, (summary, fact) in program.facts.items():
            for text, _line in fact.thread_targets:
                res = program.index._resolve_text(text, summary, fact)
                target = program.callee_key(res)
                if target is not None:
                    roots.setdefault(
                        target, f"{summary.dotted}.{fact.qualname}")
        reached: Dict[FnKey, str] = {}
        queue = deque(sorted(roots))
        for key in queue:
            reached[key] = roots[key]
        while queue:
            key = queue.popleft()
            for _ci, _line, callee in program.edges(key):
                if callee not in reached:
                    reached[callee] = reached[key]
                    queue.append(callee)
        return reached

    @staticmethod
    def _touches(fact, name: str) -> Tuple[bool, bool]:
        """(reads, mutates) for one module global in one function."""
        shadowed = name in fact.binds and name not in fact.global_names
        if shadowed:
            return (False, False)
        reads = name in fact.reads_all
        use = fact.name_uses.get(name)
        mutates = bool(
            (name in fact.binds and name in fact.global_names)
            or (use is not None
                and (use.key_writes or use.open_writes)))
        return (reads or mutates, mutates)

    @staticmethod
    def _lock_guarded(fact) -> bool:
        return any("lock" in w.split(".")[-1].lower()
                   or "mutex" in w.split(".")[-1].lower()
                   for w in fact.with_names)

    def _check_one_global(self, program: ResolvedProgram, summary,
                          name: str, line: int,
                          thread_reachable: Dict[FnKey, str],
                          emitter: ProjectEmitter) -> None:
        thread_touch: Optional[str] = None
        main_touch = False
        mutators = []
        for qualname in sorted(summary.functions):
            fact = summary.functions[qualname]
            touches, mutates = self._touches(fact, name)
            if not touches:
                continue
            key = (summary.dotted, qualname)
            if key in thread_reachable:
                if thread_touch is None:
                    thread_touch = thread_reachable[key]
            else:
                main_touch = True
            if mutates:
                mutators.append(fact)
        if thread_touch is None or not main_touch:
            return
        if not mutators:
            return  # read-only sharing on both sides
        if all(self._lock_guarded(f) for f in mutators):
            return
        emitter.emit(
            THR001.rule_id, summary.dotted, line, 1,
            f"module-level mutable '{name}' is shared between the "
            f"thread spawned by {thread_touch}() and the main path — "
            f"use a queue.Queue/Event, or guard every mutation with "
            f"a lock",
            symbol=name)
