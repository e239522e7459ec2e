"""Fixpoint kind & unit inference over the project call graph.

Runs the abstract domain of :mod:`repro.lint.units` — quantity units
(XMR / coin / USD / usd_per_coin / hs / hashes / shares / date) and
identifier kinds (sha256 / wallet / domain / campaign-id / pool-url /
email) — over the shared :class:`~repro.lint.interproc.
ResolvedProgram` substrate.  Per function the engine evaluates the
:class:`~repro.lint.facts.ValueFact` sketches (bind RHS, arithmetic
events, sink writes, key flows, returns) to a name -> state map, and
summarises the return value's unit/kind plus the parameter positions
that flow into it, iterating caller-ward to fixpoint over
:func:`~repro.lint.interproc.propagate` — so a coin amount laundered
through two helper calls still reaches a ``usd`` slot with its coin
unit intact.

Findings (reported by :class:`repro.lint.rules.units.UnitKindRule`):

* **UNIT001** — mixed-unit arithmetic/comparison (``XMR + USD``).
* **UNIT002** — a coin-denominated value written into a USD-labelled
  field or record slot (or vice versa) without a conversion witness —
  a value that went through ``rates.to_usd`` or a
  ``* AVERAGE_XMR_USD`` cast *is* USD, so a surviving coin unit means
  the conversion was skipped.
* **UNIT003** — rate-vs-cumulative confusion: an ``hs`` hashrate
  meeting ``hashes``/``shares``/``total_paid``-style cumulative
  quantities in additive arithmetic or a seeded sink.
* **KIND001** — equality/membership between different identifier
  kinds (a sha256 compared against a wallet can never match).
* **KIND002** — a wrong-kind key flowing into a kind-seeded mapping
  (the serve ``IntelIndex`` tables, the aggregation identifier maps).
"""

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.lint.facts import (
    CallFact,
    FunctionFact,
    ValueFact,
)
from repro.lint.interproc import FnKey, ResolvedProgram, propagate
from repro.lint.units import (
    ATTR_KINDS,
    ATTR_UNITS,
    KEY_KINDS,
    MONEY_UNITS,
    NAME_UNITS,
    PARAM_POSITIONS,
    PARAM_SEEDS,
    RETURN_SEEDS,
    SLOT_KINDS,
    SLOT_UNITS,
    WORK_UNITS,
    arith_result,
    join_units,
    kinds_compatible,
    mix_rule,
    units_compatible,
)

#: builtins that return (one of) their arguments unchanged, unit-wise.
_PASSTHROUGH_CALLS = frozenset({
    "sum", "min", "max", "abs", "round", "float", "int", "sorted",
})


@dataclass(frozen=True)
class ProjectFinding:
    """A project-level unit/kind violation, pre-Finding."""

    rule_id: str
    module: str          # ModuleSummary.dotted
    line: int
    col: int
    message: str
    symbol: str


@dataclass(frozen=True)
class UnitState:
    """One value's abstract state: unit + kind + provenance."""

    unit: Optional[str] = None
    kind: Optional[str] = None
    #: human description of where the unit/kind came from.
    witness: Optional[str] = None
    #: parameter positions whose state flows into this value.
    params: FrozenSet[int] = frozenset()

    def join(self, other: "UnitState") -> "UnitState":
        """Control-flow join: agreeing facts survive, conflicts drop."""
        if other == _BOTTOM:
            return self
        kind = self.kind if other.kind in (None, self.kind) \
            else (other.kind if self.kind is None else None)
        return UnitState(
            unit=join_units(self.unit, other.unit), kind=kind,
            witness=self.witness if self.witness is not None
            else other.witness,
            params=self.params | other.params)


_BOTTOM = UnitState()


@dataclass
class UnitSummary:
    """Fixpoint state for one function: its return value."""

    ret: UnitState = _BOTTOM

    def same(self, other: "UnitSummary") -> bool:
        """Fixpoint equality (witness text is display-only)."""
        return (self.ret.unit, self.ret.kind, self.ret.params) == \
            (other.ret.unit, other.ret.kind, other.ret.params)


def sink_rule(want: str, got: str) -> str:
    """Which rule a unit mismatch at a seeded sink violates."""
    if want in MONEY_UNITS and got in MONEY_UNITS:
        return "UNIT002"
    if want in WORK_UNITS and got in WORK_UNITS:
        return "UNIT003"
    return "UNIT001"


class UnitFlowEngine:
    """Whole-program unit/kind propagation and checking.

    Per-function :class:`UnitSummary` values are solved to fixpoint
    (:meth:`solve`), then one reporting pass (:meth:`report`)
    re-evaluates every function against the solved summaries.
    """

    def __init__(self, program: ResolvedProgram) -> None:
        self.program = program
        self.summaries = {key: UnitSummary() for key in program.facts}

    def solve(self) -> None:
        """Evaluate every function once, then re-evaluate callers of
        whatever changed until the summaries stabilise."""
        changed = [key for key in self.program.facts
                   if self._refresh(key)]
        propagate(self.program, changed,
                  lambda caller, _callee: self._refresh(caller))

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

    # -- per-function evaluation --------------------------------------------

    def _evaluate(self, key: FnKey,
                  report: Optional[List[ProjectFinding]]) -> UnitSummary:
        summary, fact = self.program.facts[key]
        names: Dict[str, UnitState] = {}
        qual_last = fact.qualname.split(".")[-1]
        seeds = PARAM_SEEDS.get(qual_last, {})
        for i, param in enumerate(fact.params):
            state = UnitState(params=frozenset({i}))
            if param in seeds:
                unit, kind = seeds[param]
                state = replace(
                    state, unit=unit, kind=kind,
                    witness=f"seeded parameter '{param}' of "
                            f"{qual_last}()")
            names[param] = state

        def emit(rule_id: str, line: int, col: int,
                 message: str) -> None:
            if report is not None:
                report.append(ProjectFinding(
                    rule_id=rule_id, module=summary.dotted,
                    line=line, col=max(1, col), message=message,
                    symbol=fact.qualname))

        def eval_value(vf: Optional[ValueFact],
                       checking: bool = False) -> UnitState:
            if vf is None:
                return _BOTTOM
            form = vf.form
            if form == "num":
                return UnitState(unit="num")
            if form == "name":
                state = names.get(vf.name, _BOTTOM)
                if state == _BOTTOM and vf.name in NAME_UNITS:
                    return UnitState(
                        unit=NAME_UNITS[vf.name],
                        witness=f"constant {vf.name}")
                return state
            if form == "attr":
                unit = ATTR_UNITS.get(vf.attr) or \
                    NAME_UNITS.get(vf.attr)
                kind = ATTR_KINDS.get(vf.attr)
                if unit is None and kind is None:
                    return _BOTTOM
                return UnitState(
                    unit=unit, kind=kind,
                    witness=f"'.{vf.attr}' read at line {vf.line}")
            if form == "key":
                unit = SLOT_UNITS.get(vf.attr)
                kind = SLOT_KINDS.get(vf.attr)
                if unit is None and kind is None:
                    return _BOTTOM
                return UnitState(
                    unit=unit, kind=kind,
                    witness=f"['{vf.attr}'] read at line {vf.line}")
            if form == "call":
                return eval_call(vf, checking)
            if form == "binop":
                left = eval_value(vf.left, checking)
                right = eval_value(vf.right, checking)
                if checking and vf.op in ("+", "-", "%"):
                    rule = mix_rule(left.unit, right.unit)
                    if rule is not None:
                        emit(rule, vf.line, 1, _mix_message(
                            rule, vf.op, left, right))
                unit = arith_result(vf.op, left.unit, right.unit)
                return UnitState(
                    unit=unit,
                    witness=(left.witness or right.witness
                             if unit is not None else None),
                    params=left.params | right.params)
            if form == "compare":
                left = eval_value(vf.left, checking)
                right = eval_value(vf.right, checking)
                if checking:
                    self._check_compare(vf, left, right, emit)
                return UnitState(unit="num")
            if form == "merge":
                return eval_value(vf.left, checking).join(
                    eval_value(vf.right, checking))
            if form == "elt":
                return eval_value(vf.left, checking)
            return _BOTTOM  # "const" / "opaque"

        def eval_call(vf: ValueFact, checking: bool) -> UnitState:
            last = (vf.name or "").split(".")[-1]
            call = (fact.calls[vf.call]
                    if vf.call is not None
                    and vf.call < len(fact.calls) else None)
            if last in _PASSTHROUGH_CALLS:
                state = _BOTTOM
                if call is not None:
                    for arg in call.args:
                        state = state.join(
                            eval_value(arg.value, checking))
                return state
            if last in RETURN_SEEDS:
                unit, kind = RETURN_SEEDS[last]
                return UnitState(
                    unit=unit, kind=kind,
                    witness=f"{last}() at line {vf.line}")
            if call is None:
                return _BOTTOM
            res = self.program.resolve(key, vf.call)
            if res is None or res.kind != "function":
                return _BOTTOM
            target_key = (res.module, res.qualname)
            target = self.summaries.get(target_key)
            if target is None or target_key not in self.program.facts:
                return _BOTTOM
            ret = target.ret
            state = UnitState(
                unit=ret.unit, kind=ret.kind,
                witness=(f"{res.origin}() returns "
                         f"{ret.unit or ret.kind} "
                         f"({ret.witness})"
                         if ret.unit or ret.kind else None))
            target_fact = self.program.facts[target_key][1]
            for j in sorted(ret.params):
                flowing = _arg_at(target_fact, j, call)
                if flowing is not None:
                    state = state.join(
                        eval_value(flowing, checking))
            return replace(state, params=frozenset())

        def _arg_at(target_fact: FunctionFact, j: int,
                    call: CallFact) -> Optional[ValueFact]:
            if j < len(call.args):
                return call.args[j].value
            if j < len(target_fact.params):
                wanted = target_fact.params[j]
                for kw, arg in call.kwargs:
                    if kw == wanted:
                        return arg.value
            return None

        # local binds to a small fixpoint (loops can cycle units).
        for _ in range(max(2, len(fact.unit_binds))):
            changed = False
            for name, sketch in fact.unit_binds:
                state = names.get(name, _BOTTOM).join(
                    eval_value(sketch))
                if state != names.get(name):
                    names[name] = state
                    changed = True
            if not changed:
                break

        if report is not None:
            for event in fact.arith_events:
                eval_value(event, checking=True)
            self._check_sinks(fact, eval_value, emit)
            self._check_key_flows(fact, eval_value, emit)
            self._check_calls(key, fact, eval_value, emit)

        ret = _BOTTOM
        for sketch in fact.ret_values:
            ret = ret.join(eval_value(sketch))
        return UnitSummary(ret=ret)

    # -- the checks ---------------------------------------------------------

    def _check_compare(self, vf, left: UnitState, right: UnitState,
                       emit) -> None:
        if vf.op == "in":
            base = _mapping_name(vf.right)
            if base is not None:
                expected = KEY_KINDS[base]
                if left.kind is not None and \
                        not kinds_compatible(left.kind, expected):
                    emit("KIND002", vf.line, 1,
                         f"{left.kind}-kind key tested against "
                         f"'{base}' (keys are {expected}-kind) — "
                         f"the membership can never hit "
                         f"({left.witness})")
                return
        if vf.op in ("==", "!=", "in"):
            if not kinds_compatible(left.kind, right.kind):
                emit("KIND001", vf.line, 1,
                     f"cross-kind {vf.op}: {left.kind} vs "
                     f"{right.kind} identifiers never match "
                     f"({left.witness}; {right.witness})")
        rule = mix_rule(left.unit, right.unit)
        if rule is not None and vf.op != "in":
            emit(rule, vf.line, 1,
                 _mix_message(rule, vf.op, left, right))

    def _check_sinks(self, fact: FunctionFact, eval_value,
                     emit) -> None:
        for sink in fact.sink_writes:
            want_unit = SLOT_UNITS.get(sink.field)
            want_kind = SLOT_KINDS.get(sink.field)
            got = eval_value(sink.value)
            if want_unit is not None and got.unit is not None and \
                    not units_compatible(want_unit, got.unit):
                rule = sink_rule(want_unit, got.unit)
                hint = (" — convert with rates.to_usd / "
                        "AVERAGE_XMR_USD first"
                        if rule == "UNIT002" else
                        " — multiply the rate by a time span first"
                        if rule == "UNIT003" else "")
                emit(rule, sink.line, sink.col,
                     f"{got.unit}-denominated value written to the "
                     f"{want_unit}-labelled '{sink.field}' "
                     f"{'slot' if sink.target != 'attr' else 'field'}"
                     f" without a conversion witness{hint} "
                     f"({got.witness})")
            if want_kind is not None and got.kind is not None and \
                    not kinds_compatible(want_kind, got.kind):
                emit("KIND001", sink.line, sink.col,
                     f"{got.kind}-kind identifier written to the "
                     f"{want_kind}-kind '{sink.field}' field "
                     f"({got.witness})")

    def _check_key_flows(self, fact: FunctionFact, eval_value,
                         emit) -> None:
        for flow in fact.key_flows:
            expected = KEY_KINDS.get(flow.base)
            if expected is None:
                continue
            got = eval_value(flow.key)
            if got.kind is not None and \
                    not kinds_compatible(got.kind, expected):
                emit("KIND002", flow.line, flow.col,
                     f"{got.kind}-kind key into '{flow.base}' "
                     f"(keys are {expected}-kind) — the lookup can "
                     f"never hit ({got.witness})")

    def _check_calls(self, key: FnKey, fact: FunctionFact,
                     eval_value, emit) -> None:
        """Seeded-parameter and constructor-field checks."""
        from repro.lint.contracts import RECORD_FIELD_CONTRACTS
        for ci, call in enumerate(fact.calls):
            last = (call.callee or "").split(".")[-1]
            res = self.program.resolve(key, ci)
            # seeded function parameters (to_usd's amount is coin).
            seeds = PARAM_SEEDS.get(last)
            if seeds is not None:
                self._check_param_seeds(last, call, seeds,
                                        eval_value, emit)
            # constructor keywords against the field contracts.
            cls_name = None
            if res is not None and res.kind == "class":
                cls_name = res.qualname.split(".")[-1]
            elif last in RECORD_FIELD_CONTRACTS:
                cls_name = last
            contract = RECORD_FIELD_CONTRACTS.get(cls_name or "")
            if not contract:
                continue
            for kw, arg in call.kwargs:
                declared = contract.get(kw or "")
                if declared is None:
                    continue
                want_unit, want_kind = declared
                got = eval_value(arg.value)
                if want_unit is not None and got.unit is not None \
                        and not units_compatible(want_unit,
                                                 got.unit):
                    rule = sink_rule(want_unit, got.unit)
                    emit(rule, call.line, call.col,
                         f"{got.unit}-denominated value passed as "
                         f"{cls_name}({kw}=...) which is "
                         f"{want_unit}-labelled ({got.witness})")
                if want_kind is not None and \
                        got.kind is not None and \
                        not kinds_compatible(want_kind, got.kind):
                    emit("KIND001", call.line, call.col,
                         f"{got.kind}-kind identifier passed as "
                         f"{cls_name}({kw}=...) which is "
                         f"{want_kind}-kind ({got.witness})")

    @staticmethod
    def _check_param_seeds(fn_name: str, call: CallFact, seeds,
                           eval_value, emit) -> None:
        for param, (want_unit, want_kind) in seeds.items():
            arg = None
            index = PARAM_POSITIONS.get((fn_name, param))
            if index is not None and index < len(call.args):
                arg = call.args[index].value
            else:
                for kw, kw_arg in call.kwargs:
                    if kw == param:
                        arg = kw_arg.value
                        break
            if arg is None:
                continue
            got = eval_value(arg)
            if want_unit is not None and got.unit is not None and \
                    not units_compatible(want_unit, got.unit):
                rule = sink_rule(want_unit, got.unit)
                emit(rule, call.line, call.col,
                     f"{got.unit}-denominated argument for "
                     f"'{param}' of {fn_name}() which is "
                     f"{want_unit}-seeded ({got.witness})")
            if want_kind is not None and got.kind is not None and \
                    not kinds_compatible(got.kind, want_kind):
                emit("KIND002", call.line, call.col,
                     f"{got.kind}-kind argument for '{param}' of "
                     f"{fn_name}() which is {want_kind}-kind "
                     f"({got.witness})")


def _mapping_name(vf: Optional[ValueFact]) -> Optional[str]:
    """KEY_KINDS name of a membership RHS sketch, or None."""
    if vf is None:
        return None
    if vf.form == "name" and vf.name in KEY_KINDS:
        return vf.name
    if vf.form == "attr" and vf.attr in KEY_KINDS:
        return vf.attr
    return None


def _mix_message(rule: str, op: str, left: "UnitState",
                 right: "UnitState") -> str:
    if rule == "UNIT003":
        return (f"rate-vs-cumulative mix: {left.unit} {op} "
                f"{right.unit} — multiply the rate by a time span "
                f"first ({left.witness}; {right.witness})")
    return (f"mixed-unit arithmetic: {left.unit} {op} {right.unit} "
            f"— convert before combining "
            f"({left.witness}; {right.witness})")


def run_unit_analysis(program: ResolvedProgram
                      ) -> List[ProjectFinding]:
    """Solve the fixpoint and return every unit/kind violation."""
    engine = UnitFlowEngine(program)
    engine.solve()
    return engine.report()
