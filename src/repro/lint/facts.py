"""Per-function facts: the whole-program analysis substrate.

The lint engine parses each module exactly once; this module distils
the parsed AST into compact, *picklable* facts — name dataflow, call
sites, dict-key read/write sets, dataclass shapes, references — so the
whole-program passes (call graph, schema contracts, dead-symbol
analysis, concurrency, unit/kind flow) can run over the entire tree
without holding a single AST, and so the ``--changed`` fact cache
(:mod:`repro.lint.cache`) can keep them on disk between runs.

Everything here is derived; nothing emits findings.  The project
passes in :mod:`repro.lint.callgraph`, :mod:`repro.lint.interproc` and
the rules under :mod:`repro.lint.rules` consume these summaries.
"""

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lint.contracts import (
    BLOCKING_CALL_PREFIXES,
    BLOCKING_CALL_TEXTS,
    BLOCKING_METHODS,
    COROUTINE_SCHEDULE_CALLS,
    ENTRYPOINT_STEMS,
    EXECUTOR_HOP_CALLS,
    FORK_POINT_CALLS,
    FORK_POINT_TEXTS,
    LOOP_MARSHAL_CALLS,
    THREAD_RELEASE_CALLS,
    THREAD_SAFE_TYPES,
    THREAD_SPAWN_CALLS,
)
from repro.lint.pragmas import PragmaIndex
from repro.lint.units import KEY_KINDS, SLOT_KINDS, SLOT_UNITS
from repro.lint.symbols import (
    FUNCTION_NODES,
    ModuleInfo,
    dotted_name,
    walk_scope,
)

#: dict methods whose constant first argument is a key *read*.
_KEY_READ_METHODS = frozenset({"get", "pop"})

#: operator spellings for the UNIT/KIND value sketches.
_BINOP_TEXT = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*",
               ast.Div: "/", ast.FloorDiv: "//", ast.Mod: "%"}
_CMP_TEXT = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<",
             ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
             ast.In: "in", ast.NotIn: "in"}

#: mapping methods whose first argument is a key (KIND002 flow).
_KEYED_METHODS = frozenset({"get", "pop", "setdefault",
                            "__contains__"})

#: value-sketch recursion cap — deep expressions go opaque.
_VALUE_DEPTH = 6

#: dict methods that erase key precision (full-shape reads).
_SHAPE_READ_METHODS = frozenset({"keys", "values", "items", "copy"})


@dataclass(frozen=True)
class ValueFact:
    """Structural sketch of one expression for the UNIT/KIND pass.

    A small recursive tree over the forms the unit algebra can
    evaluate — names, ``base.attr`` loads, constant-key subscripts,
    calls (by index into the function's call list), numeric literals,
    binary arithmetic and single comparisons.  ``merge`` covers
    conditional expressions (both branches), ``elt`` a comprehension's
    element (what ``sum(...)`` aggregates); anything else is
    ``opaque``.  Depth-capped at extraction so pickled summaries stay
    compact.
    """

    line: int
    form: str                     # "name"|"attr"|"key"|"call"|"num"|
    #                               "const"|"binop"|"compare"|"merge"|
    #                               "elt"|"opaque"
    name: Optional[str] = None    # the name, or the base's dotted text
    attr: Optional[str] = None    # attribute / constant key text
    call: Optional[int] = None    # index into FunctionFact.calls
    op: Optional[str] = None      # "+", "-", "*", "/", "==", "in" ...
    left: Optional["ValueFact"] = None
    right: Optional["ValueFact"] = None


#: interned leaf sketches — the unit algebra never reads ``line`` off
#: these forms (leaves carry no emit site; witnesses come from attr /
#: key / call facts), so every occurrence shares one instance and the
#: pickled summary cache stays close to its pre-units size.
_OPAQUE_FACT = ValueFact(line=0, form="opaque")
_CONST_FACT = ValueFact(line=0, form="const")
_NUM_FACT = ValueFact(line=0, form="num")
_NAME_FACTS: Dict[str, ValueFact] = {}


def _name_fact(name: str) -> ValueFact:
    fact = _NAME_FACTS.get(name)
    if fact is None:
        fact = _NAME_FACTS.setdefault(
            name, ValueFact(line=0, form="name", name=name))
    return fact


@dataclass(frozen=True)
class SinkWriteFact:
    """One store into a unit/kind-seeded field or record slot."""

    line: int
    col: int
    field: str                    # the seeded attr / key / slot name
    value: ValueFact
    aug: bool = False             # ``+=`` family
    target: str = "attr"          # "attr" | "key" | "slot" (dict display)


@dataclass(frozen=True)
class KeyFlowFact:
    """One non-constant key flowing into a kind-seeded mapping."""

    line: int
    col: int
    base: str                     # the mapping's seeded name
    key: ValueFact


@dataclass(frozen=True)
class ArgFact:
    """One positional (or keyword) argument at a call site."""

    #: indices (into the function's call list) nested in this arg.
    calls: Tuple[int, ...] = ()
    #: the argument is exactly a bare name (dict-flow tracking).
    is_name: Optional[str] = None
    #: the argument is exactly one call (index into the call list).
    is_call: Optional[int] = None
    #: structural sketch for the UNIT/KIND pass.
    value: Optional[ValueFact] = None


@dataclass(frozen=True)
class CallFact:
    """One call site, pre-digested for the project passes."""

    line: int
    col: int
    #: dotted source text of the callee ("helpers.classify",
    #: "self._snapshot_state"), or None for unresolvable expressions.
    callee: Optional[str]
    args: Tuple[ArgFact, ...] = ()
    kwargs: Tuple[Tuple[Optional[str], ArgFact], ...] = ()


@dataclass(frozen=True)
class BindFact:
    """Merged dataflow for one local name (or the return value)."""

    #: indices of the calls whose values flow into the name.
    calls: Tuple[int, ...] = ()
    #: the name's one assignment is exactly one call (its index); the
    #: schema pass may then treat the name as that call's result.
    is_call: Optional[int] = None


@dataclass
class NameUse:
    """How one function uses one name as a keyed record/dict."""

    #: hard requirements: ``d["k"]`` loads, ``d.pop("k")`` — a missing
    #: key raises, so the producer *must* write it.
    key_reads: Dict[str, int] = field(default_factory=dict)
    #: soft probes: ``"k" in d``, ``d.get("k")`` — tolerant of absence,
    #: so they count as uses (SCHEMA001) but not requirements
    #: (SCHEMA002).
    key_tests: Dict[str, int] = field(default_factory=dict)
    key_writes: Dict[str, int] = field(default_factory=dict)
    #: (call index, positional arg index) the name is passed whole to.
    forwards: List[Tuple[int, int]] = field(default_factory=list)
    #: unknown writes may exist (update(expr), non-constant key ...).
    open_writes: bool = False
    #: unknown reads may exist (iteration, aliasing, ** expansion ...).
    open_reads: bool = False
    returned: bool = False
    #: the name was initialised from dict displays only.
    dict_inits: int = 0
    other_inits: int = 0


@dataclass
class FunctionFact:
    """Everything the project passes know about one function."""

    qualname: str                     # "func" or "Class.meth"
    line: int
    params: Tuple[str, ...] = ()      # excludes self/cls
    param_annotations: Tuple[Optional[str], ...] = ()
    binds: Dict[str, BindFact] = field(default_factory=dict)
    calls: List[CallFact] = field(default_factory=list)
    ret: BindFact = field(default_factory=BindFact)
    returned_names: FrozenSet[str] = frozenset()
    #: constant keys of every returned dict display, line-stamped;
    #: None when some return value is not a closed dict shape.
    returns_dict_keys: Optional[Dict[str, int]] = None
    has_return_value: bool = False
    name_uses: Dict[str, NameUse] = field(default_factory=dict)
    #: local name -> dotted constructor text ("CheckpointStore").
    local_types: Dict[str, str] = field(default_factory=dict)
    #: ``Cls(**data)`` sites: (callee text, data name, line).
    starstar_calls: Tuple[Tuple[str, str, int], ...] = ()
    #: ``param.attr`` loads, per param index: (attr, line).
    param_attr_reads: Dict[int, List[Tuple[str, int]]] = \
        field(default_factory=dict)
    #: every Name load + dotted chain read in scope (reachability).
    reads_all: FrozenSet[str] = frozenset()
    #: resolved text of the return annotation, for instance typing of
    #: locals bound from factory calls ("ParallelExtractionEngine").
    ret_annotation: Optional[str] = None
    # -- concurrency facts (FORK/ASYNC/THR rule families) ------------------
    is_async: bool = False
    #: names declared ``global`` inside the body.
    global_names: FrozenSet[str] = frozenset()
    #: call indices appearing directly under an ``await``.
    awaited_calls: FrozenSet[int] = frozenset()
    #: call indices nested in arguments of a scheduling/marshalling
    #: call (``asyncio.run(main())``, ``call_soon(lambda: f())``).
    sched_arg_calls: FrozenSet[int] = frozenset()
    #: call indices nested in arguments of an executor hop
    #: (``run_in_executor``/``to_thread``) — they run *off* the loop,
    #: so ASYNC001 must not follow them.
    hop_arg_calls: FrozenSet[int] = frozenset()
    #: lines of direct thread constructions (``threading.Thread``).
    thread_spawns: Tuple[int, ...] = ()
    #: (target callee text, line) per thread construction with a
    #: ``target=`` keyword.
    thread_targets: Tuple[Tuple[str, int], ...] = ()
    #: lines of direct fork points (``ProcessPoolExecutor``/``os.fork``).
    fork_points: Tuple[int, ...] = ()
    #: lines of thread-release calls (``.close``/``.join``/``.stop``).
    release_lines: Tuple[int, ...] = ()
    #: (line, description) of syntactically blocking, non-awaited calls.
    blocking_calls: Tuple[Tuple[int, str], ...] = ()
    #: names and attribute chains used as ``with`` context expressions
    #: (``with self._lock:`` guards, for THR001).
    with_names: FrozenSet[str] = frozenset()
    # -- kind/unit facts (UNIT/KIND rule families) -------------------------
    #: outermost arithmetic / comparison expressions in the body.
    arith_events: Tuple[ValueFact, ...] = ()
    #: (name, RHS sketch) per simple single-name assignment;
    #: ``x += v`` is recorded as ``x = x <op> v``.
    unit_binds: Tuple[Tuple[str, ValueFact], ...] = ()
    #: stores into seeded fields / record slots (UNIT002/003 sinks).
    sink_writes: Tuple[SinkWriteFact, ...] = ()
    #: non-constant keys into kind-seeded mappings (KIND002).
    key_flows: Tuple[KeyFlowFact, ...] = ()
    #: sketch of every ``return`` expression (interprocedural units).
    ret_values: Tuple[ValueFact, ...] = ()

    def param_index(self, name: str) -> Optional[int]:
        """Positional index of parameter ``name``, or None."""
        try:
            return self.params.index(name)
        except ValueError:
            return None


@dataclass
class ClassFact:
    """Shape of one class: fields, attributes, bases."""

    name: str
    line: int
    is_dataclass: bool = False
    fields: Tuple[str, ...] = ()
    #: fields + methods + properties + class/self-assigned attributes.
    attrs: FrozenSet[str] = frozenset()
    bases: Tuple[str, ...] = ()


@dataclass
class ModuleSummary:
    """The picklable whole-program view of one parsed module."""

    relpath: str
    parts: Tuple[str, ...]
    dotted: str
    pragmas: PragmaIndex
    import_aliases: Dict[str, str] = field(default_factory=dict)
    imported_modules: FrozenSet[str] = frozenset()
    module_functions: Dict[str, int] = field(default_factory=dict)
    classes: Dict[str, ClassFact] = field(default_factory=dict)
    functions: Dict[str, FunctionFact] = field(default_factory=dict)
    #: names read at module/class level, outside any function body.
    module_reads: FrozenSet[str] = frozenset()
    #: strings listed in ``__all__`` (declared public API).
    exported: FrozenSet[str] = frozenset()
    is_entrypoint: bool = False
    #: module-level names initialised to a *mutable* value (dict/list/
    #: set displays or constructors) that is not a sanctioned
    #: cross-thread type — the THR001 candidate set.
    module_mutables: Dict[str, int] = field(default_factory=dict)


# --------------------------------------------------------------------------
# Expression helpers
# --------------------------------------------------------------------------


def _expr_reads(expr: ast.AST) -> FrozenSet[str]:
    """Every Name read (Load context) anywhere under ``expr``."""
    return frozenset(
        n.id for n in ast.walk(expr)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))


def _const_str(expr: ast.AST) -> Optional[str]:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    return None


def _dict_display_keys(expr: ast.AST) -> Optional[Dict[str, int]]:
    """``{key: line}`` for an all-constant-key dict display, else None."""
    if not isinstance(expr, ast.Dict):
        return None
    out: Dict[str, int] = {}
    for key in expr.keys:
        text = _const_str(key) if key is not None else None
        if text is None:
            return None  # ** expansion or computed key
        out[text] = key.lineno
    return out


def _annotation_text(expr: Optional[ast.AST]) -> Optional[str]:
    if expr is None:
        return None
    text = _const_str(expr)
    if text is not None:
        return text.strip("'\"")
    if isinstance(expr, (ast.Name, ast.Attribute)):
        return dotted_name(expr)
    return None


# --------------------------------------------------------------------------
# Per-function extraction
# --------------------------------------------------------------------------


def _assignment_pairs(nodes) -> List[Tuple[List[str], ast.expr]]:
    """(target names, value expr) pairs from one scope's nodes."""
    pairs: List[Tuple[List[str], ast.expr]] = []

    def names_of(target: ast.expr) -> List[str]:
        if isinstance(target, ast.Name):
            return [target.id]
        if isinstance(target, (ast.Tuple, ast.List)):
            out: List[str] = []
            for element in target.elts:
                out.extend(names_of(element))
            return out
        return []

    for node in nodes:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs.append((names_of(target), node.value))
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            pairs.append((names_of(node.target), node.value))
        elif isinstance(node, ast.AugAssign):
            pairs.append((names_of(node.target), node.value))
        elif isinstance(node, ast.NamedExpr):
            pairs.append((names_of(node.target), node.value))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            pairs.append((names_of(node.target), node.iter))
        elif isinstance(node, ast.withitem) and \
                node.optional_vars is not None:
            pairs.append((names_of(node.optional_vars),
                          node.context_expr))
    return pairs


class _FunctionSummarizer:
    """Builds one :class:`FunctionFact` from one function node."""

    def __init__(self, func, qualname: str) -> None:
        self.func = func
        self.qualname = qualname
        #: one cached traversal of the function's own scope —
        #: every sub-extractor iterates this list instead of
        #: re-walking the AST (the summarizer's hot path).
        self.scope_nodes = list(walk_scope(func))
        self.call_nodes = [n for n in self.scope_nodes
                           if isinstance(n, ast.Call)]
        self.call_index = {id(n): i
                           for i, n in enumerate(self.call_nodes)}
        self.assign_pairs = _assignment_pairs(self.scope_nodes)
        args = func.args
        ordered = [a for a in (args.posonlyargs + args.args
                               + args.kwonlyargs)]
        if ordered and ordered[0].arg in ("self", "cls"):
            ordered = ordered[1:]
        self.params = tuple(a.arg for a in ordered)
        self.annotations = tuple(_annotation_text(a.annotation)
                                 for a in ordered)
        #: Name nodes consumed by a recognised structured use; any
        #: *other* Load of a tracked name makes its shape open.
        self.recognized: Set[int] = set()

    # -- shared sub-extractors --------------------------------------------

    def _expr_calls(self, expr: ast.AST) -> Tuple[int, ...]:
        """Indices of the calls nested anywhere in ``expr``."""
        calls: List[int] = []
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                ci = self.call_index.get(id(node))
                if ci is not None:
                    calls.append(ci)
        return tuple(calls)

    def _arg_fact(self, expr: ast.expr) -> ArgFact:
        is_name = expr.id if isinstance(expr, ast.Name) else None
        is_call = (self.call_index.get(id(expr))
                   if isinstance(expr, ast.Call) else None)
        if is_name is not None:
            self.recognized.add(id(expr))
        return ArgFact(
            calls=self._expr_calls(expr), is_name=is_name,
            is_call=is_call, value=self._value_fact(expr))

    def _value_fact(self, expr: ast.AST,
                    depth: int = 0) -> ValueFact:
        """Structural sketch of ``expr`` for the unit algebra."""
        line = getattr(expr, "lineno", 0)
        if depth > _VALUE_DEPTH:
            return _OPAQUE_FACT
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, (int, float)) and \
                    not isinstance(expr.value, bool):
                return _NUM_FACT
            return _CONST_FACT
        if isinstance(expr, ast.Name):
            return _name_fact(expr.id)
        if isinstance(expr, ast.Attribute):
            return ValueFact(line=line, form="attr",
                             name=dotted_name(expr.value),
                             attr=expr.attr)
        if isinstance(expr, ast.Subscript):
            key = _const_str(expr.slice)
            if key is not None:
                return ValueFact(line=line, form="key",
                                 name=dotted_name(expr.value),
                                 attr=key)
            return _OPAQUE_FACT
        if isinstance(expr, ast.Call):
            return ValueFact(line=line, form="call",
                             call=self.call_index.get(id(expr)),
                             name=dotted_name(expr.func))
        if isinstance(expr, ast.BinOp):
            op = _BINOP_TEXT.get(type(expr.op))
            if op is None:
                return _OPAQUE_FACT
            return ValueFact(
                line=line, form="binop", op=op,
                left=self._value_fact(expr.left, depth + 1),
                right=self._value_fact(expr.right, depth + 1))
        if isinstance(expr, ast.Compare) and len(expr.ops) == 1:
            op = _CMP_TEXT.get(type(expr.ops[0]))
            if op is None:
                return _OPAQUE_FACT
            return ValueFact(
                line=line, form="compare", op=op,
                left=self._value_fact(expr.left, depth + 1),
                right=self._value_fact(expr.comparators[0],
                                       depth + 1))
        if isinstance(expr, ast.UnaryOp):
            return self._value_fact(expr.operand, depth + 1)
        if isinstance(expr, ast.IfExp):
            return ValueFact(
                line=line, form="merge",
                left=self._value_fact(expr.body, depth + 1),
                right=self._value_fact(expr.orelse, depth + 1))
        if isinstance(expr, (ast.GeneratorExp, ast.ListComp,
                             ast.SetComp)):
            return ValueFact(
                line=line, form="elt",
                left=self._value_fact(expr.elt, depth + 1))
        if isinstance(expr, ast.Starred):
            return self._value_fact(expr.value, depth + 1)
        return _OPAQUE_FACT

    # -- the pass ----------------------------------------------------------

    def summarize(self) -> FunctionFact:
        fact = FunctionFact(
            qualname=self.qualname, line=self.func.lineno,
            params=self.params, param_annotations=self.annotations)
        self._collect_calls(fact)
        self._collect_binds(fact)
        self._collect_returns(fact)
        self._collect_name_uses(fact)
        self._collect_attr_reads(fact)
        self._collect_concurrency(fact)
        self._collect_units(fact)
        # liveness references made inside nested defs and lambdas
        # count for the enclosing function, so after the (cached)
        # own-scope nodes we descend into each nested scope too.
        reads: Set[str] = set()

        def note(node: ast.AST) -> None:
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                chain = dotted_name(node)
                if chain is not None:
                    reads.add(chain)

        for node in self.scope_nodes:
            note(node)
            if isinstance(node, FUNCTION_NODES + (ast.Lambda,)):
                for sub in ast.walk(node):
                    note(sub)
        fact.reads_all = frozenset(reads)
        return fact

    def _collect_calls(self, fact: FunctionFact) -> None:
        starstar: List[Tuple[str, str, int]] = []
        for node in self.call_nodes:
            callee = dotted_name(node.func)
            for kw in node.keywords:
                if kw.arg is None and isinstance(kw.value, ast.Name) \
                        and callee is not None:
                    starstar.append((callee, kw.value.id, node.lineno))
            fact.calls.append(CallFact(
                line=node.lineno, col=node.col_offset + 1,
                callee=callee,
                args=tuple(self._arg_fact(a) for a in node.args),
                kwargs=tuple((kw.arg, self._arg_fact(kw.value))
                             for kw in node.keywords)))
        fact.starstar_calls = tuple(starstar)

    def _collect_binds(self, fact: FunctionFact) -> None:
        merged: Dict[str, Dict] = {}
        for names, value in self.assign_pairs:
            calls = self._expr_calls(value)
            exact_call = (self.call_index.get(id(value))
                          if isinstance(value, ast.Call) else None)
            ctor = (dotted_name(value.func)
                    if isinstance(value, ast.Call) else None)
            for name in names:
                slot = merged.setdefault(
                    name, {"calls": set(), "exact": [], "assigns": 0})
                slot["calls"] |= set(calls)
                slot["assigns"] += 1
                if exact_call is not None and len(names) == 1:
                    slot["exact"].append(exact_call)
                if ctor is not None and len(names) == 1:
                    fact.local_types[name] = ctor
        fact.binds = {
            name: BindFact(
                calls=tuple(sorted(slot["calls"])),
                is_call=(slot["exact"][0]
                         if slot["assigns"] == 1
                         and len(slot["exact"]) == 1 else None))
            for name, slot in merged.items()}

    def _collect_returns(self, fact: FunctionFact) -> None:
        calls: Set[int] = set()
        returned_names: Set[str] = set()
        dict_keys: Dict[str, int] = {}
        closed = True
        saw_value = False
        for node in self.scope_nodes:
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            saw_value = True
            value = node.value
            calls.update(self._expr_calls(value))
            if isinstance(value, ast.Name):
                returned_names.add(value.id)
                closed = False  # resolved later from the name's use
            else:
                keys = _dict_display_keys(value)
                if keys is None:
                    closed = False
                else:
                    dict_keys.update(keys)
        fact.ret = BindFact(calls=tuple(sorted(calls)))
        fact.returned_names = frozenset(returned_names)
        fact.has_return_value = saw_value
        fact.returns_dict_keys = (dict_keys
                                  if saw_value and closed else None)

    # -- dict-shape uses ---------------------------------------------------

    def _use(self, fact: FunctionFact, name: str) -> NameUse:
        return fact.name_uses.setdefault(name, NameUse())

    def _collect_name_uses(self, fact: FunctionFact) -> None:
        for name in self.params:
            self._use(fact, name)
        self._scan_inits(fact)
        self._scan_subscripts(fact)
        self._scan_methods(fact)
        self._scan_flows(fact)
        self._scan_loose_reads(fact)

    def _scan_inits(self, fact: FunctionFact) -> None:
        for names, value in self.assign_pairs:
            keys = _dict_display_keys(value)
            for name in names:
                use = self._use(fact, name)
                if keys is not None and len(names) == 1:
                    use.dict_inits += 1
                    for key, line in keys.items():
                        use.key_writes.setdefault(key, line)
                else:
                    use.other_inits += 1

    def _scan_subscripts(self, fact: FunctionFact) -> None:
        for node in self.scope_nodes:
            if not isinstance(node, ast.Subscript) or \
                    not isinstance(node.value, ast.Name):
                continue
            name = node.value.id
            self.recognized.add(id(node.value))
            use = self._use(fact, name)
            key = _const_str(node.slice)
            if key is None:
                if isinstance(node.ctx, ast.Store):
                    use.open_writes = True
                else:
                    use.open_reads = True
                continue
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                use.key_writes.setdefault(key, node.lineno)
            else:
                use.key_reads.setdefault(key, node.lineno)

    def _scan_methods(self, fact: FunctionFact) -> None:
        for node in self.call_nodes:
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)):
                continue
            name, method = func.value.id, func.attr
            use = self._use(fact, name)
            self.recognized.add(id(func.value))
            if method in _KEY_READ_METHODS and node.args:
                key = _const_str(node.args[0])
                if key is None:
                    use.open_reads = True
                elif method == "pop" and len(node.args) == 1:
                    use.key_reads.setdefault(key, node.lineno)
                else:  # get / pop-with-default tolerate absence
                    use.key_tests.setdefault(key, node.lineno)
            elif method == "setdefault" and node.args:
                key = _const_str(node.args[0])
                if key is None:
                    use.open_writes = True
                else:
                    use.key_writes.setdefault(key, node.lineno)
                    use.key_tests.setdefault(key, node.lineno)
            elif method == "update":
                keys = (_dict_display_keys(node.args[0])
                        if len(node.args) == 1 else None)
                if keys is None:
                    use.open_writes = True
                else:
                    for key, line in keys.items():
                        use.key_writes.setdefault(key, line)
            elif method in _SHAPE_READ_METHODS:
                use.open_reads = True
            else:
                # unknown method: assume it can read and write anything
                use.open_reads = True
                use.open_writes = True

    def _scan_flows(self, fact: FunctionFact) -> None:
        # whole-name forwarding into calls, `in` tests, returns,
        # iteration, ** expansion.
        for index, call in enumerate(fact.calls):
            for pos, arg in enumerate(call.args):
                if arg.is_name is not None:
                    self._use(fact, arg.is_name).forwards.append(
                        (index, pos))
            for kw_name, arg in call.kwargs:
                if arg.is_name is not None:
                    use = self._use(fact, arg.is_name)
                    if kw_name is None:       # **name expansion
                        use.open_reads = True
                    else:                     # kw forwarding: opaque
                        use.open_reads = True
        for node in self.scope_nodes:
            if isinstance(node, ast.Compare):
                for op, comp in zip(node.ops, node.comparators):
                    if isinstance(op, (ast.In, ast.NotIn)) and \
                            isinstance(comp, ast.Name):
                        self.recognized.add(id(comp))
                        key = _const_str(node.left)
                        use = self._use(fact, comp.id)
                        if key is None:
                            use.open_reads = True
                        else:
                            use.key_tests.setdefault(key, node.lineno)
            elif isinstance(node, (ast.For, ast.AsyncFor)) and \
                    isinstance(node.iter, ast.Name):
                self.recognized.add(id(node.iter))
                self._use(fact, node.iter.id).open_reads = True
            elif isinstance(node, ast.Return) and \
                    isinstance(node.value, ast.Name):
                self.recognized.add(id(node.value))
                self._use(fact, node.value.id).returned = True
            elif isinstance(node, ast.comprehension) and \
                    isinstance(node.iter, ast.Name):
                self.recognized.add(id(node.iter))
                self._use(fact, node.iter.id).open_reads = True

    def _scan_loose_reads(self, fact: FunctionFact) -> None:
        """Any unrecognised Load of a tracked name opens its shape."""
        for node in self.scope_nodes:
            if isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Load) and \
                    node.id in fact.name_uses and \
                    id(node) not in self.recognized:
                use = fact.name_uses[node.id]
                use.open_reads = True
                use.open_writes = True

    def _collect_attr_reads(self, fact: FunctionFact) -> None:
        for node in self.scope_nodes:
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load) and \
                    isinstance(node.value, ast.Name):
                index = fact.param_index(node.value.id)
                if index is not None:
                    fact.param_attr_reads.setdefault(index, []).append(
                        (node.attr, node.lineno))

    # -- kind/unit facts ---------------------------------------------------

    @staticmethod
    def _seeded_slot(name: Optional[str]) -> bool:
        return name is not None and (name in SLOT_UNITS
                                     or name in SLOT_KINDS)

    @staticmethod
    def _mapping_base(expr: ast.AST) -> Optional[str]:
        """Seeded-mapping name of a subscript/method base, or None."""
        if isinstance(expr, ast.Name) and expr.id in KEY_KINDS:
            return expr.id
        if isinstance(expr, ast.Attribute) and expr.attr in KEY_KINDS:
            return expr.attr
        return None

    def _collect_units(self, fact: FunctionFact) -> None:
        """Arithmetic events, seeded-sink writes and key flows.

        Sink and key events are filtered through the seed tables
        (:mod:`repro.lint.units`) at extraction time, which is why the
        summary cache keys on the seed fingerprint.
        """
        arith: List[ValueFact] = []
        nested: Set[int] = set()
        unit_binds: List[Tuple[str, ValueFact]] = []
        sinks: List[SinkWriteFact] = []
        flows: List[KeyFlowFact] = []
        rets: List[ValueFact] = []
        for node in self.scope_nodes:
            if isinstance(node, (ast.BinOp, ast.Compare)) and \
                    id(node) not in nested:
                sketch = self._value_fact(node)
                if sketch.form in ("binop", "compare"):
                    arith.append(sketch)
                for sub in ast.walk(node):
                    if sub is not node and \
                            isinstance(sub, (ast.BinOp, ast.Compare)):
                        nested.add(id(sub))
            elif isinstance(node, ast.Return) and \
                    node.value is not None:
                rets.append(self._value_fact(node.value))
            elif isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    text = (_const_str(key)
                            if key is not None else None)
                    if text is not None and self._seeded_slot(text):
                        sinks.append(SinkWriteFact(
                            line=value.lineno,
                            col=value.col_offset + 1, field=text,
                            value=self._value_fact(value),
                            target="slot"))
            elif isinstance(node, ast.Subscript):
                base = self._mapping_base(node.value)
                if base is not None and \
                        not isinstance(node.slice,
                                       (ast.Constant, ast.Slice,
                                        ast.Tuple)):
                    flows.append(KeyFlowFact(
                        line=node.lineno, col=node.col_offset + 1,
                        base=base,
                        key=self._value_fact(node.slice)))

        for node in self.scope_nodes:
            if isinstance(node, ast.Assign):
                targets, value, op = node.targets, node.value, None
            elif isinstance(node, ast.AnnAssign) and \
                    node.value is not None:
                targets, value, op = [node.target], node.value, None
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
                value = node.value
                op = _BINOP_TEXT.get(type(node.op))
            else:
                continue
            sketch: Optional[ValueFact] = None
            for target in targets:
                if isinstance(target, ast.Name):
                    if sketch is None:
                        sketch = self._value_fact(value)
                    rhs = sketch
                    if op is not None:
                        rhs = ValueFact(
                            line=node.lineno, form="binop", op=op,
                            left=ValueFact(line=node.lineno,
                                           form="name",
                                           name=target.id),
                            right=sketch)
                    unit_binds.append((target.id, rhs))
                elif isinstance(target, ast.Attribute) and \
                        self._seeded_slot(target.attr):
                    if sketch is None:
                        sketch = self._value_fact(value)
                    sinks.append(SinkWriteFact(
                        line=node.lineno,
                        col=target.col_offset + 1,
                        field=target.attr, value=sketch,
                        aug=op is not None))
                elif isinstance(target, ast.Subscript):
                    key = _const_str(target.slice)
                    if key is not None and self._seeded_slot(key):
                        if sketch is None:
                            sketch = self._value_fact(value)
                        sinks.append(SinkWriteFact(
                            line=node.lineno,
                            col=target.col_offset + 1,
                            field=key, value=sketch,
                            aug=op is not None, target="key"))

        for node in self.call_nodes:
            func = node.func
            if isinstance(func, ast.Attribute) and \
                    func.attr in _KEYED_METHODS and node.args:
                base = self._mapping_base(func.value)
                if base is not None and not isinstance(
                        node.args[0], ast.Constant):
                    flows.append(KeyFlowFact(
                        line=node.lineno,
                        col=node.col_offset + 1, base=base,
                        key=self._value_fact(node.args[0])))

        fact.arith_events = tuple(arith)
        fact.unit_binds = tuple(unit_binds)
        fact.sink_writes = tuple(sinks)
        fact.key_flows = tuple(flows)
        fact.ret_values = tuple(rets)

    # -- concurrency facts -------------------------------------------------

    def _collect_concurrency(self, fact: FunctionFact) -> None:
        fact.is_async = isinstance(self.func, ast.AsyncFunctionDef)
        fact.ret_annotation = _annotation_text(self.func.returns)
        global_names: Set[str] = set()
        awaited: Set[int] = set()
        with_names: Set[str] = set()
        for node in self.scope_nodes:
            if isinstance(node, ast.Global):
                global_names.update(node.names)
            elif isinstance(node, ast.Await) and \
                    isinstance(node.value, ast.Call):
                ci = self.call_index.get(id(node.value))
                if ci is not None:
                    awaited.add(ci)
            elif isinstance(node, ast.withitem) and \
                    isinstance(node.context_expr,
                               (ast.Name, ast.Attribute)):
                chain = dotted_name(node.context_expr)
                if chain is not None:  # "self._lock" guard texts
                    with_names.add(chain)
        fact.global_names = frozenset(global_names)
        fact.awaited_calls = frozenset(awaited)
        fact.with_names = frozenset(with_names)

        spawns: List[int] = []
        targets: List[Tuple[str, int]] = []
        for node in self.call_nodes:
            callee = dotted_name(node.func)
            if callee is None or \
                    callee.split(".")[-1] not in THREAD_SPAWN_CALLS:
                continue
            spawns.append(node.lineno)
            for kw in node.keywords:
                if kw.arg == "target":
                    text = dotted_name(kw.value)
                    if text is not None:
                        targets.append((text, node.lineno))
        fact.thread_spawns = tuple(spawns)
        fact.thread_targets = tuple(targets)

        forks: List[int] = []
        releases: List[int] = []
        blocking: List[Tuple[int, str]] = []
        sched_args: Set[int] = set()
        hop_args: Set[int] = set()
        # first pass: scheduling/hop argument membership, which the
        # blocking-call pass below needs for *every* call, including
        # ones indexed before their scheduler
        # (``await wait_for(reader.read(n), ...)``).
        for call in fact.calls:
            callee = call.callee
            if callee is None:
                continue
            last = callee.split(".")[-1]
            if last in COROUTINE_SCHEDULE_CALLS or \
                    last in LOOP_MARSHAL_CALLS:
                target = sched_args
            elif last in EXECUTOR_HOP_CALLS:
                target = hop_args
            else:
                continue
            for arg in call.args:
                target.update(arg.calls)
                if arg.is_call is not None:
                    target.add(arg.is_call)
            for _, arg in call.kwargs:
                target.update(arg.calls)
                if arg.is_call is not None:
                    target.add(arg.is_call)
        for ci, call in enumerate(fact.calls):
            callee = call.callee
            if callee is None:
                continue
            last = callee.split(".")[-1]
            if last in FORK_POINT_CALLS or callee in FORK_POINT_TEXTS:
                forks.append(call.line)
            if "." in callee and last in THREAD_RELEASE_CALLS:
                releases.append(call.line)
            if ci in awaited or ci in sched_args or ci in hop_args:
                # awaited, scheduler-wrapped and executor-hopped
                # calls never block the loop
                continue
            if callee in BLOCKING_CALL_TEXTS or \
                    callee.split(".")[0] in BLOCKING_CALL_PREFIXES or \
                    ("." in callee and last in BLOCKING_METHODS):
                blocking.append((call.line, callee))
        fact.fork_points = tuple(forks)
        fact.release_lines = tuple(sorted(releases))
        fact.blocking_calls = tuple(blocking)
        fact.sched_arg_calls = frozenset(sched_args)
        fact.hop_arg_calls = frozenset(hop_args)


# --------------------------------------------------------------------------
# Per-class and per-module extraction
# --------------------------------------------------------------------------


def _summarize_class(cls: ast.ClassDef) -> ClassFact:
    is_dataclass = any(
        (isinstance(d, ast.Name) and d.id == "dataclass")
        or (isinstance(d, ast.Attribute) and d.attr == "dataclass")
        or (isinstance(d, ast.Call) and dotted_name(d.func) is not None
            and dotted_name(d.func).split(".")[-1] == "dataclass")
        for d in cls.decorator_list)
    fields: List[str] = []
    attrs: Set[str] = set()
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name):
            fields.append(node.target.id)
            attrs.add(node.target.id)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    attrs.add(target.id)
        elif isinstance(node, FUNCTION_NODES):
            attrs.add(node.name)
            for sub in walk_scope(node):
                if isinstance(sub, ast.Attribute) and \
                        isinstance(sub.ctx, ast.Store) and \
                        isinstance(sub.value, ast.Name) and \
                        sub.value.id == "self":
                    attrs.add(sub.attr)
    bases = tuple(b for b in (dotted_name(base) for base in cls.bases)
                  if b is not None)
    return ClassFact(name=cls.name, line=cls.lineno,
                     is_dataclass=is_dataclass, fields=tuple(fields),
                     attrs=frozenset(attrs), bases=bases)


def _module_level_reads(tree: ast.Module) -> FrozenSet[str]:
    """Names read outside function bodies (decorators included)."""
    reads: Set[str] = set()

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTION_NODES):
                for dec in child.decorator_list:
                    reads.update(_expr_reads(dec))
                for default in (child.args.defaults
                                + child.args.kw_defaults):
                    if default is not None:
                        reads.update(_expr_reads(default))
                continue  # body reads belong to the function fact
            if isinstance(child, ast.Name) and \
                    isinstance(child.ctx, ast.Load):
                reads.add(child.id)
            if isinstance(child, ast.Attribute):
                chain = dotted_name(child)
                if chain is not None:
                    reads.add(chain)
            visit(child)

    visit(tree)
    return frozenset(reads)


def _exported_names(tree: ast.Module) -> FrozenSet[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and \
                        target.id == "__all__" and \
                        isinstance(node.value, (ast.List, ast.Tuple)):
                    return frozenset(
                        element.value
                        for element in node.value.elts
                        if isinstance(element, ast.Constant)
                        and isinstance(element.value, str))
    return frozenset()


#: constructor names whose results are ordinary mutable containers.
_MUTABLE_CTORS = frozenset({"dict", "list", "set", "defaultdict",
                            "OrderedDict", "Counter"})

_MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp,
                     ast.ListComp, ast.SetComp)


def _module_mutables(tree: ast.Module) -> Dict[str, int]:
    """Module-level names initialised to a mutable value, by first line.

    This feeds THR001: names initialised to a plain dict/list/set
    (display or constructor) are unsafe to share between a thread
    target and the main path; the sanctioned channel types
    (:data:`THREAD_SAFE_TYPES`) are excluded.
    """
    mutables: Dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t for t in node.targets
                       if isinstance(t, ast.Name)]
            value = node.value
        elif isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name) and \
                node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        mutable = isinstance(value, _MUTABLE_DISPLAYS)
        if isinstance(value, ast.Call):
            callee = dotted_name(value.func)
            if callee is not None:
                last = callee.split(".")[-1]
                mutable = (last in _MUTABLE_CTORS
                           and last not in THREAD_SAFE_TYPES)
        if mutable:
            for target in targets:
                mutables.setdefault(target.id, node.lineno)
    return mutables


def summarize_module(module: ModuleInfo) -> ModuleSummary:
    """Distil one parsed module into its picklable project summary."""
    summary = ModuleSummary(
        relpath=module.relpath,
        parts=module.parts,
        dotted=".".join(module.parts),
        pragmas=module.pragmas,
        import_aliases=dict(module.import_aliases),
        imported_modules=frozenset(module.imported_modules),
        module_functions={name: node.lineno for name, node
                          in module.module_functions.items()},
        module_reads=_module_level_reads(module.tree),
        exported=_exported_names(module.tree),
        is_entrypoint=module.parts[-1] in ENTRYPOINT_STEMS,
        module_mutables=_module_mutables(module.tree),
    )
    for name, func in module.module_functions.items():
        summary.functions[name] = _FunctionSummarizer(
            func, name).summarize()
    for cls_name, cls in module.module_classes.items():
        summary.classes[cls_name] = _summarize_class(cls)
        for node in cls.body:
            if isinstance(node, FUNCTION_NODES):
                qualname = f"{cls_name}.{node.name}"
                summary.functions[qualname] = _FunctionSummarizer(
                    node, qualname).summarize()
    return summary
