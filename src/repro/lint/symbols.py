"""Per-module symbol tables and the lightweight dataflow layer.

reprolint parses each module exactly once; this module turns the AST
into the lookup structures every rule shares — import aliases, the
module-level definition table — plus small intra-function dataflow
helpers (single-assignment expansion of local names) that let rules
answer questions like "which *parameters* does this cache key actually
depend on" without a full abstract interpreter.
"""

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.lint.pragmas import PragmaIndex, collect_pragmas

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class ModuleInfo:
    """Everything the rules need to know about one parsed module."""

    path: Path
    relpath: str                       # posix-style, relative to root
    parts: Tuple[str, ...]             # directory parts + module stem
    tree: ast.Module
    source: str
    pragmas: PragmaIndex
    #: qualified names of every imported module ("repro.core.enrichment")
    imported_modules: Set[str] = field(default_factory=set)
    #: local binding -> qualified origin ("nx" -> "networkx",
    #: "record_attachments" -> "repro.core.aggregation.record_attachments")
    import_aliases: Dict[str, str] = field(default_factory=dict)
    #: module-level function definitions by name
    module_functions: Dict[str, FunctionNode] = field(default_factory=dict)
    #: module-level class definitions by name
    module_classes: Dict[str, ast.ClassDef] = field(default_factory=dict)
    #: every module-level binding (functions, classes, assigns, imports)
    module_names: Set[str] = field(default_factory=set)

    def in_directory(self, names: Set[str]) -> bool:
        """Whether any path segment (or the stem) is in ``names``.

        This is how directory-scoped rules (determinism, durability)
        decide applicability; it works identically for the real tree
        (``core/aggregation.py``) and for test fixtures laid out under
        a mimicking directory (``fixtures/lint/core/...``).
        """
        return any(part in names for part in self.parts)

    def origin_of(self, name: str) -> Optional[str]:
        """Qualified origin of a local binding, or None if not imported."""
        return self.import_aliases.get(name)


def build_module_info(path: Path, root: Path,
                      with_pragmas: bool = True) -> ModuleInfo:
    """Parse ``path`` once and derive its symbol tables.

    ``with_pragmas=False`` skips the tokenizer pass that collects
    suppression pragmas — the ``--changed`` fast path uses it for
    out-of-focus modules, whose findings are scoped out of the report
    anyway (their facts still feed the whole-program passes).
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    rel = path.relative_to(root)
    info = ModuleInfo(
        path=path,
        relpath=rel.as_posix(),
        parts=tuple(rel.parts[:-1]) + (rel.stem,),
        tree=tree,
        source=source,
        pragmas=(collect_pragmas(source) if with_pragmas
                 else PragmaIndex()),
    )
    for node in tree.body:
        _index_toplevel(info, node)
    for node in ast.walk(tree):
        _index_imports(info, node)
    return info


def _index_toplevel(info: ModuleInfo, node: ast.stmt) -> None:
    if isinstance(node, FUNCTION_NODES):
        info.module_functions[node.name] = node
        info.module_names.add(node.name)
    elif isinstance(node, ast.ClassDef):
        info.module_classes[node.name] = node
        info.module_names.add(node.name)
    elif isinstance(node, ast.Assign):
        for target in node.targets:
            for name in _target_names(target):
                info.module_names.add(name)
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                        ast.Name):
        info.module_names.add(node.target.id)
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        for alias in node.names:
            info.module_names.add(alias.asname or
                                  alias.name.split(".")[0])


def _index_imports(info: ModuleInfo, node: ast.AST) -> None:
    if isinstance(node, ast.Import):
        for alias in node.names:
            info.imported_modules.add(alias.name)
            local = alias.asname or alias.name.split(".")[0]
            info.import_aliases[local] = (alias.name if alias.asname
                                          else alias.name.split(".")[0])
    elif isinstance(node, ast.ImportFrom) and node.module:
        info.imported_modules.add(node.module)
        for alias in node.names:
            info.import_aliases[alias.asname or alias.name] = \
                f"{node.module}.{alias.name}"


def _target_names(target: ast.expr) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)


# --------------------------------------------------------------------------
# Intra-function dataflow helpers
# --------------------------------------------------------------------------


def dotted_name(expr: ast.expr) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def walk_scope(func: FunctionNode) -> Iterator[ast.AST]:
    """Walk ``func``'s own body without entering nested functions."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTION_NODES + (ast.Lambda,)):
            stack.extend(ast.iter_child_nodes(node))


def name_loads(node: ast.AST) -> Set[str]:
    """Every Name read (Load context) anywhere under ``node``."""
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def parameter_names(func: FunctionNode,
                    skip_self: bool = True) -> Set[str]:
    """All parameter names of ``func`` (minus self/cls by default)."""
    args = func.args
    names = [a.arg for a in (args.posonlyargs + args.args
                             + args.kwonlyargs)]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    if skip_self and names and names[0] in ("self", "cls"):
        names = names[1:]
    return set(names)


def local_assignments(func: FunctionNode) -> Dict[str, List[ast.expr]]:
    """``name -> [value exprs]`` for simple assignments inside ``func``.

    Tuple unpacking maps every target name to the whole right-hand
    side, which is exactly what transitive expansion needs: any name
    the RHS reads taints every unpacked binding.
    """
    out: Dict[str, List[ast.expr]] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for name in _target_names(target):
                    out.setdefault(name, []).append(node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None \
                and isinstance(node.target, ast.Name):
            out.setdefault(node.target.id, []).append(node.value)
        elif isinstance(node, ast.AugAssign) and \
                isinstance(node.target, ast.Name):
            out.setdefault(node.target.id, []).append(node.value)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for name in _target_names(node.target):
                out.setdefault(name, []).append(node.iter)
        elif isinstance(node, ast.withitem) and \
                node.optional_vars is not None:
            for name in _target_names(node.optional_vars):
                out.setdefault(name, []).append(node.context_expr)
    return out


def expand_names(names: Set[str],
                 assignments: Dict[str, List[ast.expr]],
                 max_depth: int = 8) -> Set[str]:
    """Transitive closure of name reads through local assignments.

    Starting from ``names``, repeatedly add every name read by the
    expressions assigned to a known name: ``key = bytes(raw)`` makes
    ``{"key"}`` expand to ``{"key", "raw"}``.
    """
    seen = set(names)
    frontier = set(names)
    for _ in range(max_depth):
        grown: Set[str] = set()
        for name in frontier:
            for value in assignments.get(name, ()):
                grown |= name_loads(value) - seen
        if not grown:
            break
        seen |= grown
        frontier = grown
    return seen
