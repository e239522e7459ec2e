"""What the program imports: no networkx, and no module nothing reaches.

networkx is a test dependency only: the oracles in
``tests/reference_aggregation.py`` and ``tests/reference_graphs.py``
cut their graphs with it, while campaign aggregation and the Fig. 6
graphs use a union-find.  Importing networkx costs about 15 MiB of RSS,
so no module a process loads may pull it in.  Checked in a fresh
interpreter: this test process has long since imported it through
other suites.

The reachability test walks the static imports of ``src/repro`` from
the CLI and the paper-exhibit benches; a module neither reaches has no
caller but its own tests, and is deleted rather than kept.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

MODULES = [
    "repro.cli",
    "repro.core.pipeline",
    "repro.ingest.service",
    "repro.scale.pipeline",
    "repro.serve.snapshot",
    "repro.serve.app",
    "repro.analysis",
    "repro.reporting.campaign_report",
]


@pytest.mark.parametrize("module", MODULES)
def test_module_does_not_import_networkx(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = (f"import sys, {module}; "
            "assert 'networkx' not in sys.modules, "
            f"'{module} pulled in networkx'")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _source_modules() -> Dict[str, Path]:
    """Dotted name -> file of every module under ``src/repro``."""
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def _imported_names(path: Path) -> Iterator[str]:
    """Every dotted name an import statement anywhere in the file
    (function bodies included) may load: ``from a import b`` yields
    ``a`` and ``a.b``, since ``b`` may be a submodule."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import in {path}"
            yield node.module
            yield from (f"{node.module}.{alias.name}"
                        for alias in node.names)


def _with_packages(name: str) -> Iterator[str]:
    """``a.b.c`` -> ``a``, ``a.b``, ``a.b.c``: importing a module runs
    every enclosing package's ``__init__``."""
    parts = name.split(".")
    for end in range(1, len(parts) + 1):
        yield ".".join(parts[:end])


def test_every_module_is_reached_and_none_imports_networkx():
    modules = _source_modules()
    roots = {"repro.cli"}
    for bench in sorted((ROOT / "benchmarks").glob("bench_*.py")):
        roots.update(name for name in _imported_names(bench)
                     if name.split(".")[0] == "repro")
    reached = set()
    todo = [m for root in roots for m in _with_packages(root)]
    while todo:
        module = todo.pop()
        if module not in modules or module in reached:
            continue
        reached.add(module)
        for name in _imported_names(modules[module]):
            assert name.split(".")[0] != "networkx", \
                f"{module} imports networkx"
            todo.extend(_with_packages(name))
    unreached = sorted(set(modules) - reached)
    assert not unreached, (
        f"no CLI command or exhibit bench imports {unreached}")
