"""The measurement and serving paths never import networkx.

networkx backs only the analysis exhibits (``repro.analysis.graphs``);
campaign aggregation is a union-find.  Importing networkx costs about
15 MiB of RSS, so every module a measurement, ingest or serving process
loads must stay clear of it.  Checked in a fresh interpreter: this test
process has long since imported it through other suites.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

MODULES = [
    "repro.cli",
    "repro.core.pipeline",
    "repro.ingest.service",
    "repro.scale.pipeline",
    "repro.serve.snapshot",
    "repro.serve.app",
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
