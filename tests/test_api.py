"""Every name that bench/ and scripts/ import from qvisolve still resolves
from the module they import it from. The benchmark is not part of this
suite, so without this check a rename or a move would break only a
benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def qvisolve_imports():
    """(module, name) of every 'from qvisolve... import name' in bench/ and scripts/."""
    found = set()
    for path in [*ROOT.glob("bench/*.py"), *ROOT.glob("scripts/*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qvisolve":
                found.update((node.module, alias.name) for alias in node.names)
    return sorted(found)


IMPORTS = qvisolve_imports()


def test_scan_finds_the_re_exported_readers():
    # solvers, dynamics and cli keep these names only because bench/ imports
    # them from there; they live in csvio
    assert {("qvisolve.solvers", "read_trace_csv"), ("qvisolve.dynamics", "read_flow_csv"),
            ("qvisolve.cli", "read_sweep_csv"), ("qvisolve", "trace_to_csv"),
            ("qvisolve.csvio", "read_compare_csv")} <= set(IMPORTS)


@pytest.mark.parametrize("module,name", IMPORTS, ids=[f"{m}.{n}" for m, n in IMPORTS])
def test_imported_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
