"""The package's names match what its callers import. Every name that bench/,
scripts/ and README's python blocks import from qvisolve still resolves from
the module they import it from: the benchmark is not part of this suite, so
without this check a rename or a move would break only a benchmark run. And
the top-level package exports no name that none of them, nor a test,
imports from it."""

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

import qvisolve

ROOT = Path(__file__).resolve().parent.parent


def readme_blocks():
    """The code of every python block in README."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)


def qvisolve_imports(include_tests: bool = False):
    """(module, name) of every 'from qvisolve... import name' in bench/,
    scripts/, README's python blocks and, with include_tests, tests/."""
    paths = [*ROOT.glob("bench/*.py"), *ROOT.glob("scripts/*.py")]
    if include_tests:
        paths += ROOT.glob("tests/*.py")
    found = set()
    for source in [*(path.read_text(encoding="utf-8") for path in paths), *readme_blocks()]:
        for node in ast.walk(ast.parse(source)):
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


def test_scan_reads_the_readme_quick_start():
    assert any("from qvisolve import" in block for block in readme_blocks())


@pytest.mark.parametrize("module,name", IMPORTS, ids=[f"{m}.{n}" for m, n in IMPORTS])
def test_imported_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_every_top_level_name_is_imported_somewhere():
    exported = {name for name, value in vars(qvisolve).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    imported = {name for module, name in qvisolve_imports(include_tests=True)
                if module == "qvisolve"}
    assert exported - imported == set()
