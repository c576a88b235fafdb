"""Acceptance gate: every numbered criterion runs at its stated tolerance.

Each test prints the criterion's one-line verdict through the terminal
reporter so the pass/fail record is visible in the normal pytest output,
then asserts the verdict.  Moment tables and spectra are shared through
a session cache because several criteria reuse the same families.
"""

import ast
from pathlib import Path

import pytest

from bhl import acceptance
from bhl.acceptance import CRITERIA


@pytest.fixture(scope="session")
def crit_cache():
    return {}


@pytest.fixture(scope="session")
def reporter(request):
    return request.config.pluginmanager.get_plugin("terminalreporter")


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(number, crit_cache, reporter, capsys):
    result = CRITERIA[number](crit_cache)
    if reporter is not None:
        with capsys.disabled():  # output capture would otherwise hold the verdict back
            reporter.write_line("")
            reporter.write_line(result.line())
    assert result.passed, result.line()


def test_acceptance_imports_public_names_only():
    # the suite checks the package through its public API: it may import
    # no name starting with "_" from a bhl module, nor a private module
    tree = ast.parse(open(acceptance.__file__).read())
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("bhl")):
            modules = (node.module or "").split(".")
            private += [
                f"{node.module}.{a.name}"
                for a in node.names
                if a.name.startswith("_") or any(m.startswith("_") for m in modules)
            ]
    assert not private, f"acceptance.py imports private names: {private}"


def test_package_modules_read_every_name_they_import():
    # an imported name a module never reads is dead weight; __init__.py
    # imports to re-export, and a __future__ import is a compiler switch
    unused = []
    for path in sorted(Path(acceptance.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({(a.asname or a.name.split(".")[0]): node.lineno for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({(a.asname or a.name): node.lineno for a in node.names})
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]
    assert not unused, f"imported and never read: {unused}"
