"""Acceptance gate: every numbered criterion runs at its stated tolerance.

Each test prints the criterion's one-line verdict through the terminal
reporter so the pass/fail record is visible in the normal pytest output,
then asserts the verdict.  Moment tables and spectra are shared through
a session cache because several criteria reuse the same families.
"""

import ast

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
