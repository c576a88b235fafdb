"""Acceptance gate: every numbered criterion runs at its stated tolerance.

Each test prints the criterion's one-line verdict through the terminal
reporter so the pass/fail record is visible in the normal pytest output,
then asserts the verdict.  Moment tables and spectra are shared through
a session cache because several criteria reuse the same families.
"""

import pytest

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
