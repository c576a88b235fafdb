"""The benchmark harness's own tests (``perfbench/selftest.py``), run with the suite.

The file is loaded by path, as ``python3 perfbench/selftest.py`` would run
it; its known-defect probes are reports, not tests, and are not called.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_selftest", _PATH)
selftest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(selftest)

_TESTS = sorted(name for name in vars(selftest) if name.startswith("test_"))


def test_selftest_tests_are_found():
    # an empty parametrization would pass without running anything
    assert len(_TESTS) >= 5, _TESTS


@pytest.mark.parametrize("name", _TESTS)
def test_harness(name):
    getattr(selftest, name)()
