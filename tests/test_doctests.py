"""Run the ``>>>`` examples in the package's docstrings.

Every ``repro`` module whose source contains a doctest prompt is
collected here, so an example that drifts from the code fails tier-1
instead of rotting silently.
"""

import doctest
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"


def _doctest_modules():
    names = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if ">>>" not in path.read_text():
            continue
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


DOCTEST_MODULES = _doctest_modules()


def test_doctest_modules_found():
    assert "repro.sim.engine" in DOCTEST_MODULES


@pytest.mark.parametrize("name", DOCTEST_MODULES)
def test_module_doctests_pass(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module, verbose=False, report=True)
    assert result.attempted > 0, f"{name} has '>>>' but no runnable examples"
    assert result.failed == 0
