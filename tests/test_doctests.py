"""The examples in the package's docstrings run as doctests."""
from __future__ import annotations

import doctest
import importlib
import pkgutil

import pytest

import permsplit

MODULES = sorted(info.name for info in pkgutil.iter_modules(permsplit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    module = importlib.import_module(f"permsplit.{name}")
    result = doctest.testmod(module)
    assert result.failed == 0, f"{result.failed} of {result.attempted} doctests failed"
