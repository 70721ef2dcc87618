"""Run the examples in entkit's docstrings, so a stale one fails tier-1."""

import doctest
import importlib
import pkgutil

import pytest

import entkit

MODULES = ["entkit"] + [f"entkit.{m.name}" for m in pkgutil.iter_modules(entkit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed in {name}"
