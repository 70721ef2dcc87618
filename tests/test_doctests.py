"""Run the examples in entkit's docstrings and README, so a stale one fails tier-1."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import entkit

MODULES = ["entkit"] + [f"entkit.{m.name}" for m in pkgutil.iter_modules(entkit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed in {name}"


def test_readme_examples():
    # a renamed or raising public call in a README example fails tier-1
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks, "README.md has no python example"
    for source in blocks:
        exec(compile(source, str(readme), "exec"), {})
