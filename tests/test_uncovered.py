"""``tools/uncovered.py``, the line trace that lists the statements no test runs."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "uncovered.py"
spec = importlib.util.spec_from_file_location("uncovered", TOOL)
uncovered = importlib.util.module_from_spec(spec)
spec.loader.exec_module(uncovered)

#: ``f(1)`` runs every statement marked "# ran"; those marked "# missed" never run
FIXTURE = '''"""Module docstring."""

import math

LIMIT = 3  # ran


def f(x):
    """Docstring."""
    if x > 0:  # ran
        y = math.sqrt(  # ran
            x
        )
    else:
        y = 0  # missed
    try:  # ran
        z = 1 / x  # ran
    except ZeroDivisionError:
        z = None  # missed
    for _ in range(x):  # ran
        pass  # ran
    return y, z  # ran


def g():
    while True:  # missed
        return 1  # missed


class C:
    """Class docstring."""

    def h(self):
        return 2  # missed
'''


def _marked(word):
    return [i for i, line in enumerate(FIXTURE.splitlines(), 1) if line.endswith(f"# {word}")]


def _package(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(FIXTURE)
    return pkg


def test_unrun_statements_from_lines():
    hit = set(_marked("ran"))
    missed = [s.lineno for s in uncovered.unrun_statements(FIXTURE, hit)]
    assert missed == _marked("missed")
    # nothing ran: every statement, docstrings, imports and definitions aside
    assert len(uncovered.unrun_statements(FIXTURE, set())) == 13


def test_trace_of_a_fixture_package(tmp_path):
    pkg = _package(tmp_path)

    def run():
        spec = importlib.util.spec_from_file_location("fixture_mod", pkg / "mod.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.f(1)

    before = sys.gettrace()
    result, lines = uncovered.trace_lines(pkg, run)
    assert sys.gettrace() is before
    assert result == (1.0, 1.0)
    # only files under the package are traced, this test file not among them
    assert set(lines) == {str((pkg / "mod.py").resolve())}
    rows = FIXTURE.splitlines()
    want = [f"{pkg / 'mod.py'}:{i}: {rows[i - 1].strip()}" for i in _marked("missed")]
    assert uncovered.report(pkg, lines) == want


def test_main_runs_pytest_and_lists(tmp_path):
    pkg = _package(tmp_path)
    tests = tmp_path / "checks"
    tests.mkdir()
    (tests / "test_fixture.py").write_text("from pkg import mod\n\ndef test_f():\n    mod.f(1)\n")
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(pkg), "--", str(tests), "-p", "no:cacheprovider"],
        cwd=tmp_path,
        env={"PYTHONPATH": str(tmp_path), "PATH": ""},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    count = out.index("5 statements never ran")
    assert [line.split(": ")[0] for line in out[count + 1 :]] == [
        f"{pkg / 'mod.py'}:{i}" for i in _marked("missed")
    ]
