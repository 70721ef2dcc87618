"""``tools/code_lines.py``, the code-line count that ROADMAP and CHANGES.md quote."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

#: 8 code lines, each marked "# code"; the rest are blank, comments or docstrings
FIXTURE = '''"""Module docstring,
over two lines."""

import math  # code


# a comment line
def f(x):  # code
    """One-line docstring."""
    y = """a string that is
not a docstring"""  # code: the string's two lines count as code
    return (x +  # code
            y)  # code


class C:  # code
    """Class docstring."""

    z = 1  # code
'''


def test_fixture_count():
    assert code_lines.count_source(FIXTURE) == 8


def test_directory_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# end\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "9"
