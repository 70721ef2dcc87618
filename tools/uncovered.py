"""List the statements of a source directory that a pytest run never executes.

Runs pytest in this process with a ``sys.settrace`` line tracer that
records line events only in the Python files under the source
directory, then prints how many statements never ran and one line per
statement.  A statement is any ``ast`` statement except function and
class definitions (their bodies are searched), imports and docstrings.
A simple statement ran when any line it spans ran; a compound one
(``if``, ``for``, ``try``, ...) when a line of its own outside its
blocks ran, or any statement inside it.

Only this process is traced: code run in a child process, such as the
CLI tests that start ``python -m entkit.cli``, counts as never run.
No coverage package is needed.

Usage, the arguments after ``--`` going to pytest::

    PYTHONPATH=src python tools/uncovered.py src/entkit
    PYTHONPATH=src python tools/uncovered.py src/entkit -- tests/test_states.py

The exit code is pytest's, whatever the list holds.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from pathlib import Path

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def trace_lines(source, run):
    """``(run(), lines)``: the line numbers that ran under ``source``, by resolved file path.

    Frames of files outside the directory ``source`` are not traced line
    by line.  The trace functions in place before the call are restored
    after it.
    """
    root = os.path.realpath(source) + os.sep
    lines: dict[str, set[int]] = {}
    tracers = {}

    def local(filename):
        path = os.path.realpath(filename)
        if not path.startswith(root):
            return None
        hit = lines.setdefault(path, set())

        def on_line(frame, event, arg):
            if event == "line":
                hit.add(frame.f_lineno)
            return on_line

        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            tracers[name] = local(name)
        return tracers[name]

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return result, lines


def _is_docstring(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _blocks(node: ast.stmt) -> list[list[ast.stmt]]:
    """The statement lists inside ``node``: bodies, else and finally blocks, handlers, cases."""
    blocks = [getattr(node, name, []) for name in ("body", "orelse", "finalbody")]
    blocks += [h.body for h in getattr(node, "handlers", [])]
    blocks += [c.body for c in getattr(node, "cases", [])]
    return [b for b in blocks if b]


def _span(node: ast.stmt) -> set[int]:
    return set(range(node.lineno, node.end_lineno + 1))


def _collect(body, hit: set[int], missed: list, docstring: bool) -> bool:
    """Append the statements of ``body`` that never ran to ``missed``; True if any ran."""
    ran_any = False
    for i, node in enumerate(body):
        if isinstance(node, _DEFINITIONS):
            _collect(node.body, hit, missed, docstring=True)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
            docstring and i == 0 and _is_docstring(node)
        ):
            continue
        blocks = _blocks(node)
        own = _span(node).difference(*(_span(s) for b in blocks for s in b)) or {node.lineno}
        ran = not own.isdisjoint(hit)
        for block in blocks:
            ran = _collect(block, hit, missed, docstring=False) or ran
        if not ran:
            missed.append(node)
        ran_any = ran_any or ran
    return ran_any


def unrun_statements(source_text: str, hit: set[int]) -> list[ast.stmt]:
    """The statements of one module that never ran, by line, given the lines ``hit`` that ran."""
    missed: list[ast.stmt] = []
    _collect(ast.parse(source_text).body, hit, missed, docstring=True)
    return sorted(missed, key=lambda node: node.lineno)


def report(source, lines: dict[str, set[int]]) -> list[str]:
    """``path:line: text`` of every statement under ``source`` that never ran."""
    out = []
    for path in sorted(Path(source).rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        rows = text.splitlines()
        for node in unrun_statements(text, lines.get(os.path.realpath(path), set())):
            out.append(f"{path}:{node.lineno}: {rows[node.lineno - 1].strip()}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("source", help="directory of the Python sources to trace")
    parser.add_argument("pytest_args", nargs="*", help="arguments for pytest, after --")
    args = parser.parse_args(argv)
    import pytest

    code, lines = trace_lines(args.source, lambda: pytest.main(["-q", *args.pytest_args]))
    missed = report(args.source, lines)
    print(f"{len(missed)} statements never ran")
    for line in missed:
        print(line)
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
