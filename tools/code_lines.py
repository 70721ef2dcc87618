"""Count the code lines of Python sources: non-blank, non-comment, non-docstring.

A line counts when some token other than a comment, an indent, a dedent
or a line break starts or runs on it, and it is not part of a docstring
(the leading string of a module, class or function body, found with
``ast``).  A string that spans several lines counts every line it spans.

Usage, printing the total and then one line per file::

    python tools/code_lines.py src/entkit
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

#: tokens that put no code on a line
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_source(source: str) -> int:
    """Code lines of one Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def python_files(paths) -> list[Path]:
    """The ``.py`` files named by ``paths``, each directory searched recursively, sorted."""
    files = []
    for p in map(Path, paths):
        files.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="Python files or directories")
    args = parser.parse_args(argv)
    counts = {f: count_source(f.read_text(encoding="utf-8")) for f in python_files(args.paths)}
    print(sum(counts.values()))
    for f, count in counts.items():
        print(f"{count:6d}  {f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
