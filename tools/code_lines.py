"""Count the code lines of a Python source tree.

A code line is a non-blank line that is neither a comment nor part of a
docstring.  A docstring is a string constant that is the first statement
of a module, class or function.  Every line that a token other than a
comment spans counts, so each line of a multi-line string that is not a
docstring counts, blank or not.  Only the standard library is used.

Usage: ``python tools/code_lines.py [PATH ...]`` prints the total over
every ``*.py`` file under the given paths (default ``src/susyqm``).
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", default=["src/susyqm"])
    args = parser.parse_args(argv)
    files = {f for p in map(Path, args.paths)
             for f in ([p] if p.is_file() else p.rglob("*.py"))}
    print(sum(code_lines(f.read_text(encoding="utf-8")) for f in files))
    return 0


if __name__ == "__main__":
    sys.exit(main())
