"""Count the lines and the code lines of each module under src/.

A code line is a line that holds some token other than a comment, a
docstring or indentation; blank lines, comment lines and the lines of a
module, class or function docstring do not count.  These are the counts
ROADMAP.md quotes for the package.

Usage: python tools/code_lines.py

It counts every .py file under src/, one row per file and a total row:
lines, then code lines, then the path.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of a Python source text."""
    docs = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    total = code = 0
    for path in sorted((root / "src").rglob("*.py")):
        source = path.read_text()
        n, c = len(source.splitlines()), code_lines(source)
        total, code = total + n, code + c
        print(f"{n:6} {c:6}  {path.relative_to(root)}")
    print(f"{total:6} {code:6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
