"""Line counts of the ``minsection`` package, one line per module.

    python3 tools/src_size.py

Run from anywhere; the modules are read from ``src/minsection`` of the
checkout that holds this script. Each line gives a module's total lines
and its code lines: lines that hold a token of Python code, so not blank,
not only a comment, and not part of a docstring (the string that opens a
module, class or function body). The last line gives the totals.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "minsection"

#: Tokens that are not code: they never make a line count as code.
LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER, tokenize.ENCODING,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def sizes(source: str) -> tuple[int, int]:
    """``(total lines, code lines)`` of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docs)


def main() -> int:
    total = code = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines, code_lines = sizes(path.read_text())
        total += lines
        code += code_lines
        print(f"{path.name:16} {lines:6,} {code_lines:6,}")
    print(f"{'total':16} {total:6,} {code:6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
