"""Count the code lines of every Python file under a directory.

    python3 tools/code_lines.py src/cloudpass

A line is a code line when it holds a token other than a comment, a line
break, an indent or a dedent, and is not part of a module, class or
function docstring. Blank lines, comment lines and docstrings therefore
never count, and each line of a string continued over several lines
does. Prints one line per file, ``<code lines> <physical lines> <path>``,
then the totals.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

# Tokens that never make a line a code line on their own.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(iter(source.splitlines(True)).__next__):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count(root: Path) -> list[tuple[str, int, int]]:
    """``(path relative to root, code lines, physical lines)`` per file."""
    rows = []
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        rows.append((path.relative_to(root).as_posix(), code_lines(source),
                     len(source.splitlines())))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not Path(argv[0]).is_dir():
        print("usage: code_lines.py DIRECTORY", file=sys.stderr)
        return 2
    rows = count(Path(argv[0]))
    for path, code, physical in rows:
        print(f"{code:6d} {physical:6d} {path}")
    print(f"{sum(r[1] for r in rows):6d} {sum(r[2] for r in rows):6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
