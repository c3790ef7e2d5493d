"""Count the code lines of Python modules: blank, comment and docstring lines not counted.

    python tools/code_lines.py [PATH ...]

A path is a module or a directory, which stands for the ``*.py`` files under
it; the default is ``src/ghlin``.  Prints each module's count, then the total.
A code line holds a token other than a comment; a docstring (the leading
string of a module, class or function) is not code on any of its lines.
Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring in the tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of lines of the module that hold code."""
    with tokenize.open(path) as f:
        source = f.read()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source, str(path))))


def modules(paths: list[str]) -> list[Path]:
    found = []
    for name in paths:
        path = Path(name)
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return found


def main(argv: list[str]) -> int:
    total = 0
    for path in modules(argv or ["src/ghlin"]):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
