"""Count the code lines of Python modules.

    python3 tools/code_lines.py [PATH ...]

A code line is a line that holds a token outside docstrings and comments;
blank lines hold none.  A token that spans lines, such as a string that is
not a docstring, holds every line it spans.  A docstring is the string
statement that opens a module, class or function body.  Each PATH is a
file or a directory searched for ``*.py`` files; the default is ``src``.
The count of each module is printed, then the total.  Stdlib only.
"""

from __future__ import annotations

import ast
import os
import sys
import tokenize

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every docstring in ``tree``."""
    lines: set[int] = set()
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


def code_lines(path: str) -> int:
    with open(path, "rb") as fh:
        source = fh.read()
    skip = docstring_lines(ast.parse(source, path))
    lines: set[int] = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def modules(paths: list[str]) -> list[str]:
    found = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                found += [os.path.join(root, f) for f in sorted(files) if f.endswith(".py")]
        else:
            found.append(path)
    return found


def main(argv: list[str]) -> int:
    total = 0
    for path in modules(argv or ["src"]):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
