"""Code lines per module of src/enaqt: lines that hold code, without
docstrings, comments or blank lines.

A line counts when a token other than a comment or a line break starts or
continues on it (a string that spans lines counts on every line it
covers), unless it lies in a docstring: the string-literal statement that
opens a module, class or function.

    python tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/enaqt next to this script's directory.
"""

from __future__ import annotations

import ast
import os
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path) -> int:
    with open(path, "rb") as fh:
        source = fh.read()
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = argv[0] if argv else os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "src", "enaqt")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            count = code_lines(os.path.join(package, name))
            total += count
            print(f"{name:16s} {count:5d}")
    print(f"{'total':16s} {total:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
