"""Statements of src/enaqt that the tier-1 tests never run.

Runs pytest in this process under a sys.settrace hook that records the
lines executed in the package's files only (no other code is traced line
by line), then lists every statement none of whose lines ran.  A
statement is a simple statement (all its lines) or the header of a
compound one (its lines before the body); a statement with no bytecode,
such as `try:` or `global`, is not counted.  Code run in other processes
(a process pool's workers, a subprocess) is not seen.

    python tools/reach.py [PYTEST_ARGS...]

from the repository root, with the arguments of the tier-1 run (none by
default).  Prints one `file:line: statement` per statement missed and
their count; the exit code is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "enaqt") + os.sep


def _code_lines(code, lines) -> set:
    """The lines of code and its nested code objects that hold bytecode."""
    lines.update(line for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            _code_lines(const, lines)
    return lines


def _statements(path):
    """(first line, lines, text) of every statement of the file at path."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source)
    text = source.splitlines()
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(
            node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        yield node.lineno, set(range(first, max(first, last) + 1)), text[
            node.lineno - 1].strip()


def main(argv=None) -> int:
    import pytest

    argv = sys.argv[1:] if argv is None else list(argv)
    ran = {}  # file -> set of lines executed

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(PACKAGE):
            return None
        ran.setdefault(name, set())
        if event == "call":
            ran[name].add(frame.f_lineno)
        return local

    sys.path.insert(0, os.path.join(ROOT, "src"))
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = PACKAGE + name
        with open(path, encoding="utf-8") as fh:
            bytecode = _code_lines(compile(fh.read(), path, "exec"), set())
        executed = ran.get(path, set())
        missed += [f"src/enaqt/{name}:{line}: {text}"
                   for line, lines, text in sorted(_statements(path))
                   if lines & bytecode and not lines & executed]
    print("\n".join(missed))
    print(f"{len(missed)} statements of src/enaqt never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
