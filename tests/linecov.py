"""List the statements of ``src/skewgin`` that no test executes.

A stdlib line tracer: ``sys.settrace`` is installed before pytest runs the
given arguments (tier-1 by default) in this process, every line event in a
frame of a ``src/skewgin`` file is recorded, and the statements that never
ran are printed as ``path:line: source``, one a line, with a count per
file.  A statement is an ``ast`` statement whose first line carries
bytecode, so docstrings and bare ``else:``/``try:`` lines are left out.
Tests that start a fresh interpreter (``subprocess``) run untraced, so
what only they execute is listed too.  Hypothesis draws with the fixed
seed 0 (``--hypothesis-seed=0``), so two runs of one tree list the same
statements.  It is not part of tier-1, and takes a few times as long as a
plain run.

    python tests/linecov.py                  # tier-1
    python tests/linecov.py tests/test_cli.py -k verify

The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "skewgin")


def _code_lines(code):
    """The line numbers that carry bytecode in code and its nested code."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path):
    """{first line: source line} of the statements of one file."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    carried = _code_lines(compile(text, path, "exec"))
    source = text.splitlines()
    return {node.lineno: source[node.lineno - 1].strip()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.stmt) and node.lineno in carried}


def main(argv) -> int:
    import pytest

    sys.path.insert(0, os.path.join(ROOT, "src"))
    hit = set()

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(SRC) else None

    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *argv])
    finally:
        sys.settrace(None)
    total = 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        missed = sorted((line, text) for line, text in statements(path).items()
                        if (path, line) not in hit)
        for line, text in missed:
            print(f"src/skewgin/{name}:{line}: {text}")
        if missed:
            print(f"  {len(missed)} in {name}")
        total += len(missed)
    print(f"{total} statements never executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
