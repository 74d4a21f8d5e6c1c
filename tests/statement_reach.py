"""Run the tier-1 suite under a line tracer and list every statement of
``src/matchwise`` that it never executes.

Usage (from the repository root)::

    PYTHONPATH=src python tests/statement_reach.py

It runs pytest with the arguments of the plain tier-1 run (``PYTEST_ARGS``)
and prints the unreached statements as ``path:line: source``.  The
exit status is the suite's when it fails, else 1 when a statement is
unreached and 0 when none is.  Exempt are ``__main__.py`` and the body of
``cli.py``'s ``if __name__ == "__main__":`` block, which only a separate
process runs, and statements that emit no line event (``nonlocal``,
``global``, a docstring).  Tracing makes the suite about three times
slower (41 s against 14 s on 2 cores, Python 3.11).
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "matchwise"
EXEMPT_FILES = ("__main__.py",)
PYTEST_ARGS = ["-q", "--durations=15", "--continue-on-collection-errors"]

# compound statements: only their header lines run as themselves
_COMPOUND = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.If, ast.For,
             ast.AsyncFor, ast.While, ast.With, ast.AsyncWith, ast.Try)


def _code_lines(code) -> set[int]:
    """The lines that carry bytecode in ``code`` and its nested code objects."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= _code_lines(const)
    return lines


def _is_main_guard(node: ast.stmt) -> bool:
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.Name) and node.test.left.id == "__name__"
            and [getattr(c, "value", None) for c in node.test.comparators] == ["__main__"])


def statements(path: Path) -> list[tuple[int, int]]:
    """The (first, last) line spans of the statements of ``path`` that emit
    a line event: a simple statement's whole span, a compound one's header
    (its decorators included) up to the line before its body."""
    source = path.read_text()
    tree = ast.parse(source)
    code_lines = _code_lines(compile(source, str(path), "exec"))
    exempt: set[int] = set()
    if path.name == "cli.py":
        for node in tree.body:
            if _is_main_guard(node):
                exempt.update(range(node.body[0].lineno, node.end_lineno + 1))
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node.lineno in exempt:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        last = (max(first, node.body[0].lineno - 1) if isinstance(node, _COMPOUND)
                else node.end_lineno)
        if code_lines.intersection(range(first, last + 1)):
            spans.append((first, last))
    return sorted(spans)


def main() -> int:
    reached: dict[str, set[int]] = {}
    tracers: dict[str, object] = {}   # code filename -> its line tracer, or None
    prefix = str(PACKAGE) + os.sep

    def tracer_for(filename: str):
        path = os.path.realpath(filename)
        if not path.startswith(prefix):
            return None
        add = reached.setdefault(path, set()).add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return tracers[filename]
        except KeyError:
            tracers[filename] = tracer_for(filename)
            return tracers[filename]

    import pytest  # imported before tracing starts: only the suite is traced

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(PYTEST_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in EXEMPT_FILES:
            continue
        hits = reached.get(str(path), set())
        lines = path.read_text().splitlines()
        for first, last in statements(path):
            if not hits.intersection(range(first, last + 1)):
                unreached.append(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{len(unreached)} statement(s) of {PACKAGE.relative_to(ROOT)} never executed")
    for line in unreached:
        print(line)
    if status != 0:
        return int(status)
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
