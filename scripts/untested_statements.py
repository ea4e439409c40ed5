#!/usr/bin/env python3
"""Run the test suite in process and name every statement of `src/vmac` that
no test executed.

    python scripts/untested_statements.py [pytest arguments]

The suite runs under `sys.settrace` (and `threading.settrace`, for the
threads tests start), which records each line of `src/vmac` that runs.  A
statement counts as executed when one of its own lines ran: its lines minus
those of the statements nested in it, and only lines that compile to code,
so a docstring or an `else:` line is never asked for.  The bodies of
`if __name__ == "__main__":` are left out, since only a subprocess runs them.
Needs nothing beyond the standard library and pytest.

Exit status: pytest's own when the suite fails, else 1 if a statement was
never executed, else 0.
"""

from __future__ import annotations

import ast
import sys
import threading
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "vmac"


def _is_main_guard(node: ast.stmt) -> bool:
    test = node.test if isinstance(node, ast.If) else None
    return (isinstance(test, ast.Compare) and isinstance(test.left, ast.Name)
            and test.left.id == "__name__" and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value == "__main__")


def _span(node: ast.stmt) -> range:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return range(first, node.end_lineno + 1)


def _code_lines(code: types.CodeType) -> set[int]:
    """Every line that `code` and the code objects nested in it execute."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> list[tuple[int, set[int]]]:
    """`(line, own lines)` of each statement in `path` that compiles to code,
    in line order, outside the bodies of `if __name__ == "__main__":`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    code_lines = _code_lines(compile(tree, str(path), "exec"))
    found = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                nested = {line for sub in ast.walk(child)
                          if isinstance(sub, ast.stmt) and sub is not child
                          for line in _span(sub)}
                own = (set(_span(child)) - nested) & code_lines
                if own:
                    found.append((child.lineno, own))
                if _is_main_guard(child):
                    continue
            visit(child)

    visit(tree)
    return sorted(found)


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status for `args`, and the lines run per file of the
    package, by resolved path."""
    ran: dict[str, set[int]] = {}
    watched: dict[str, bool] = {}  # co_filename -> is it in the package

    def local(frame, event, arg):
        if event == "line":
            ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        inside = watched.get(name)
        if inside is None:
            inside = watched[name] = Path(name).resolve().parent == PACKAGE
        return local if inside else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_path: dict[str, set[int]] = {}
    for name, lines in ran.items():
        by_path.setdefault(str(Path(name).resolve()), set()).update(lines)
    return int(status), by_path


def main(argv: list[str]) -> int:
    status, ran = run_traced(argv)
    if status != 0:
        return status
    root = PACKAGE.parent.parent
    found = [(path, line, own) for path in sorted(PACKAGE.glob("*.py"))
             for line, own in statements(path)]
    missed = [f"{path.relative_to(root)}:{line}" for path, line, own in found
              if not own & ran.get(str(path), set())]
    for where in missed:
        print(f"{where}: statement never executed by an in-process test")
    print(f"{len(missed)} of {len(found)} statements of src/vmac never "
          "executed in process")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
