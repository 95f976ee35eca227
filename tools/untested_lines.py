"""List the statements of each module of ``src/qcompat`` that the tier-1 tests
never execute.

    python tools/untested_lines.py [pytest arguments]

Runs pytest in this process under ``sys.settrace`` and counts every statement
of the module syntax trees except ``def``, ``class``, imports and docstrings.
A statement counts as executed when a line of its own (its header, for a
compound statement) runs.  Entry glue that only a child process runs is not
counted: ``__main__.py``, and the body of an ``if __name__ == "__main__":``
block.  It prints, per module, the lines never executed, and exits with
pytest's code when that is not 0, else with 1 when a counted statement never
runs, else 0.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qcompat"
UNCOUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node is parent.body[0]
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _is_main_guard(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def statements(text: str) -> dict[int, range]:
    """Each counted statement's first line, mapped to the lines that are its own."""
    tree = ast.parse(text)
    guarded = {line for node in ast.walk(tree) if _is_main_guard(node)
               for line in range(node.body[0].lineno, node.end_lineno + 1)}
    own = {}
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.stmt) and not isinstance(node, UNCOUNTED):
                if node.lineno not in guarded and not _is_docstring(node, parent):
                    body = getattr(node, "body", None)
                    end = body[0].lineno - 1 if body else node.end_lineno
                    own[node.lineno] = range(node.lineno, max(end, node.lineno) + 1)
    return own


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC.parent))
    paths = {str(p): p for p in SRC.glob("*.py") if p.name != "__main__.py"}
    hits: dict[str, set[int]] = {name: set() for name in paths}

    def trace(frame, event, arg):
        lines = hits.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local(frame, event, arg)

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    print("\nstatements never executed, per module of src/qcompat:")
    untested = False
    for name, path in sorted(paths.items()):
        own = statements(path.read_text())
        missed = sorted(first for first, lines in own.items() if hits[name].isdisjoint(lines))
        if missed:
            untested = True
            print(f"  {path.name}: {', '.join(map(str, missed))}")
    return int(code) or int(untested)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
