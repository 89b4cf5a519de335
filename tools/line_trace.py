"""List the statements of ``src/stable_sysid`` that a test run never executes.

Run from the repository root, with any pytest arguments:

    python tools/line_trace.py [pytest args]

The script puts its own checkout's ``src`` first on ``sys.path`` and exits
2 if ``stable_sysid`` resolves anywhere else, so a trace never reads an
installed copy.

The script runs pytest in-process, with ``-p no:cacheprovider``, under
``sys.settrace`` and ``threading.settrace``, and records every line that
runs in the package's modules.  It then prints, per module, each statement
that never ran as ``module:line: source`` (the statement's first line),
followed by a count.  A statement is an AST statement other than ``def``,
``class``, ``nonlocal``, ``global`` and docstrings; it counts as run when a
line of its own (its lines less those of the statements nested in it) ran.
The script writes no file, and exits with pytest's exit code.

Code that runs in a subprocess, such as a fresh interpreter a test starts,
is not traced: its statements count as not run unless the test process runs
them too.  Tracing makes the run about twice as slow.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Nonlocal, ast.Global)


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    body = getattr(parent, "body", None)
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and body is not None and body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    )


def statements(source: str) -> list:
    """``(first line, own lines)`` of each statement of ``source``."""
    out = []

    def visit(parent):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.stmt) and not isinstance(node, _SKIPPED) and not _is_docstring(node, parent):
                own = set(range(node.lineno, node.end_lineno + 1))
                for child in ast.walk(node):
                    if child is not node and isinstance(child, ast.stmt):
                        own -= set(range(child.lineno, child.end_lineno + 1))
                out.append((node.lineno, own))
            visit(node)

    visit(ast.parse(source))
    return out


def main(argv: list) -> int:
    import pytest

    sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("stable_sysid")
    package = SRC / "stable_sysid"
    if spec is None or not spec.submodule_search_locations or \
            Path(spec.submodule_search_locations[0]).resolve() != package:
        print(f"stable_sysid does not resolve to {package}", file=sys.stderr)
        return 2
    modules = sorted(package.glob("*.py"))
    ran = {path: set() for path in modules}
    by_name = {}  # each code object's file name, resolved once

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = ran.get(Path(name).resolve())
        lines = by_name[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in modules:
        source = path.read_text()
        lines = source.splitlines()
        for first, own in statements(source):
            if not own & ran[path]:
                total += 1
                print(f"{path.stem}:{first}: {lines[first - 1].strip()}")
    print(f"{total} statements never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
