"""Check that every statement of src/weylalg is reached by a test.

Runs the tier-1 suite (tests/) and bench/test_smoke.py in this process
under a sys.settrace line tracer, then lists every statement inside a
function of src/weylalg that never ran, by file, line, enclosing function
and text.  Module and class bodies run at import and are not counted, nor
are definitions, docstrings, 'try:' lines and the benchmark's subprocesses.

The run fails (exit 1) on any unreached statement: an internal-defect raise
is reached by a test that breaks what it guards, and code that no input
reaches is deleted.  Hypothesis runs derandomized, so two runs reach the
same statements.

    python tests/coverage_probe.py
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weylalg"
SUITES = ["tests", "bench/test_smoke.py"]

# statements with no code of their own (a try's body is counted instead)
_SKIPPED = (ast.Try, ast.Global, ast.Nonlocal)


def _is_docstring(node, body):
    return (
        node is body[0] and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    )


def _statements(path: Path):
    """(qualname, first line, last line, text) of each counted statement;
    a compound statement spans only its header, up to its first body line."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    found = []

    def visit(body, qualname, in_function):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{qualname}.{node.name}" if qualname else node.name
                visit(node.body, inner, isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))
                continue
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), qualname, in_function)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, qualname, in_function)
            for case in getattr(node, "cases", []):
                visit(case.body, qualname, in_function)
            if not in_function or isinstance(node, _SKIPPED) or _is_docstring(node, body):
                continue
            nested = getattr(node, "body", None)
            last = max(node.lineno, nested[0].lineno - 1) if nested else node.end_lineno
            text = " ".join(" ".join(lines[node.lineno - 1:last]).split())
            found.append((qualname, node.lineno, last, text))

    visit(ast.parse(source).body, "", False)
    return found


def _run_suites_traced():
    """Run the suites under a line tracer; (pytest exit code, {file: lines run})."""
    hits = {str(path): set() for path in PACKAGE.glob("*.py")}

    def tracer(frame, event, arg):
        seen = hits.get(frame.f_code.co_filename)
        if seen is None:
            return None
        add = seen.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    import pytest

    sys.path.insert(0, str(PACKAGE.parent))  # trace this checkout, not an installed copy

    class Derandomize:
        @staticmethod
        def pytest_configure(config):
            from hypothesis import settings

            settings.register_profile("coverage-probe", derandomize=True, database=None)
            settings.load_profile("coverage-probe")

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        args = ["-q", "-p", "no:cacheprovider", *(str(ROOT / s) for s in SUITES)]
        code = pytest.main(args, plugins=[Derandomize()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main() -> int:
    code, hits = _run_suites_traced()
    if code != 0:
        print(f"coverage probe: the suites failed (pytest exit {code})")
        return code
    statements = unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        seen = hits[str(path)]
        for qualname, first, last, text in _statements(path):
            statements += 1
            if not any(line in seen for line in range(first, last + 1)):
                unreached += 1
                print(f"unreached: {path.name}:{first} {qualname}: {text}")
    print(f"coverage probe: {unreached} of {statements} statements unreached")
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
