"""List the statements of src/weylalg that no test reaches.

Runs the tier-1 suite (tests/) and bench/test_smoke.py in this process
under a sys.settrace line tracer, then lists every statement inside a
function of src/weylalg that never ran.  Module and class bodies run at
import and are not counted, nor are definitions, docstrings, 'try:' lines
and the benchmark's subprocesses.  Each statement is keyed by file,
enclosing function and its text (whitespace collapsed), so edits that only
shift line numbers leave the keys alone.

The run fails (exit 1) when an unreached statement is missing from
tests/coverage_allowlist.txt, which holds only internal-defect and
unreachable raises.  Allowlisted statements that a test now reaches are
reported, so the list can shrink.  Hypothesis runs derandomized, so two
runs reach the same statements.

    python tests/coverage_probe.py
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weylalg"
ALLOWLIST = ROOT / "tests" / "coverage_allowlist.txt"
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


def _unreached(hits):
    keys = []
    for path in sorted(PACKAGE.glob("*.py")):
        seen = hits[str(path)]
        for qualname, first, last, text in _statements(path):
            if not any(line in seen for line in range(first, last + 1)):
                keys.append(f"{path.name}::{qualname}::{text}")
    return keys


def _read_allowlist():
    entries = ALLOWLIST.read_text(encoding="utf-8").splitlines()
    return [e for e in entries if e.strip() and not e.startswith("#")]


def main() -> int:
    code, hits = _run_suites_traced()
    if code != 0:
        print(f"coverage probe: the suites failed (pytest exit {code})")
        return code
    unreached = Counter(_unreached(hits))
    allowed = Counter(_read_allowlist())
    missing = unreached - allowed
    stale = allowed - unreached
    statements = sum(len(_statements(path)) for path in PACKAGE.glob("*.py"))
    print(f"coverage probe: {sum(unreached.values())} of {statements} statements unreached, "
          f"{sum(allowed.values())} allowlisted")
    for key in sorted(stale.elements()):
        print(f"now reached, can leave the allowlist: {key}")
    for key in sorted(missing.elements()):
        print(f"unreached and not allowlisted: {key}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
