"""Statements of src/planecremona that no tier-1 test enters.

    python3 tools/src_coverage.py   # from the repo root

Runs the tier-1 suite (pytest on tests/ with -q and
--continue-on-collection-errors) in this process under sys.settrace, with
only the standard library, and prints, per module of src/planecremona,
each counted statement that no traced line reached, with its line number
and the text of its first line. Def and class lines and docstrings are not counted; the
statements of their bodies are. A statement is entered when a line event
falls on its header (for a simple statement, all of its lines), or when
the first statement of its body is entered. Code that runs in a subprocess
or in a thread started before the trace is not seen. The exit status is
pytest's; when pytest did not run the suite (a status other than 0 or 1,
such as 4 for a conftest that fails to import), no statement is listed.
The run takes a few times as long as the plain suite.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "planecremona"
TIER_1 = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests")]

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _is_docstring(node, parent):
    return (isinstance(parent, _SCOPES) and parent.body and parent.body[0] is node
            and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(source):
    """The counted statements of source, in line order, as (first line,
    header lines, line of the first body statement or None, text of the
    first line): every statement but def and class lines and docstrings.
    The header of a compound statement runs up to its body, that of a
    simple one over all of its lines."""
    lines = source.splitlines()
    out = []

    def visit(parent):
        for field in ("body", "orelse", "finalbody", "handlers"):
            for node in getattr(parent, field, ()):
                if isinstance(node, ast.ExceptHandler):
                    visit(node)
                    continue
                if not isinstance(node, _SCOPES[1:]) and not _is_docstring(node, parent):
                    body = getattr(node, "body", None)
                    first = body[0].lineno if body else None
                    last = first - 1 if first else node.end_lineno
                    out.append((node.lineno, range(node.lineno, max(last, node.lineno) + 1), first,
                                lines[node.lineno - 1].strip()))
                visit(node)

    visit(ast.parse(source))
    out.sort(key=lambda s: s[0])
    return out


def unentered(source, hit):
    """(line, text) of each counted statement of source (statements) not
    entered by the set of traced line numbers hit."""
    counted = statements(source)
    entered = set()
    # a body comes after its header, so the lines are settled from the last up
    for lineno, header, first, _text in reversed(counted):
        if any(n in hit for n in header) or first in entered:
            entered.add(lineno)
    return [(lineno, text) for lineno, _h, _f, text in counted if lineno not in entered]


def trace_tests():
    """Run tier-1 under the trace; (pytest's exit status, traced lines per
    file of SRC)."""
    import pytest

    prefix = str(SRC) + os.sep
    hits = {}        # real path -> traced lines
    by_name = {}     # co_filename -> its set in hits, or None outside SRC

    def local(frame, event, arg):
        if event == "line":
            by_name[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            path = os.path.realpath(name)
            by_name[name] = hits.setdefault(path, set()) if path.startswith(prefix) else None
        return local if by_name[name] is not None else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(TIER_1)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, hits


def main():
    sys.path.insert(0, str(ROOT))   # the tests import tests.streams, as under python -m pytest
    sys.path.insert(0, str(ROOT / "src"))
    status, hits = trace_tests()
    if status not in (0, 1):        # pytest did not run the suite: nothing was traced
        print(f"pytest exited with status {int(status)}; no statements listed", file=sys.stderr)
        return int(status)
    total = 0
    for path in sorted(SRC.glob("*.py")):
        idle = unentered(path.read_text(encoding="utf-8"), hits.get(str(path), set()))
        total += len(idle)
        print(f"{path.relative_to(ROOT)}: {len(idle)} statements not entered")
        for lineno, text in idle:
            print(f"  {lineno:5d}  {text}")
    print(f"total: {total} statements not entered")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
