"""The statement lister of tools/src_coverage.py, which reports the
statements of src/ that no test enters; the traced pytest run itself is not
exercised, only the exit of main when pytest did not run."""

import importlib.util
import sys
from pathlib import Path

SRC_COVERAGE = Path(__file__).resolve().parents[1] / "tools" / "src_coverage.py"


def _load():
    spec = importlib.util.spec_from_file_location("src_coverage", SRC_COVERAGE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


src_coverage = _load()

SOURCE = '''"""Module docstring."""
import os


class Box:
    """Class docstring."""

    size = 1

    @property
    def twice(self):
        """Method docstring."""
        return (self.size
                * 2)


def pick(x):
    if x > 0:
        return "pos"
    try:
        y = -x
    except ValueError:
        raise
    return y
'''


def test_statements_skip_def_and_class_lines_and_docstrings():
    listed = [(lineno, text) for lineno, _h, _f, text in src_coverage.statements(SOURCE)]
    assert listed == [
        (2, "import os"),
        (8, "size = 1"),
        (13, "return (self.size"),
        (18, "if x > 0:"),
        (19, 'return "pos"'),
        (20, "try:"),
        (21, "y = -x"),
        (23, "raise"),
        (24, "return y"),
    ]


def test_headers_of_simple_and_compound_statements():
    by_line = {lineno: (list(h), first) for lineno, h, first, _t in src_coverage.statements(SOURCE)}
    assert by_line[13] == ([13, 14], None)      # a simple statement spans its lines
    assert by_line[18] == ([18], 19)            # a compound one runs up to its body
    assert by_line[20] == ([20], 21)


def test_a_statement_is_entered_by_its_header_or_its_first_body_statement():
    # line 14 alone enters the two-line return; line 21 enters the try above it
    hit = {2, 8, 14, 18, 21, 24}
    assert src_coverage.unentered(SOURCE, hit) == [(19, 'return "pos"'), (23, "raise")]


def test_a_run_that_did_not_start_lists_nothing(monkeypatch, capsys):
    # pytest's status 4 (usage error, as when conftest fails to import)
    # means nothing was traced, so no statement is reported as not entered
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(src_coverage, "trace_tests", lambda: (4, {}))
    assert src_coverage.main() == 4
    assert capsys.readouterr().out == ""
    assert str(src_coverage.ROOT / "src") in sys.path
