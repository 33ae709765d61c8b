"""The seed parser, the per-metric summary and verdict, the src/ line and
code-line counts, the inclusive layer time read from a spans file and the
refusal of a parent that is not a git checkout of tools/bench_pairs.py,
which writes the BENCH_*.json files; the runs themselves are not
exercised."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load()


def test_parse_seeds_range_list_and_mix():
    assert bench_pairs.parse_seeds("131-140") == list(range(131, 141))
    assert bench_pairs.parse_seeds("1,2,5") == [1, 2, 5]
    assert bench_pairs.parse_seeds("1,4-6,9") == [1, 4, 5, 6, 9]


def test_pairs_won_follows_the_direction_and_ties_count_for_neither():
    parent, change = [10, 20, 30, 40], [11, 19, 30, 45]
    assert bench_pairs.summarize("higher", 0.1, parent, change)["pairs_won"] == 2
    assert bench_pairs.summarize("lower", 0.1, parent, change)["pairs_won"] == 1
    assert bench_pairs.summarize("higher", 0.1, parent, parent)["pairs_won"] == 0


def test_summary_of_one_run_has_a_degenerate_iqr():
    s = bench_pairs.summarize("lower", 0.1, [2.5], [2.0])
    assert s["parent_iqr"] == [2.5, 2.5] and s["change_iqr"] == [2.0, 2.0]
    assert s["parent_median"] == 2.5 and s["change_median"] == 2.0
    assert s["pairs_won"] == 1


PARENT = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]     # median 104.5, IQR 101.75-107.25


def test_verdict_gain_needs_nine_pairs_in_ten_and_a_gap_wider_than_the_parent_iqr():
    faster = [v - 8 for v in PARENT]
    assert bench_pairs.verdict("lower", 0.2, PARENT, faster) == "gain"
    assert bench_pairs.verdict("higher", 0.2, [-v for v in PARENT], [-v for v in faster]) == "gain"
    # 8 pairs in 10 won: not a gain, though the gap, 8, is wider than the IQR
    assert bench_pairs.verdict("lower", 0.5, PARENT, faster[:8] + [200, 200]) == "within bound"
    # 10 pairs won, but the gap, 1, is inside the parent's IQR, 5.5
    assert bench_pairs.verdict("lower", 0.2, PARENT, [v - 1 for v in PARENT]) == "within bound"


def test_verdict_worse_beyond_the_bound_times_the_parent_median():
    assert bench_pairs.verdict("lower", 0.1, PARENT, [v + 11 for v in PARENT]) == "worse"
    assert bench_pairs.verdict("lower", 0.1, PARENT, [v + 10 for v in PARENT]) == "within bound"
    assert bench_pairs.verdict("higher", 0.1, PARENT, [v - 11 for v in PARENT]) == "worse"


def test_verdict_unresolved_when_an_iqr_is_wider_than_the_bound():
    wide = [80, 90, 95, 100, 104, 105, 110, 115, 120, 130]     # IQR 93.75-116.25
    assert bench_pairs.verdict("lower", 0.1, wide, wide[::-1]) == "unresolved"
    assert bench_pairs.verdict("lower", 0.1, PARENT, wide) == "unresolved"
    # every change run beats every parent run: resolved however wide
    assert bench_pairs.verdict("lower", 0.1, [v + 51 for v in wide], wide) == "gain"
    # separated, but the gap, 90.5, is inside the parent's IQR, about 188
    spread = [110, 111, 112, 150, 190, 200, 210, 300, 301, 302]
    assert bench_pairs.verdict("lower", 0.1, spread, PARENT) == "within bound"


def test_verdict_within_bound_for_equal_runs():
    assert bench_pairs.verdict("higher", 0.02, [1.0] * 10, [1.0] * 10) == "within bound"
    assert bench_pairs.summarize("lower", 0.1, PARENT, PARENT)["verdict"] == "within bound"


def _tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}), encoding="utf-8")
    return root


def _commit(root):
    """root made a git checkout of one commit of its files; its short hash."""
    def git(*args):
        return subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.invalid",
                               "-c", "commit.gpgsign=false", *args], cwd=root, check=True,
                              capture_output=True, text=True).stdout.strip()
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "--no-verify", "-m", "parent")
    return git("rev-parse", "--short", "HEAD")


def test_src_lines_of_both_checkouts_are_written(tmp_path, monkeypatch):
    parent = _tree(tmp_path / "parent", {"src/pkg/a.py": "a = 1\nb = 2\n", "src/pkg/sub/b.py": "c = 3\n",
                                         "src/pkg/notes.txt": "x\ny\n", "tools/t.py": "d = 4\n"})
    rev = _commit(parent)
    change = _tree(tmp_path / "change", {"src/pkg/a.py": "a = 1\n", "src/c.py": "\n\n\nlast"})
    assert bench_pairs.src_lines(parent) == 3 and bench_pairs.src_lines(change) == 5
    monkeypatch.setattr(bench_pairs, "paired_workload", lambda *args: {})
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(parent), str(change), "--workloads", "dj", "--seeds", "1",
                             "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["src_lines"] == {"parent": 3, "change": 5}
    assert doc["src_code_lines"] == {"parent": 3, "change": 2}
    assert doc["parent"] == rev == bench_pairs.git_rev(parent)
    # a directory inside the checkout is not a checkout of its own
    assert bench_pairs.git_rev(parent / "src") is None


CODE_AND_PROSE = '''"""Module
docstring."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        s = """a string
        that is not a docstring"""
        return s
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines(tmp_path):
    # import, class, def, the two lines of s and return
    assert bench_pairs.code_lines(CODE_AND_PROSE) == 6
    root = _tree(tmp_path / "tree", {"src/pkg/a.py": CODE_AND_PROSE})
    assert bench_pairs.src_lines(root) == 16 and bench_pairs.src_code_lines(root) == 6


def test_a_parent_that_is_not_a_git_checkout_is_refused_before_any_run(tmp_path, monkeypatch, capsys):
    """An archive extract has no commit to name: the parent field would be
    null. It is refused, naming `git worktree add`, and nothing runs."""
    parent = _tree(tmp_path / "parent", {"src/pkg/a.py": "a = 1\n"})
    change = _tree(tmp_path / "change", {"src/pkg/a.py": "a = 1\n"})
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))    # wherever tmp_path lies
    assert bench_pairs.git_rev(parent) is None

    def no_run(*args):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(bench_pairs, "run_bench", no_run)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as err:
        bench_pairs.main([str(parent), str(change), "--workloads", "dj", "--seeds", "1", "--out", str(out)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert "is not the root of a git checkout" in message and "git worktree add" in message
    assert not out.exists()


# spans of two ops and set-up: row i is span i, parent -1 is none
SPANS = """name,start_s,end_s,parent,op
cli.emit,0.000000,0.001000,-1,-1
projmaps.RationalMap.__init__,0.010000,0.014000,-1,0
exactpoly.hpoly_gcd_many,0.011000,0.013000,1,0
exactpoly.hpoly_gcd,0.020000,0.026000,-1,1
exactpoly.hpoly_gcd_many,0.021000,0.025000,3,1
exactpoly.hpoly_gcd_many,0.022000,0.023000,4,1
exactpoly.bform_gcd,0.023500,0.024500,4,1
exactpoly.hpoly_gcd_many,0.024000,0.024500,6,1
exactpoly.hpoly_gcd_many,0.030000,0.031000,-1,-2
"""


def test_inclusive_time_sums_outermost_spans_of_a_name_over_ops(tmp_path):
    """hpoly_gcd_many: 2 ms in op 0, and 4 ms in op 1 whose two nested
    spans (one directly, one under bform_gcd) are not counted again; set-up
    (-1) and warm-up (-2) spans are left out."""
    path = tmp_path / "spans.csv"
    path.write_text(SPANS, encoding="utf-8")
    found = bench_pairs.inclusive_ms(path)
    assert found.keys() == {"projmaps.RationalMap.__init__", "exactpoly.hpoly_gcd_many",
                            "exactpoly.hpoly_gcd", "exactpoly.bform_gcd"}
    assert found["exactpoly.hpoly_gcd_many"] == pytest.approx(6.0)
    assert found["projmaps.RationalMap.__init__"] == pytest.approx(4.0)
    assert found["exactpoly.hpoly_gcd"] == pytest.approx(6.0)
    assert found["exactpoly.bform_gcd"] == pytest.approx(1.0)


def test_raw_self_time_is_duration_less_child_spans_over_set_up_and_ops(tmp_path):
    """Of SPANS: cli.emit 1 (set-up), RationalMap.__init__ 4 - 2, its child
    2, hpoly_gcd 6 - 4, the gcd_many under it 4 - 1 - 1, then 1, bform_gcd
    1 - 0.5 and 0.5: 11 ms; the warm-up span (-2) is left out."""
    path = tmp_path / "spans.csv"
    path.write_text(SPANS, encoding="utf-8")
    assert bench_pairs.raw_self_ms(path) == pytest.approx(11.0)


def test_a_traced_layer_reports_its_inclusive_time_per_op(tmp_path, monkeypatch):
    """Raw inclusive time per op, and the same scaled by the run's scaled
    self time (here 11 ms per op over 2 ops) over its raw self time (11 ms):
    a scale of 2."""
    for side in ("parent", "change"):
        (tmp_path / side / ".bench_out").mkdir(parents=True)
        (tmp_path / side / ".bench_out" / "spans-dj.csv").write_text(SPANS, encoding="utf-8")
    metrics = {"exactpoly.hpoly_gcd_many.calls": 2.5, "exactpoly.hpoly_gcd_many.self_ms": 1.75,
               "cli.emit.calls": 0.5, "cli.emit.self_ms": 9.25,
               "bench.ops": 2, "bench.raw_p50_ms": 5.0, "bench.raw_tail_ms": 6.0}
    monkeypatch.setattr(bench_pairs, "run_bench", lambda *args: {
        "metrics": {name: {"value": v} for name, v in metrics.items()}})
    out = bench_pairs.traced_workload(str(tmp_path / "parent"), str(tmp_path / "change"), "dj", 1)
    assert out["exactpoly.hpoly_gcd_many"]["change"] == {
        "calls_per_op": 2.5, "self_ms_per_op": 1.75, "inclusive_ms_per_op": 6.0,
        "inclusive_raw_ms_per_op": 3.0}
    assert out["cli.emit"]["parent"]["inclusive_ms_per_op"] == 0.0      # its one span is set-up
    assert out["raw_to_scaled"] == {"parent": 2.0, "change": 2.0}
