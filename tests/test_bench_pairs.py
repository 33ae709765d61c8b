"""The seed parser, the per-metric summary and the src/ line counts of
tools/bench_pairs.py, which writes the BENCH_*.json files; the runs
themselves are not exercised."""

import importlib.util
import json
from pathlib import Path

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
    assert bench_pairs.summarize("higher", parent, change)["pairs_won"] == 2
    assert bench_pairs.summarize("lower", parent, change)["pairs_won"] == 1
    assert bench_pairs.summarize("higher", parent, parent)["pairs_won"] == 0


def test_summary_of_one_run_has_a_degenerate_iqr():
    s = bench_pairs.summarize("lower", [2.5], [2.0])
    assert s["parent_iqr"] == [2.5, 2.5] and s["change_iqr"] == [2.0, 2.0]
    assert s["parent_median"] == 2.5 and s["change_median"] == 2.0
    assert s["pairs_won"] == 1


def _tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}), encoding="utf-8")
    return root


def test_src_lines_of_both_checkouts_are_written(tmp_path, monkeypatch):
    parent = _tree(tmp_path / "parent", {"src/pkg/a.py": "a = 1\nb = 2\n", "src/pkg/sub/b.py": "c = 3\n",
                                         "src/pkg/notes.txt": "x\ny\n", "tools/t.py": "d = 4\n"})
    change = _tree(tmp_path / "change", {"src/pkg/a.py": "a = 1\n", "src/c.py": "\n\n\nlast"})
    assert bench_pairs.src_lines(parent) == 3 and bench_pairs.src_lines(change) == 5
    monkeypatch.setattr(bench_pairs, "paired_workload", lambda *args: {})
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(parent), str(change), "--workloads", "dj", "--seeds", "1",
                             "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["src_lines"] == {"parent": 3, "change": 5}
