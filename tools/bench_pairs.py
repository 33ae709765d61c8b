"""Paired benchmark runs of two checkouts, written as one BENCH_*.json.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR \
        --workloads dj geiser bertini --seeds 131-140 --out BENCH_N.json \
        [--traced-seed 1]

For each workload and seed, `python3 perfbench/run.py --workload W --seed N
--seconds 25 --trace 0` runs once in each checkout, from its root, one run
at a time; the side that runs first alternates from seed to seed. Per
end-to-end metric (names and directions from the change's BENCHMARK.json)
the output holds both sides' medians, first and third quartiles, raw runs,
the number of seeds in which the change reads better and a verdict read
against the metric's bound (VERDICTS). With
--traced-seed N, one `--trace 1` run of each workload at seed N on each side
adds, as traced_<workload>_seed_<N>, the per-layer calls and self time per op
of every layer that ran, and its inclusive time per op, read from the spans
file that run writes (inclusive_ms): self time alone puts a kernel's work in
whichever wrapper calls it. The spans hold raw CPU times, which are not
scaled by the reference kernel, so the two sides' traced runs can fall in
different phases of the host's speed: inclusive_raw_ms_per_op is that raw
time, and inclusive_ms_per_op is it times the run's ratio of its summed
kernel-scaled self time to its summed raw span self time (raw_self_ms),
written as raw_to_scaled, comparable across sides as self time is. src_lines
gives each side's line count of
src/**/*.py, for the net lines a change adds or removes, and src_code_lines
the count of those lines that hold code: a token outside comments and
docstrings. PARENT_DIR must be the root of a git checkout (`git worktree
add` or `git clone`), whose commit the output names as parent; any other
directory is refused before a run starts.

Nothing is imported from perfbench/; the runs are subprocesses.
"""

import argparse
import ast
import csv
import io
import json
import os
import platform
import subprocess
import sys
import tokenize
from statistics import median, quantiles

SECONDS = 25
TIMEOUT_S = 900


def parse_seeds(text):
    """'131-140' or '1,2,5' (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_bench(checkout, workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _r(v):
    return round(v, 4)


VERDICTS = ("gain: the change won at least 9 in 10 pairs and the medians differ, in its favour, by more "
            "than the parent's IQR; worse: the change's median is worse than the parent's by more than the "
            "bound times the parent's median; unresolved: either side's IQR is wider than that, and not every "
            "change run beats every parent run; within bound: anything else")


def _iqr(runs):
    q = quantiles(runs, n=4) if len(runs) > 1 else [runs[0]] * 3
    return q[0], q[2]


def pairs_won(better, parent_runs, change_runs):
    sign = 1 if better == "higher" else -1
    return sum(1 for p, c in zip(parent_runs, change_runs) if sign * (c - p) > 0)


def verdict(better, bound, parent_runs, change_runs):
    """One of the VERDICTS for a metric whose end-to-end bound is a share of
    the parent's median, tested in that order."""
    sign = 1 if better == "higher" else -1
    won = pairs_won(better, parent_runs, change_runs)
    gap = sign * (median(change_runs) - median(parent_runs))     # > 0: the change reads better
    q1, q3 = _iqr(parent_runs)
    if 10 * won >= 9 * len(parent_runs) and gap > q3 - q1:
        return "gain"
    allowed = bound * abs(median(parent_runs))
    if -gap > allowed:
        return "worse"
    spread = max(q3 - q1 for q1, q3 in map(_iqr, (parent_runs, change_runs)))
    separated = min(sign * c for c in change_runs) > max(sign * p for p in parent_runs)
    return "unresolved" if spread > allowed and not separated else "within bound"


def summarize(better, bound, parent_runs, change_runs):
    """Medians, quartiles, raw runs, pairs won and verdict for one metric."""
    def iqr(runs):
        return [_r(q) for q in _iqr(runs)]
    return {
        "parent_median": _r(median(parent_runs)),
        "parent_iqr": iqr(parent_runs),
        "change_median": _r(median(change_runs)),
        "change_iqr": iqr(change_runs),
        "pairs_won": pairs_won(better, parent_runs, change_runs),
        "verdict": verdict(better, bound, parent_runs, change_runs),
        "parent_runs": [_r(v) for v in parent_runs],
        "change_runs": [_r(v) for v in change_runs],
    }


def paired_workload(parent, change, workload, seeds, end_to_end):
    results = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = (("parent", parent), ("change", change))
        for side, checkout in (order if i % 2 == 0 else order[::-1]):
            results[side].append(run_bench(checkout, workload, seed, 0))
            print(f"{workload} seed={seed} {side}: "
                  f"{json.dumps({k: round(v['value'], 4) for k, v in results[side][-1]['metrics'].items()})}",
                  file=sys.stderr)
    return {
        "seeds": seeds,
        "failed": {side: sum(r["failed"] for r in runs) for side, runs in results.items()},
        "correct": all(r["correct"] for runs in results.values() for r in runs),
        "metrics": {
            m["name"]: summarize(m["better"], m["bound"],
                                 *([r["metrics"][m["name"]]["value"] for r in results[side]]
                                   for side in ("parent", "change")))
            for m in end_to_end
        },
    }


# the op id of the worker's warm-up spans, which its self times leave out
WARMUP = -2


def _spans(path):
    """The rows (name, ms, parent, op) of a spans file (name,start_s,end_s,
    parent,op; row i is span i, and a parent precedes its children), ms
    being the span's duration."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        return [(name, (float(end) - float(start)) * 1000.0, int(parent), int(op))
                for name, start, end, parent, op in rows]


def inclusive_ms(path):
    """Per span name, the summed duration in ms of its spans in ops (op id
    >= 0) of a spans file, skipping a span nested in a span of the same
    name, so that recursion is not counted twice."""
    names, parents, totals = [], [], {}
    for name, ms, parent, op in _spans(path):
        outer = parent
        while outer >= 0 and names[outer] != name:
            outer = parents[outer]
        names.append(name)
        parents.append(parent)
        if outer < 0 and op >= 0:
            totals[name] = totals.get(name, 0.0) + ms
    return totals


def raw_self_ms(path):
    """The summed raw self time in ms of the spans of a spans file that the
    worker's self times count: set-up and ops, not warm-up. A span's self
    time is its duration less the durations of its child spans, which lie
    inside it."""
    spans = _spans(path)
    own = [ms for _name, ms, _parent, _op in spans]
    for _name, ms, parent, _op in spans:
        if parent >= 0:
            own[parent] -= ms
    return sum(o for o, (_name, _ms, _parent, op) in zip(own, spans) if op != WARMUP)


def traced_workload(parent, change, workload, seed):
    runs, inclusive, scale = {}, {}, {}
    for side, d in (("parent", parent), ("change", change)):
        runs[side] = metrics = run_bench(d, workload, seed, 1)["metrics"]
        spans = os.path.join(d, ".bench_out", f"spans-{workload}.csv")
        inclusive[side] = inclusive_ms(spans)
        scaled = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_ms")) \
            * metrics["bench.ops"]["value"]
        raw = raw_self_ms(spans)
        scale[side] = scaled / raw if raw else 0.0
    out = {"command": f"python3 perfbench/run.py --workload {workload} --seed {seed} "
                      f"--seconds {SECONDS} --trace 1"}
    layers = [name[:-len(".calls")] for name in runs["change"] if name.endswith(".calls")]
    for layer in layers:
        if any(runs[side].get(f"{layer}.calls", {"value": 0})["value"] for side in runs):
            out[layer] = {}
            for side in runs:
                raw = inclusive[side].get(layer, 0.0) / runs[side]["bench.ops"]["value"]
                out[layer][side] = {"calls_per_op": _r(runs[side][f"{layer}.calls"]["value"]),
                                    "self_ms_per_op": _r(runs[side][f"{layer}.self_ms"]["value"]),
                                    "inclusive_ms_per_op": _r(raw * scale[side]),
                                    "inclusive_raw_ms_per_op": _r(raw)}
    out["raw_to_scaled"] = {side: _r(scale[side]) for side in runs}
    for name in ("bench.raw_p50_ms", "bench.raw_tail_ms"):
        out[name] = {side: _r(runs[side][name]["value"]) for side in runs}
    return out


def _src_texts(checkout):
    """The text of each Python file under the checkout's src/."""
    for root, _dirs, files in os.walk(os.path.join(checkout, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    yield fh.read()


def src_lines(checkout):
    """Lines of the Python files under the checkout's src/."""
    return sum(sum(1 for _ in io.StringIO(text)) for text in _src_texts(checkout))


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(text):
    """Lines of Python source that hold a token outside comments and
    module, class or function docstrings; blank lines hold none."""
    docstrings = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.append(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _NOT_CODE or tok.type == tokenize.STRING and any(tok.start[0] in d for d in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def src_code_lines(checkout):
    """code_lines of the Python files under the checkout's src/: the lines
    a change adds or removes, not counting comments and docstrings."""
    return sum(code_lines(text) for text in _src_texts(checkout))


def git_rev(checkout):
    """The checkout's short commit hash, or None where it is not the root of
    a git checkout (a directory inside one names the enclosing commit)."""
    proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "--short", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    top, rev = proc.stdout.split()
    return rev if os.path.realpath(top) == os.path.realpath(checkout) else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 131-140 or 1,2,3")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--traced-seed", type=int, help="also compare one traced run of each workload at this seed")
    args = parser.parse_args(argv)
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    parent_rev = git_rev(parent)
    if parent_rev is None:
        parser.error(f"{parent} is not the root of a git checkout, so the output could not name the parent commit; "
                     f"check the parent out with `git worktree add DIR COMMIT` (or `git clone`)")
    with open(os.path.join(change, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]

    doc = {
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {SECONDS} --trace 0",
        "host": f"{os.cpu_count()}-core {platform.machine()}, Python {platform.python_version()}; "
                f"{len(args.seeds)} pairs per workload, alternating which side runs first",
        "parent": parent_rev,
        "src_lines": {"parent": src_lines(parent), "change": src_lines(change)},
        "src_code_lines": {"parent": src_code_lines(parent), "change": src_code_lines(change)},
        "pairs_won": "pairs of the same seed in which the change reads better; ties count for neither",
        "iqr": "first and third quartiles, Python statistics.quantiles(n=4), exclusive method",
        "verdict": VERDICTS,
        "workloads": {w: paired_workload(parent, change, w, args.seeds, end_to_end)
                      for w in args.workloads},
    }
    if args.traced_seed is not None:
        for w in args.workloads:
            doc[f"traced_{w}_seed_{args.traced_seed}"] = traced_workload(parent, change, w,
                                                                         args.traced_seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
