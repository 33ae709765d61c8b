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
of every layer that ran. src_lines gives each side's line count of
src/**/*.py, for the net lines a change adds or removes. PARENT_DIR must be
the root of a git checkout (`git worktree add` or `git clone`), whose commit
the output names as parent; any other directory is refused before a run
starts.

Nothing is imported from perfbench/; the runs are subprocesses.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
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


def traced_workload(parent, change, workload, seed):
    runs = {side: run_bench(d, workload, seed, 1)["metrics"]
            for side, d in (("parent", parent), ("change", change))}
    out = {"command": f"python3 perfbench/run.py --workload {workload} --seed {seed} "
                      f"--seconds {SECONDS} --trace 1"}
    layers = [name[:-len(".calls")] for name in runs["change"] if name.endswith(".calls")]
    for layer in layers:
        if any(runs[side].get(f"{layer}.calls", {"value": 0})["value"] for side in runs):
            out[layer] = {
                side: {"calls_per_op": _r(runs[side][f"{layer}.calls"]["value"]),
                       "self_ms_per_op": _r(runs[side][f"{layer}.self_ms"]["value"])}
                for side in runs
            }
    for name in ("bench.raw_p50_ms", "bench.raw_tail_ms"):
        out[name] = {side: _r(runs[side][name]["value"]) for side in runs}
    return out


def src_lines(checkout):
    """Lines of the Python files under the checkout's src/."""
    total = 0
    for root, _dirs, files in os.walk(os.path.join(checkout, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


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
