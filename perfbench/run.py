"""Benchmark of planecremona: workloads geiser, bertini and dj.

    python3 perfbench/run.py --workload geiser --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The inputs come from --seed only; the
package is imported from the checkout's src/ in fresh interpreters (one
untimed warm-up, four set-up-only runs, the measured run). Every answer is
checked outside the timed region by code that does not use the package.
With --trace 0 the last line of output is the end-to-end result; with
--trace 1 a second, traced run over the same ops gives the per-layer numbers.
See perfbench/README.md for the workloads, metrics and timing rule.
"""

import argparse
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from statistics import median

import check
import gen
import tracer
from worker import OP_LIMIT_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_RUNS = 4                 # set-up-only interpreters, besides the measured one
CHILD_TIMEOUT_S = 170
TAIL_BEYOND = 10               # ops ranked above the tail percentile

# Structural inputs (configurations, DJ curves and centers) are drawn from
# POOL_SEED, the same in every run: their costs differ by up to 4x between
# draws, which no affordable number of them per run averages out. --seed
# draws the evaluation points and the order of each dj round.
POOL_SEED = 9907028
GEISER_CONFIGS, GEISER_POINTS = 6, 25         # per round: a fit and the evals, per config
BERTINI_CONFIGS, BERTINI_POINTS = 8, 2        # per round: evals per config
DJ_DEGREES = range(3, 8)
# scaled CPU seconds of one round on the reference machine; --seconds sets
# the number of rounds, so every run of a workload does the same work
ROUND_S = {"geiser": 12.5, "bertini": 6.0, "dj": 12.5}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _surface_workload(pool, rnd, kind, rounds):
    """Per round and configuration: the Geiser fit, then evaluations."""
    n, degree, singular, nconf, npts = (
        (7, 3, False, GEISER_CONFIGS, GEISER_POINTS) if kind == "geiser"
        else (8, 6, True, BERTINI_CONFIGS, BERTINI_POINTS))
    configs = [gen.point_config(pool, n) for _ in range(nconf)]
    systems = [gen.linear_system(c, degree, singular) for c in configs]
    ops, expects = [], []
    for _ in range(rounds):
        for i, pts in enumerate(configs):
            if kind == "geiser":
                ops.append(["interp", i])
                expects.append({"kind": "interp", "config": i,
                                "samples": gen.eval_points(rnd, 3, set(pts))})
            for x in gen.eval_points(rnd, npts, set(pts)):
                ops.append(["eval", i, list(x)])
                expects.append({"kind": "eval", "config": i, "x": x})
    warm = gen.eval_points(rnd, 1, set(configs[0]))[0]
    job = {"configs": configs, "ops": ops, "warmup": [["eval", 0, list(warm)]]}
    return job, expects, {"configs": configs, "systems": systems, "order": 2 if singular else 1}


def _cli(argv):
    return ["cli", list(argv) + ["--json"]]


def _dj_workload(pool, rnd, rounds):
    """Per round, one instance per degree: dj, verify and classify in the
    order a user chains them; then one perturbed map per degree and the
    lattice subcommands."""
    os.makedirs(OUT, exist_ok=True)
    matrix_files = {}
    for n in (7, 8):
        path = os.path.join(OUT, f"anti_k_{n}.txt")
        m = gen.anti_reflection(n)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{n + 1}\n" + "\n".join(" ".join(map(str, row)) for row in m) + "\n")
        matrix_files[n] = path
    ops, expects = [], []
    for _ in range(rounds):
        chains, singles = [], []
        for d in DJ_DEGREES:
            curve, center, sigma = gen.dj_instance(pool, d)
            text = ";".join(gen.ptext(f) for f in sigma)
            chains.append([
                (_cli(["dj", "--curve", gen.ptext(curve), "--p", "({}:{}:{})".format(*center)]),
                 {"kind": "dj", "d": d, "sigma": sigma}),
                (_cli(["verify", "--map", text]), {"kind": "verify", "d": d, "sigma": sigma}),
                (_cli(["classify", "--map", text]), {"kind": "classify", "d": d, "sigma": sigma})])
            text = ";".join(gen.ptext(f) for f in gen.perturbed(sigma))
            singles.append((_cli(["verify", "--map", text]), {"kind": "not_involutive"}))
        for n in (6, 7, 8):
            singles.append((_cli(["lattice", "exceptionals", "--n", str(n)]),
                            {"kind": "exceptionals", "n": n}))
        for n in (7, 8):
            singles.append((_cli(["lattice", "classify", "--n", str(n), "--matrix-file", matrix_files[n]]),
                            {"kind": "lattice_classify", "n": n}))
        # --seed only orders the round: the chains, then the single calls
        rnd.shuffle(chains)
        rnd.shuffle(singles)
        for op, expect in [pair for chain in chains for pair in chain] + singles:
            ops.append(op)
            expects.append(expect)
    warm = [_cli(["lattice", "exceptionals", "--n", "6"]), _cli(["verify", "--map", "x;y;z"])]
    return {"ops": ops, "warmup": warm}, expects, {}


def build(workload, seed, seconds):
    """The job for the worker, the expectation of every op, and what the
    checks need."""
    pool, rnd = random.Random(POOL_SEED), random.Random(seed)
    rounds = max(1, round(seconds / ROUND_S[workload]))
    if workload == "dj":
        job, expects, ctx = _dj_workload(pool, rnd, rounds)
    else:
        job, expects, ctx = _surface_workload(pool, rnd, workload, rounds)
    job.update(workload=workload, src=SRC)
    return job, expects, ctx


def correct(expect, op, ctx):
    if op["error"] is not None or op["raw_ms"] * op["scale"] > OP_LIMIT_S * 1000.0:
        return False
    answer = op["answer"]
    kind = expect["kind"]
    if kind == "eval":
        i = expect["config"]
        return check.image_ok(ctx["systems"][i], set(ctx["configs"][i]), expect["x"],
                              answer["image"], ctx["order"])
    if kind == "interp":
        if answer["degree"] != 8:
            return False
        i = expect["config"]
        comps = [{tuple(e): Fraction(num, den) for e, num, den in comp}
                 for comp in answer["components"]]
        return check.map_ok(ctx["systems"][i], set(ctx["configs"][i]), comps, expect["samples"],
                            ctx["order"])
    return check.cli_ok(expect, answer)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def run_worker(job, timeout=CHILD_TIMEOUT_S):
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          timeout=timeout, env=env, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def summarize(ops, expects, ctx):
    """Scaled per-op times, correctness and the end-to-end figures."""
    times = [op["raw_ms"] * op["scale"] for op in ops]
    oks = [correct(e, op, ctx) for e, op in zip(expects, ops)]
    n = len(ops)
    if n <= TAIL_BEYOND:
        raise RuntimeError(f"only {n} ops ran; the tail needs more than {TAIL_BEYOND}")
    ranked = sorted(times)
    rank = n - TAIL_BEYOND                       # 1-based rank of the tail op
    return {
        "n": n,
        "ok": sum(oks),
        "oks": oks,
        "p50_ms": median(times),
        "tail_ms": ranked[rank - 1],
        "tail_pct": 100.0 * rank / n,
        "raw_p50_ms": median(op["raw_ms"] for op in ops),
        "raw_tail_ms": sorted(op["raw_ms"] for op in ops)[rank - 1],
        "ok_per_s": sum(oks) / (sum(times) / 1000.0),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("geiser", "bertini", "dj"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "planecremona")):
        print(f"error: no package at {SRC}/planecremona", file=sys.stderr)
        return 2

    job, expects, ctx = build(args.workload, args.seed, args.seconds)
    run_worker(dict(job, setup_only=True))                   # warm-up: compiles .pyc files
    setups = [run_worker(dict(job, setup_only=True))
              for _ in range(SETUP_RUNS if args.trace == 0 else 0)]
    main_run = run_worker(job)
    setups.append(main_run)
    setup_s = median(s["setup_raw_s"] * s["setup_scale"] for s in setups)
    ops = main_run["ops"]
    stats = summarize(ops, expects, ctx)
    failed = stats["n"] - stats["ok"]
    unexpected = [i for i, ok in enumerate(stats["oks"])
                  if not ok and not check.known_defect(expects[i], ops[i])]

    print(f"workload={args.workload} seed={args.seed} ops={stats['n']} ok={stats['ok']} "
          f"failed={failed} tail=p{stats['tail_pct']:.2f} ({TAIL_BEYOND} ops beyond it) "
          f"raw_p50_ms={stats['raw_p50_ms']:.3f} kernel_ms={median(main_run['kernel_ms']):.4f}")
    for i, (op, ok) in enumerate(zip(ops, stats["oks"])):
        if not ok:
            label = "unexpected failure" if i in unexpected else "known defect"
            print(f"  {label}: op {i} ({expects[i]['kind']}): "
                  f"{op['error'] or json.dumps(op['answer'])[:160]}")

    if args.trace == 0:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_ms": (stats["p50_ms"], "ms"),
            "op_tail_ms": (stats["tail_ms"], "ms"),
            "ok_per_s": (stats["ok_per_s"], "1/s"),
            "ok_share": (stats["ok"] / stats["n"], "share"),
            "peak_rss_mb": (main_run["maxrss_kb"] / 1024.0, "MB"),
        }
    else:
        os.makedirs(OUT, exist_ok=True)
        traced = run_worker(dict(job, trace=True, spans_out=os.path.join(OUT, f"spans-{args.workload}.csv")))
        tstats = summarize(traced["ops"], expects, ctx)
        n = tstats["n"]
        metrics = {}
        total_self = 0.0
        for name in tracer.NAMES:
            layer = traced["layers"][name]
            metrics[f"{name}.calls"] = (layer["calls"] / n, "1/op")
            metrics[f"{name}.self_ms"] = (layer["self_ms"] / n, "ms/op")
            total_self += layer["self_ms"]
        evals = [op for e, op in zip(expects, traced["ops"]) if e["kind"] == "eval" and op["error"] is None]
        metrics["involutions.eval_attempts"] = (
            sum(op["answer"]["attempts"] for op in evals) / len(evals) if evals else 0.0, "1/eval")
        traced_total = sum(op["raw_ms"] * op["scale"] for op in traced["ops"])
        setup_traced = traced["setup_raw_s"] * traced["setup_scale"] * 1000.0
        metrics.update({
            "bench.raw_p50_ms": (stats["raw_p50_ms"], "ms"),
            "bench.raw_tail_ms": (stats["raw_tail_ms"], "ms"),
            "bench.ref_kernel_ms": (median(main_run["kernel_ms"]), "ms"),
            "bench.trace_overhead": (stats["ok_per_s"] / tstats["ok_per_s"] if tstats["ok"] else 0.0, "x"),
            "bench.failed_share": (failed / stats["n"], "share"),
            "bench.ops": (stats["n"], "count"),
            "bench.tail_pct": (stats["tail_pct"], "%"),
            "bench.self_covered_share": (total_self / (traced_total + setup_traced), "share"),
            "bench.kernel_samples_per_op": (median(op["samples"] for op in ops), "1/op"),
        })

    result = {
        "correct": not unexpected,
        "attempted": stats["n"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
