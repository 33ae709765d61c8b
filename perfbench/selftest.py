"""Smoke test of the answer checker at the smallest size.

    python3 perfbench/selftest.py

Evaluates the first pool Geiser configuration at 3 points through the
worker, then shows that the checker accepts those images and rejects a wrong
image (another point of the plane, a base point, x itself) and wrong CLI
answers (a wrong DJ label, a wrong count of exceptional classes). Exits 0 when
every expectation holds.
"""

import random
import sys

import check
import gen
import run


def main():
    pool, rnd = random.Random(run.POOL_SEED), random.Random(1)
    job, expects, ctx = run._surface_workload(pool, rnd, "geiser", 1)
    keep = [i for i, op in enumerate(job["ops"]) if op[0] == "eval" and op[1] == 0][:3]
    job.update(workload="geiser", src=run.SRC, configs=job["configs"][:1],
               ops=[job["ops"][i] for i in keep])
    expects = [expects[i] for i in keep]
    ops = run.run_worker(job)["ops"]
    base = ctx["configs"][0]
    failures = []

    def expect(name, got, want):
        if got != want:
            failures.append(name)
        print(f"{'ok  ' if got == want else 'FAIL'} {name}: {got}")

    for e, op in zip(expects, ops):
        x, y = e["x"], tuple(op["answer"]["image"])
        expect(f"image of {x} accepted", run.correct(e, op, ctx), True)
        for wrong, label in ((gen.canonical_point((y[0] + 1, y[1], y[2])), "moved image"),
                             (base[0], "base point"), (x, "x itself")):
            bad = dict(op, answer=dict(op["answer"], image=list(wrong)))
            expect(f"{label} for {x} rejected", run.correct(e, bad, ctx), False)

    label = {"code": 0, "out": '{"label": "DJ(4)", "invariant": null}'}
    expect("DJ(4) accepted for d = 4", check.cli_ok({"kind": "classify", "d": 4}, label), True)
    expect("DJ(4) rejected for d = 3", check.cli_ok({"kind": "classify", "d": 3}, label), False)
    count = {"code": 0, "out": '{"count": 56}'}
    expect("56 classes rejected for n = 8", check.cli_ok({"kind": "exceptionals", "n": 8}, count), False)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
