"""What the benchmark (perfbench/) needs of the package. Every function its
tracer wraps (perfbench/tracer.py, TRACED) must be defined where the tracer
looks for it; otherwise a traced benchmark run fails with KeyError while
installing its wrappers. Every point configuration it draws must pass
make_point_config, or the worker fails while setting up. And the worker
must run its ops on the package and get answers its checker accepts."""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _load_tracer()
    missing = []
    for modname, path in tracer.TRACED:
        owner, attr = tracer._resolve(importlib.import_module(f"planecremona.{modname}"), path)
        if attr not in owner.__dict__:
            missing.append(f"{modname}.{path}")
    assert missing == []


def _load_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_benchmark_configurations_pass_the_gate(monkeypatch):
    from planecremona.involutions import make_point_config
    from planecremona.projmaps import ProjPoint

    run = _load_run(monkeypatch)
    for kind in ("geiser", "bertini"):
        _job, _expects, ctx = run.build(kind, seed=1, seconds=1)
        assert ctx["configs"]
        for pts in ctx["configs"]:
            make_point_config([ProjPoint(*p) for p in pts], kind)


def test_the_worker_runs_each_op_kind_and_its_answers_check(monkeypatch, tmp_path):
    """One configuration per surface workload: a Geiser eval and fit, a
    Bertini eval; and one dj op of each expectation kind. Each is run
    through the worker in a fresh interpreter and checked by run.correct.
    The dj workload writes its matrix files under run.OUT, here tmp_path."""
    run = _load_run(monkeypatch)
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    for kind, wanted in (("geiser", ("interp", "eval")), ("bertini", ("eval",))):
        job, expects, ctx = run.build(kind, seed=1, seconds=1)
        keep = [next(i for i, op in enumerate(job["ops"]) if op[0] == k and op[1] == 0) for k in wanted]
        job.update(configs=job["configs"][:1], ops=[job["ops"][i] for i in keep])
        ops = run.run_worker(job)["ops"]
        assert [op["error"] for op in ops] == [None] * len(keep)
        assert all(run.correct(expects[i], op, ctx) for i, op in zip(keep, ops))
    job, expects, ctx = run.build("dj", seed=1, seconds=1)
    wanted = ("dj", "verify", "classify", "not_involutive", "exceptionals", "lattice_classify")
    keep = [next(i for i, e in enumerate(expects) if e["kind"] == k) for k in wanted]
    job.update(ops=[job["ops"][i] for i in keep])
    ops = run.run_worker(job)["ops"]
    assert [op["error"] for op in ops] == [None] * len(keep)
    assert [run.correct(expects[i], op, ctx) for i, op in zip(keep, ops)] == [True] * len(keep)
