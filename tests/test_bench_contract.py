"""What the benchmark (perfbench/) needs of the package. Every function its
tracer wraps (perfbench/tracer.py, TRACED) must be defined where the tracer
looks for it; otherwise a traced benchmark run fails with KeyError while
installing its wrappers. Every point configuration it draws must pass
make_point_config, or the worker fails while setting up."""

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


def test_benchmark_configurations_pass_the_gate(monkeypatch):
    from planecremona.involutions import make_point_config
    from planecremona.projmaps import ProjPoint

    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    for kind in ("geiser", "bertini"):
        _job, _expects, ctx = run.build(kind, seed=1, seconds=1)
        assert ctx["configs"]
        for pts in ctx["configs"]:
            make_point_config([ProjPoint(*p) for p in pts], kind)
