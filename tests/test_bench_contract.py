"""Every function the benchmark's tracer wraps (perfbench/tracer.py, TRACED)
must be defined where the tracer looks for it; otherwise a traced benchmark
run fails with KeyError while installing its wrappers."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
