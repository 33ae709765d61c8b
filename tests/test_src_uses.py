"""The package ships only what a command runs.

The test replays the golden command-line corpus (tests/data/cli_golden.json)
under sys.setprofile and records the code objects entered. Every function of
src/planecremona must be among them: each module-level function (unwrapped,
so that functools.cache functions count), and each function, property getter,
cached property, staticmethod and classmethod of a class, dunders aside. A
definition no command enters has no use: it is dead code, unless the
allow-list says why it stays. Code whose file is not a module of
src/planecremona, such as the _make, _asdict and _replace that NamedTuple
takes from collections, is not counted. The four oracle calls at n = 7 and
8 are not replayed: they take most of the replay's time, and the oracle
runs at n <= 6.
"""

import importlib
import inspect
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache, cached_property
from pathlib import Path

from planecremona.cli import run

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "planecremona"
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"

# module.name of each definition that stays though no command enters it, and why
ALLOWED = {
    "cli.main",                                 # the console script of pyproject.toml
    "exactpoly.resultant",                      # the elimination that ROADMAP items 9 and 13 build on
    "exactpoly._bareiss_det",                   # resultant's determinant (items 9 and 13)
    "exactpoly.HPoly.coeffs_by_var",            # resultant's coefficients in the eliminated variable (items 9 and 13)
    "exactpoly.HPoly.substitute",               # perfbench/tracer.py traces it (TRACED); it goes with item 8
    "exactpoly._power_table",                   # substitute's powers (TRACED, item 8)
    "projmaps.compose",                         # TRACED; it goes with item 8
    "projmaps.RationalMap.identity",            # compose's unit (TRACED, item 8)
    "involutions.GeiserInvolution.fixed_sextic",  # perfbench/worker.py reads it; item 8
    "fixedcurve._unknown",                      # refuses an argument that is neither a construction nor a map
    "projmaps.PencilForm._key",                 # read by __eq__, __hash__ and __repr__, which are not counted
    "picard.LatticeInvolution._key",            # read by __eq__, __hash__ and __repr__, which are not counted
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _member_code(value):
    """The code object behind a class member, or None if it has none."""
    if isinstance(value, (staticmethod, classmethod)):
        value = value.__func__
    elif isinstance(value, property):
        value = value.fget
    elif isinstance(value, cached_property):
        value = value.func
    return value.__code__ if inspect.isfunction(value) else None


def _modules():
    return [importlib.import_module(f"planecremona.{path.stem}")
            for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]


def _definitions():
    """module.name -> code object of every counted definition in src/, each
    under the module whose file holds its code: an imported name is counted
    where it is defined."""
    out = {}
    for module in _modules():
        stem = module.__name__.rpartition(".")[2]
        found = {}
        for name, value in vars(module).items():
            target = inspect.unwrap(value)
            if inspect.isfunction(target):
                found[name] = target.__code__
            elif inspect.isclass(value):
                found.update((f"{name}.{member}", _member_code(attr))
                             for member, attr in vars(value).items() if not _is_dunder(member))
        out.update((f"{stem}.{name}", code) for name, code in found.items()
                   if code is not None and code.co_filename == module.__file__)
    return out


def _clear_caches():
    """Empty every functools.cache of src/: a cached wrapper enters its
    function only on a miss, so an earlier test could hide its use."""
    for module in _modules():
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _replayed(argv):
    return not ("--oracle" in argv and argv[argv.index("--n") + 1] in ("7", "8"))


@cache
def _idle():
    """Names of the definitions that the golden calls never enter."""
    calls = [call["argv"] for call in json.loads(GOLDEN.read_text(encoding="utf-8"))]
    _clear_caches()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    cwd, previous = os.getcwd(), sys.getprofile()
    os.chdir(ROOT)  # the corpus reads data/ by relative paths
    sys.setprofile(profile)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            for argv in filter(_replayed, calls):
                run(list(argv))
    finally:
        sys.setprofile(previous)
        os.chdir(cwd)
    return {name for name, code in _definitions().items() if code not in entered}


def test_every_definition_in_src_has_a_use_in_src():
    assert _idle() - ALLOWED == set()


def test_the_allow_list_names_only_unused_definitions():
    assert ALLOWED <= _idle()
