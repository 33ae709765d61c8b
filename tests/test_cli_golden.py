"""Byte-for-byte replay of the command line against stored output.

tests/data/cli_golden.json holds, for each call, its argv, its exit code and
its stdout. The test replays every call in process, from the repository
root so that the relative paths of data/ resolve, and compares both byte for
byte. A change meant to leave the output alone passes it unchanged; a change
meant to alter the output regenerates the file, from the repository root,
and shows the difference in review:

    PYTHONPATH=src:. python tests/test_cli_golden.py
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import jsonschema

from planecremona.cli import run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"


def replay(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(list(argv))
    return code, buf.getvalue()


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_calls_hold_no_absolute_path():
    for call in _golden():
        for text in call["argv"] + [call["stdout"]]:
            assert not text.startswith("/") and str(ROOT) not in text


def test_cli_output_matches_the_golden_file(monkeypatch):
    monkeypatch.chdir(ROOT)
    mismatches = []
    for call in _golden():
        code, out = replay(call["argv"])
        if (code, out) != (call["code"], call["stdout"]):
            mismatches.append(" ".join(call["argv"]))
    assert not mismatches, f"{len(mismatches)} calls differ, first: {mismatches[0]}"


def _json_calls():
    for call in _golden():
        if call["argv"][-1] == "--json":
            yield call, json.loads(call["stdout"])


def test_every_golden_payload_fits_the_schema():
    schema = json.loads((ROOT / "schema" / "cli_output.schema.json").read_text(encoding="utf-8"))
    validator = jsonschema.Draft7Validator(schema)
    for call, payload in _json_calls():
        errors = list(validator.iter_errors(payload))
        assert not errors, f"{' '.join(call['argv'])}: {errors[0].message}"


def test_invariant_prints_classify_without_the_note():
    """Every argv stored under both invariant and classify gives the same
    exit code and output, less classify's note, errors included."""
    stored = {tuple(call["argv"]): call for call in _golden()}
    twins = 0
    for argv, call in stored.items():
        twin = stored.get(("classify",) + argv[1:]) if argv[0] == "invariant" else None
        if twin is None:
            continue
        twins += 1
        assert call["code"] == twin["code"], " ".join(argv)
        if argv[-1] == "--json":
            payload = json.loads(twin["stdout"])
            payload.pop("note", None)
            expected = json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
        else:
            expected = "".join(line for line in twin["stdout"].splitlines(True)
                               if not line.startswith("note: "))
        assert call["stdout"] == expected, " ".join(argv)
    assert twins == 76


def test_no_payload_has_a_seed():
    for call, payload in _json_calls():
        assert "seed" not in payload, " ".join(call["argv"])


# ---------------------------------------------------------------------------
# the calls, each run without and with --json
# ---------------------------------------------------------------------------

CONIC_MAP = "x*y;x*z;y*z"
RAW_MAPS = (
    CONIC_MAP,                      # de Jonquieres, center (0:1:0), fixing the conic xz = y^2
    "y*z;x*z;x*y",                  # the standard quadratic involution (1/x : 1/y : 1/z)
    "y;x;z",                        # a linear involution
    "-x;y;z",                       # a linear involution fixing a line
    "-y;-x;z",                      # a linear involution, negative lead
    "x;y;z",                        # the identity
    "y;z;x",                        # linear, not involutive
    "x^2;y^2;z^2",                  # not birational
    "2*x*y;2*x*z;2*y*z",            # the first, scaled
    "1/2*x*y;1/2*x*z;1/2*y*z",      # the first, scaled by a fraction
    "2/3*x*y;x*z;-y*z",             # rational coefficients
    "0;-y;z",                       # a zero first component
    "x*y;x*z/3;y*z",                # malformed: '/3' after a variable
    "x;y^2;z",                      # inhomogeneous
    "0;0;0",                        # the zero map
    "x;y",                          # two components
)


def _dj_calls():
    from planecremona.exactpoly import format_hpoly
    from planecremona.involutions import validate_dj
    from tests.streams import make_dj_instance

    argvs, maps = [], []
    for d in range(2, 7):
        for seed in range(3):
            curve, center = make_dj_instance(d, seed)
            given = ["--curve", format_hpoly(curve), "--p", str(center)]
            argvs += [["dj"] + given, ["invariant"] + given, ["classify"] + given]
            if seed == 0:
                maps.append(";".join(map(format_hpoly, validate_dj(curve, center).map.components)))
    return argvs, maps


def calls():
    """Every stored argv, before --json is appended."""
    out, dj_maps = _dj_calls()
    out += [
        ["dj-conic", "--q", "x*z - y^2", "--p", "(0:1:0)"],
        ["dj-conic", "--q", "x^2 + y^2 - 2*z^2", "--p", "(0:0:1)"],
        ["dj-conic", "--q", "x*z - y^2", "--p", "(1:1:1)"],             # on the conic
        ["dj-conic", "--q", "x*y*z", "--p", "(1:1:1)"],                 # not a conic
        ["dj", "--curve", "x*y^2 + z^2*y + x^3 + z^3", "--p", "(1/2:0:3)"],
        ["dj", "--curve", "x*y^2 + z^2*y + x^3 + z^3", "--p", "(0:0:0)"],
        ["dj", "--curve", "x +", "--p", "(0:1:0)"],
        ["dj", "--curve", "x*y", "--p", "(0:1)"],
        # validate_dj's refusals, in the order of its checks
        ["dj", "--curve", "x^2*y^2 + z^3*y + x^2*z^2 + z^4", "--p", "(0:1:0)"],   # non-ordinary
        ["dj", "--curve", "x*y^2 + x*z*y + x*z^2", "--p", "(0:1:0)"],           # line through center
        ["dj", "--curve", "y^2 + 2*x*y + x^2", "--p", "(0:1:0)"],               # zero discriminant
        ["dj", "--curve", "z*y^2 - x^3 - x^2*z", "--p", "(0:1:0)"],             # extra singularities
    ]
    for name in ("geiser", "bertini"):
        out += [
            [name, "--builtin"],
            [name, "--builtin", "--x", "(2:3:7)"],
            [name, "--builtin", "--x", "(-1/2:1:5)"],
            [name, "--builtin", "--x", "(1:0:0)"],                      # a base point
            [name],                                                     # no configuration
        ]
    out.append(["geiser", "--builtin", "--x", "(1:2:-1)"])               # fixed: configs.SEXTIC_POINT
    out += [
        ["geiser", "--builtin", "--interpolate"],
        ["geiser", "--points", "data/points7.txt", "--x", "(3:-2:5)"],
        ["bertini", "--points", "data/points8.txt", "--x", "(3:-2:5)"],
        ["geiser", "--points", "data/points8.txt"],                     # eight points
        ["bertini", "--points", "data/points7.txt"],                    # seven points
        ["geiser", "--points", "data/absent.txt"],
    ]
    for m in RAW_MAPS + tuple(dj_maps):
        for cmd in ("verify", "fixed-curve", "classify", "invariant"):
            out.append([cmd, f"--map={m}"])
    out += [
        ["verify"],
        ["fixed-curve", "--map-file", "data/absent.json"],
        ["verify", "--map-file", "data/points7.txt"],                   # not JSON
        ["verify", "--map-file", "tests/data/conic_map.json"],
        ["classify", "--map-file", "tests/data/conic_map.json"],
    ]
    # the closed-form Geiser map of the builtin 7 points (geiser --builtin --interpolate)
    out += [[cmd, "--map-file", "tests/data/geiser7_map.json"]
            for cmd in ("verify", "fixed-curve", "classify", "invariant")]
    out += [
        ["classify", "--builtin", "--kind", "geiser"],
        ["invariant", "--builtin", "--kind", "geiser"],
        ["invariant", "--points", "data/points7.txt", "--kind", "geiser"],
        ["invariant", "--builtin"],                                     # no kind
        ["classify"],
    ]
    for n in range(10):
        out += [["lattice", "make", "--n", str(n)], ["lattice", "reflect", "--n", str(n)]]
    out += [
        ["lattice"],                                                    # no action
        ["lattice", "make", "--quadric"],
        ["lattice", "reflect", "--quadric"],
        ["lattice", "make"],
        ["lattice", "make", "--n", "-1"],
        ["lattice", "reflect", "--n", "3", "--alpha", "1,0,0,0"],
        ["lattice", "reflect", "--n", "3", "--alpha", "0,1,-1,0"],
        ["lattice", "reflect", "--n", "3", "--alpha", "0,1,-1,0,5"],
        ["lattice", "reflect", "--n", "3", "--alpha", "1,a"],
        ["lattice", "exceptionals", "--quadric"],
        ["lattice", "exceptionals", "--n", "9"],
        ["lattice", "minimal", "--n", "3"],
        ["lattice", "classify", "--n", "3"],
        ["lattice", "classify", "--n", "3", "--matrix-file", "data/absent.txt"],
        ["lattice", "minimal", "--n", "3", "--matrix-file", "data/points7.txt"],
        ["lattice", "minimal", "--n", "7", "--matrix-file", "tests/data/lattice7_geiser.txt"],
        ["lattice", "classify", "--n", "7", "--matrix-file", "tests/data/lattice7_geiser.txt"],
        ["lattice", "classify", "--n", "8", "--matrix-file", "tests/data/lattice7_geiser.txt"],
        ["lattice", "minimal", "--n", "3", "--matrix-file", "tests/data/lattice3_nonminimal.txt"],
        ["lattice", "classify", "--n", "3", "--matrix-file", "tests/data/lattice3_nonminimal.txt"],
        ["lattice", "classify", "--quadric", "--matrix-file", "tests/data/quadric_swap.txt"],
    ]
    out += [["lattice", "exceptionals", "--n", str(n), "--oracle"] for n in range(1, 9)]
    # the anti-reflection in K at n = 8, and de Jonquieres pairs of degree 2, 3, 4
    for n, name in ((8, "bertini"), (3, "dj2"), (5, "dj3"), (7, "dj4")):
        for action in ("minimal", "classify"):
            out.append(["lattice", action, "--n", str(n), "--matrix-file", f"tests/data/lattice{n}_{name}.txt"])
    return out


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    stored = []
    for argv in calls():
        for full in (argv, argv + ["--json"]):
            code, out = replay(full)
            stored.append({"argv": full, "code": code, "stdout": out})
    GOLDEN.parent.mkdir(exist_ok=True)
    # one call per line, so that a change shows as the calls it changes
    lines = ",\n".join(json.dumps(c, sort_keys=True) for c in stored)
    GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"{len(stored)} calls, {sum(len(c['stdout']) for c in stored)} bytes of stdout")
