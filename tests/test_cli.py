import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from planecremona.cli import emit, parse_point, parse_poly, parse_map, run
from planecremona.errors import ValidationError
from planecremona.exactpoly import HPoly, format_hpoly, multiplicity_values
from planecremona.involutions import DEL_PEZZO
from planecremona.picard import exceptional_classes, make_lattice
from planecremona.projmaps import ProjPoint, RationalMap
from tests.streams import SplitMix64

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "schema" / "cli_output.schema.json").read_text()
)

X, Y, Z = (HPoly.variable(i) for i in range(3))


def run_json(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv + ["--json"])
    payload = json.loads(buf.getvalue())
    jsonschema.validate(payload, SCHEMA)
    return code, payload, buf.getvalue()


# -- parsing --------------------------------------------------------------------------

def test_parse_poly_examples():
    assert parse_poly("x*z - y^2") == (X * Z - Y * Y).canonical()
    f = parse_poly("3x^2y - 1/2z^3")
    assert f.degree == 3 and len(f.terms) == 2
    assert f == parse_poly("3*x^2*y - 1/2*z^3")


def test_parse_poly_inhomogeneous():
    with pytest.raises(ValidationError, match="degree|inhomogeneous"):
        parse_poly("x + y^2")


def test_parse_poly_syntax_errors():
    for bad in ("x +", "* x", "x^", "3/0 x", "x**y", ""):
        with pytest.raises(ValidationError):
            parse_poly(bad)


def test_parse_point_examples():
    assert parse_point("(0:1:0)") == ProjPoint(0, 1, 0)
    assert parse_point("(2:4:6)") == ProjPoint(1, 2, 3)
    assert parse_point("(1/2:0:3)").coords == (1, 0, 6)
    with pytest.raises(ValidationError):
        parse_point("(0:0:0)")
    with pytest.raises(ValidationError):
        parse_point("0:1:0")


def test_poly_print_parse_round_trip():
    from tests.test_exactpoly import random_poly

    stream = SplitMix64(59)
    for _ in range(40):
        f = random_poly(stream, stream.next_int(0, 4))
        if f.is_zero():
            continue
        f = f.canonical()
        assert parse_poly(format_hpoly(f)) == f


# -- commands --------------------------------------------------------------------------

def test_dj_conic_reproduces_standard_map():
    code, payload, _ = run_json(["dj-conic", "--q", "x*z - y^2", "--p", "(0:1:0)"])
    assert code == 0
    assert payload["components"] == ["x*y", "x*z", "y*z"]
    assert payload["invariant"]["kind"] == "empty"
    assert payload["label"] == "DJ(2)"
    assert set(payload["rational_base_points"]) == {"(0:1:0)", "(1:0:0)", "(0:0:1)"}


def test_dj_validation_failure_exit_code():
    code, payload, _ = run_json(["dj-conic", "--q", "x*z - y^2", "--p", "(1:1:1)"])
    assert code == 2
    assert "reason" in payload


def test_dj_higher_degree():
    code, payload, _ = run_json([
        "dj", "--curve", "x*y^2 + z^2*y + x^3 + z^3", "--p", "(0:1:0)",
    ])
    assert code == 0
    assert payload["degree"] == 3
    assert payload["invariant"] == {"kind": "hyperelliptic", "genus": 1, "source": "DJ(3)"}


def assert_fixed_curve_of_the_family(kind, payload):
    """The printed fixed curve has degree 3(m + 1) and multiplicity m + 1 at
    every printed point, for the m that DEL_PEZZO gives the family."""
    degree, mult = DEL_PEZZO[kind].fixed_curve
    curve = parse_poly(payload["fixed_curve"])
    assert curve.degree == degree
    points = [parse_point(p).coords for p in payload["points"]]
    assert not any(v for (v,) in multiplicity_values([curve], points, [mult] * len(points)))


def test_geiser_builtin_eval():
    code, payload, _ = run_json(["geiser", "--builtin", "--x", "(2:3:7)"])
    assert code == 0
    assert_fixed_curve_of_the_family("geiser", payload)
    assert payload["trace"] == {"attempts": 1}
    y = parse_point(payload["image"])
    code2, payload2, _ = run_json(["geiser", "--builtin", "--x", payload["image"]])
    assert parse_point(payload2["image"]) == ProjPoint(2, 3, 7)


def test_bertini_builtin_eval():
    code, payload, _ = run_json(["bertini", "--builtin", "--x", "(2:3:7)"])
    assert code == 0
    assert payload["points"][7] == "(4:-1:3)"
    assert_fixed_curve_of_the_family("bertini", payload)
    assert payload["trace"] == {"attempts": 1}
    assert payload["image"] == "(90248659568972575:140287127599959845:684641864192847228)"
    code, payload, _ = run_json(["bertini", "--builtin", "--x", payload["image"]])
    assert parse_point(payload["image"]) == ProjPoint(2, 3, 7)


def test_bertini_points_on_a_conic_exit_2(tmp_path):
    # the earlier reference set: points 0, 1, 2, 3, 6, 7 lie on a conic
    pf = tmp_path / "pts8.txt"
    pf.write_text("(1:0:0)\n(0:1:0)\n(0:0:1)\n(1:1:1)\n(1:2:3)\n(2:5:1)\n(3:1:2)\n(1:-1:2)\n")
    code, payload, _ = run_json(["bertini", "--points", str(pf), "--x", "(2:3:7)"])
    assert code == 2
    assert payload["reason"] == "degenerate configuration"


def test_points_file_parsing(tmp_path):
    pf = tmp_path / "pts.txt"
    pf.write_text("# comment line\n(1:0:0)\n(0:1:0)\n(0:0:1)\n(1:1:1)\n"
                  "(1:2:3)\n(2:5:1)\n(12:41:5)  # inline comment\n")
    code, payload, _ = run_json(["geiser", "--points", str(pf), "--x", "(2:3:7)"])
    assert code == 0


def test_data_files_mirror_the_reference_configurations():
    from planecremona.cli import parse_points_file
    from planecremona.configs import EIGHT_POINTS, SEVEN_POINTS

    data = Path(__file__).resolve().parents[1] / "data"
    for name, points in (("points7.txt", SEVEN_POINTS), ("points8.txt", EIGHT_POINTS)):
        assert parse_points_file(str(data / name)) == [ProjPoint(*p) for p in points]


def test_verify_involution_and_rejection(tmp_path):
    code, payload, _ = run_json(["verify", "--map", "x*y; x*z; y*z"])
    assert code == 0 and payload["involutive"]
    code, payload, _ = run_json(["verify", "--map", "y; z; x"])
    assert code == 2
    assert payload["reason"] == "not involutive"
    mf = tmp_path / "m.json"
    mf.write_text(json.dumps({"components": ["y", "z", "x"]}))
    code, payload, _ = run_json(["verify", "--map-file", str(mf)])
    assert code == 2 and payload["reason"] == "not involutive"


def test_map_components_are_rescaled_jointly(tmp_path):
    # each component canonicalised alone, -x;y;z would read as the identity
    code, payload, _ = run_json(["classify", "--map=-x;y;z"])
    assert code == 0 and payload["label"] == "DJ(2)"
    code, payload, _ = run_json(["dj", "--curve", "2*x*y^2 + 4*z^2*y + x^3 + z^3", "--p", "(0:1:0)"])
    assert code == 0
    comps = payload["components"]
    assert RationalMap(*(parse_poly(c) for c in comps)) != parse_map(";".join(comps))
    mf = tmp_path / "dj.json"
    mf.write_text(json.dumps(payload))
    code, payload, _ = run_json(["verify", "--map-file", str(mf)])
    assert code == 0 and payload["involutive"] and payload["degree"] == 3


@pytest.mark.parametrize("text", [
    "{}", '{"components": 5}', '["x", "y", "z"]', "x;y;z",
    '{"components": ["x", "y"]}', '{"components": ["x", "y", 1]}',
])
def test_malformed_map_file_is_a_validation_failure(tmp_path, text):
    mf = tmp_path / "m.json"
    mf.write_text(text)
    code, payload, _ = run_json(["verify", "--map-file", str(mf)])
    assert code == 2 and payload["reason"] == "syntax error"


@pytest.mark.parametrize("argv, reason", [
    (["verify", "--map-file", "{absent}"], "unreadable file"),
    (["geiser", "--points", "{absent}"], "unreadable file"),
    (["lattice", "classify", "--n", "3", "--matrix-file", "{absent}"], "unreadable file"),
    (["lattice", "classify", "--n", "3", "--matrix-file", "{bad_token}"], "syntax error"),
    (["lattice", "classify", "--n", "3", "--matrix-file", "{wide_digit}"], "syntax error"),
])
def test_unreadable_input_file_is_a_validation_failure(tmp_path, argv, reason):
    bad = tmp_path / "bad.txt"
    bad.write_text("4\n2 1 1 1\n-1 0 -1 x\n-1 -1 0 -1\n-1 -1 -1 0\n")
    wide = tmp_path / "wide.txt"     # a full-width 0 in a matrix that is fine in ASCII
    wide.write_text("4\n2 1 1 1\n-1 0 -1 -1\n-1 -1 \uff10 -1\n-1 -1 -1 0\n", encoding="utf-8")
    paths = {"absent": tmp_path / "absent.txt", "bad_token": bad, "wide_digit": wide}
    code, payload, _ = run_json([a.format(**paths) for a in argv])
    assert code == 2 and payload["reason"] == reason


@pytest.mark.parametrize("argv, reason", [
    (["lattice", "reflect", "--n", "3", "--alpha", "1,a"], "syntax error"),
    (["verify", "--map", "x;y"], "syntax error"),
    (["lattice", "reflect", "--n", "3", "--alpha", "0,1,-1,0,5"], "bad reflection"),
    (["dj", "--curve", "x*z - y^2", "--p", "(0:0:1/0)"], "syntax error"),
    (["fixed-curve", "--map", "0;0;x"], "not involutive"),
    (["fixed-curve", "--map", "x^2;y^2;z^2"], "not involutive"),
    (["dj", "--curve", "x^2/3*y + z", "--p", "(0:1:0)"], "syntax error"),
    (["lattice", "minimal", "--n", "3"], "bad request"),
    # digits are ASCII: a superscript or full-width digit is not one
    (["verify", "--map", "x^\u00b2*y;y^3;z^3"], "syntax error"),
    (["verify", "--map", "\uff13x;y;z"], "syntax error"),
    # a command line argparse refuses gives a payload too
    (["verify", "--map", "x;y;z", "--seed", "3"], "bad request"),
    (["lattice", "make", "--n", "abc"], "bad request"),
    # every option is read or refused
    (["classify", "--curve", "x*z - y^2", "--map", "x*y;x*z;y*z"], "bad request"),
    (["classify", "--kind", "bertini", "--curve", "x*z - y^2", "--p", "(0:1:0)"], "bad request"),
    (["invariant", "--curve", "x*z - y^2"], "bad request"),
    (["lattice", "make", "--n", "3", "--alpha", "1,0,0,0", "--oracle", "--matrix-file", "nowhere"],
     "bad request"),
    (["lattice", "make", "--n", "3", "--quadric"], "bad request"),
    (["invariant", "--points", "data/points7.txt", "--builtin", "--kind", "geiser"], "bad request"),
    (["verify", "--map", "x*y;x*z;y*z", "--map-file", "tests/data/conic_map.json"], "bad request"),
    (["lattice"], "bad request"),
    # numbers in points, integer lists and --n are ASCII digits too, with no
    # '_', exponent or decimal point
    (["dj", "--curve", "x*z - y^2", "--p", "(\u0661:2:3)"], "syntax error"),
    (["dj", "--curve", "x*z - y^2", "--p", "(\uff11:2:3)"], "syntax error"),
    (["dj", "--curve", "x*z - y^2", "--p", "(1e3:2:3)"], "syntax error"),
    (["dj", "--curve", "x*z - y^2", "--p", "(1.5:2:3)"], "syntax error"),
    (["dj", "--curve", "x*z - y^2", "--p", "(1_0:2:3)"], "syntax error"),
    (["dj", "--curve", "x*z - y^2", "--p", "(1/\uff12:2:3)"], "syntax error"),
    (["lattice", "reflect", "--n", "3", "--alpha", "0,1,-1,\uff10"], "syntax error"),
    (["lattice", "reflect", "--n", "3", "--alpha", "0,1,-1,0_0"], "syntax error"),
    (["lattice", "make", "--n", "\uff13"], "bad request"),
    (["lattice", "make", "--n", "\u0663"], "bad request"),
    (["lattice", "make", "--n", "1_0"], "bad request"),
])
def test_malformed_command_line_input_is_a_validation_failure(argv, reason):
    code, payload, _ = run_json(argv)
    assert code == 2 and payload["reason"] == reason


@pytest.mark.parametrize("argv, reason", [
    (["geiser", "--builtin", "--x", ""], "syntax error"),
    (["lattice", "reflect", "--n", "7", "--alpha", ""], "syntax error"),
    (["verify", "--map", ""], "syntax error"),
    (["verify", "--map-file", ""], "unreadable file"),
    (["lattice", "classify", "--n", "3", "--matrix-file", ""], "unreadable file"),
    (["classify", "--curve", "", "--p", "(0:1:0)"], "syntax error"),
    (["classify", "--points", "", "--kind", "geiser"], "unreadable file"),
    (["geiser", "--points", ""], "unreadable file"),
])
def test_an_empty_option_value_is_read_as_given(argv, reason):
    """An empty value is a value, refused as a bad non-empty one is, not
    taken for an absent option."""
    code, payload, _ = run_json(argv)
    assert code == 2 and payload["reason"] == reason


def test_fixed_curve_command():
    code, payload, _ = run_json(["fixed-curve", "--map", "x*y; x*z; y*z"])
    assert code == 0
    assert payload["fixed_curve"] == "x*z - y^2"


def test_classify_and_invariant_commands():
    code, payload, _ = run_json(["classify", "--map", "x*y; x*z; y*z"])
    assert code == 0 and payload["label"] == "DJ(2)"
    code, payload, _ = run_json(["invariant", "--builtin", "--kind", "geiser"])
    assert code == 0 and payload["invariant"]["genus"] == 3
    code, payload, _ = run_json(["invariant", "--builtin", "--kind", "bertini"])
    assert code == 0 and payload["invariant"]["genus"] == 4


def test_lattice_commands(tmp_path):
    code, payload, _ = run_json(["lattice", "make", "--n", "7"])
    assert payload["K_square"] == 2
    code, payload, _ = run_json(["lattice", "exceptionals", "--n", "7", "--oracle"])
    assert payload["count"] == 56 and payload["oracle_agrees"]
    code, payload, _ = run_json(["lattice", "reflect", "--n", "8"])
    assert payload["fixed_rank"] == 1
    matrix = payload["matrix"]
    mf = tmp_path / "m8.txt"
    mf.write_text("9\n" + "\n".join(" ".join(str(v) for v in row) for row in matrix))
    code, payload, _ = run_json(["lattice", "classify", "--n", "8", "--matrix-file", str(mf)])
    assert payload["label"] == "(vi)" and payload["minimal"]
    code, payload, _ = run_json(["lattice", "minimal", "--n", "8", "--matrix-file", str(mf)])
    assert payload["minimal"] is True


def test_lattice_non_minimal_witness(tmp_path):
    mf = tmp_path / "m3.txt"
    mf.write_text("4\n2 1 1 1\n-1 0 -1 -1\n-1 -1 0 -1\n-1 -1 -1 0\n")
    code, payload, _ = run_json(["lattice", "classify", "--n", "3", "--matrix-file", str(mf)])
    assert payload["label"] == "non-minimal"
    assert payload["failure"] == "disjoint"


@pytest.mark.parametrize("action", ["minimal", "classify"])
def test_lattice_minimality_beyond_eight_points_is_refused(tmp_path, action):
    mf = tmp_path / "id10.txt"
    mf.write_text("10\n" + "\n".join(" ".join(str(int(i == j)) for j in range(10)) for i in range(10)))
    code, payload, _ = run_json(["lattice", action, "--n", "9", "--matrix-file", str(mf)])
    assert code == 2 and payload == {"reason": "unsupported rank", "error": "n must be <= 8"}


@pytest.mark.parametrize("argv, text, reason, error", [
    (["lattice", "classify", "--n", "2"], "", "syntax error", "empty matrix file"),
    (["lattice", "classify", "--n", "2"], "3\n1 0 0\n0 1 0\n", "syntax error",
     "expected 9 entries after the rank, got 6"),
    # H fixed and E1 -> E2 -> E3 -> E1: an isometry fixing K whose square is not I
    (["lattice", "minimal", "--n", "3"], "4\n1 0 0 0\n0 0 0 1\n0 1 0 0\n0 0 1 0\n",
     "not an involution", "M^2 != I"),
], ids=["empty", "short", "three-cycle"])
def test_a_refused_matrix_file_names_its_fault(tmp_path, argv, text, reason, error):
    mf = tmp_path / "m.txt"
    mf.write_text(text)
    code, payload, _ = run_json(argv + ["--matrix-file", str(mf)])
    assert code == 2 and payload == {"reason": reason, "error": error}


def test_a_de_jonquieres_curve_of_degree_one_is_refused():
    code, payload, _ = run_json(["dj", "--curve", "x - y", "--p", "(0:0:1)"])
    assert code == 2 and payload["reason"] == "bad degree"


def test_quadric_lattice_classify(tmp_path):
    mf = tmp_path / "sw.txt"
    mf.write_text("2\n0 1\n1 0\n")
    code, payload, _ = run_json(["lattice", "classify", "--quadric", "--matrix-file", str(mf)])
    assert payload["label"] == "(iv)"


def test_json_output_deterministic():
    _, _, raw1 = run_json(["geiser", "--builtin", "--x", "(2:3:7)"])
    _, _, raw2 = run_json(["geiser", "--builtin", "--x", "(2:3:7)"])
    assert raw1 == raw2
    _, _, raw3 = run_json(["lattice", "exceptionals", "--n", "6"])
    _, _, raw4 = run_json(["lattice", "exceptionals", "--n", "6"])
    assert raw3 == raw4


# -- the --json writer ---------------------------------------------------------------

# quotes, backslashes, control and non-ASCII characters, astral ones included
_TEXT = st.text(alphabet=st.sampled_from(list('ab"\\/\n\t\x00\x1f\x7f\u00e9\u2028\uff13\U0001d11e')) | st.characters(),
                max_size=8)
_INT = st.integers() | st.integers(-2 ** 80, 2 ** 80) | st.sampled_from([2 ** 64, 2 ** 64 + 1, -2 ** 64])
# lists of ints, some holding a bool, which the writer must not write as an int
_INT_LIST = st.lists(_INT, max_size=5) | st.lists(_INT | st.booleans(), min_size=1, max_size=5)
_SCALAR = st.none() | st.booleans() | _INT | _TEXT | st.floats(allow_nan=True)
_PAYLOAD = st.dictionaries(_TEXT, st.recursive(
    _SCALAR | _INT_LIST | st.lists(_INT_LIST, max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=20), max_size=5)


def _emitted(payload):
    buf = io.StringIO()
    with redirect_stdout(buf):
        emit(payload, True)
    return buf.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_PAYLOAD)
def test_the_json_writer_matches_json_dumps_with_indent_2(payload):
    assert _emitted(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_the_json_writer_on_fixed_payloads():
    classes = [list(c) for c in exceptional_classes(make_lattice(8))]
    for payload in ({}, {"a": []}, {"a": {}}, {"b": [True, 1, False], "a": [0, -1, 2 ** 70]},
                    {"k": [[1, 2], [], [None, "x\"\\\u00e9"]], "e": {"z": {"y": [{}]}}},
                    {"classes": classes, "count": len(classes)},
                    {"m": [[1, 2], []]}, {"m": [[], [1]]}, {"m": [[1, True], [0, 1]]}, {"m": [[False]]},
                    {"m": [(1, 2), (3, 4)]}, {"m": [[1, 2], (3, 4)]},
                    {"m": [[2 ** 64, -2 ** 64 - 1], [2 ** 100, 0]]}):
        assert _emitted(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_a_refused_command_is_written_as_json_dumps_writes_it():
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(["dj", "--curve", "x*z - y^", "--p", "(0:1:0)", "--json"])
    payload = json.loads(buf.getvalue())
    assert code == 2 and payload["reason"] == "syntax error"
    assert buf.getvalue() == json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("as_json", [False, True])
def test_an_internal_error_exits_1_on_stderr_with_nothing_on_stdout(monkeypatch, capsys, as_json):
    """An exception other than a ValidationError is not a refusal: exit 1,
    "internal error: ..." on stderr, and no payload, --json or not."""
    from planecremona import cli

    def broken(sigma):
        raise RuntimeError("broken test")

    monkeypatch.setattr(cli, "is_involution", broken)
    code = run(["verify", "--map", "x;y;z"] + ["--json"] * as_json)
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and err == "internal error: broken test\n"


def test_interpolate_flag():
    code, payload, _ = run_json(["geiser", "--builtin", "--interpolate"])
    assert code == 0
    assert payload["map"]["degree"] == 8
    assert "seed" not in payload


def test_only_geiser_takes_a_seed():
    # geiser lost its --seed too (its fit always draws the same sample),
    # so the option is now refused everywhere.
    for argv in (
        ["dj", "--curve", "x*z - y^2", "--p", "(0:1:0)"],
        ["dj-conic", "--q", "x*z - y^2", "--p", "(0:1:0)"],
        ["geiser", "--builtin"],
        ["geiser", "--builtin", "--interpolate"],
        ["bertini", "--builtin"],
        ["verify", "--map", "x*y;x*z;y*z"],
        ["fixed-curve", "--map", "x*y;x*z;y*z"],
        ["invariant", "--builtin", "--kind", "geiser"],
        ["classify", "--builtin", "--kind", "geiser"],
        ["lattice", "make", "--n", "3"],
    ):
        code, payload, _ = run_json(argv + ["--seed", "5"])
        assert code == 2 and payload["reason"] == "bad request", argv


def test_negative_seed_is_refused():
    for argv in (["geiser", "--builtin", "--seed", "-1"],
                 ["geiser", "--builtin", "--interpolate", "--seed", "-1"]):
        code, payload, _ = run_json(argv)
        assert code == 2 and payload["reason"] == "bad request", argv
