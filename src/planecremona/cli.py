"""Command-line front end: parsing, dispatch, deterministic JSON output.

Subcommands mirror the package's objects: dj, dj-conic, geiser, bertini,
verify, fixed-curve, invariant, classify, lattice (make | reflect [--alpha] |
exceptionals [--oracle] | minimal --matrix-file | classify --matrix-file, each
on --n or --quadric). With --json the output is a single JSON document that
is byte-identical across runs with equal arguments (keys sorted, fixed
separators, no timestamps or timing). Exit codes: 0 success, 2 validation
failure (machine-readable reason; "bad request" for a command line the
parser refuses, such as an option its subcommand does not read), 1 internal
error. dj and dj-conic print the map, its fixed curve, center and rational
base points, and the label read from the pencil form of the map; geiser and
bertini print the fixed curve that their label was checked on. classify
takes one involution (--curve with --p, --points or --builtin with --kind,
or --map or --map-file) and prints its label, invariant and a note on how
they were computed; invariant prints the same without the note.

Input grammars:
  polynomials   signed terms  c x^i*y^j*z^k  with rational c like 3/4 and
                exponents i, j, k, all written with the ASCII digits 0-9; the
                '*' between coefficient and variables and between variables
                is optional; all terms must have the same total degree
  points        (a:b:c) with entries n or n/m, n a signed and m an unsigned
                run of the ASCII digits 0-9, not all zero
  maps          --map takes three ';'-separated components; one whose first
                component starts with '-' must be written --map=-x;y;z,
                since argparse reads "--map -x;y;z" as a new option.
                --map-file takes a JSON object whose "components" is a
                list of three such strings
  point files   one point per line, '#' comments allowed
  matrix files  whitespace-separated integers, row-major, first line = rank
  integer lists --alpha takes comma-separated integers; an integer, here,
                in matrix files and in --n, is an optional sign and a run
                of the ASCII digits 0-9
"""

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from functools import cache, lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii

from .errors import ValidationError
from .exactpoly import HPoly, format_hpoly
from . import configs, fixedcurve, involutions, picard
from .projmaps import ProjPoint, RationalMap, is_involution


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_WHITESPACE = re.compile(r"\s*")
_DIGITS = re.compile(r"[0-9]+")
# One term, each piece optional: a sign, a coefficient a or a/b with an
# optional '*' (cstar), then the run of factors x^e, each with an optional
# '*'. The term ends where the match stops, and a syntax error is read off
# the groups and that position. Digits are ASCII: \d or str.isdigit would
# also take superscript or full-width digits.
_TERM = re.compile(
    r"(?P<sign>[+-]?)\s*"
    r"(?:(?P<num>[0-9]+)(?:\s*/(?P<den>[0-9]*))?(?P<cstar>\s*\*)?)?"
    r"(?P<factors>(?:\s*[xyz](?:\s*\^\s*[0-9]*)?(?:\s*\*)?)*)"
    r"\s*"
)
# one factor of the run: the variable, the exponent's digits (None with no
# '^', "" for a '^' without digits) and a trailing '*'
_FACTOR = re.compile(r"\s*([xyz])(?:\s*\^\s*([0-9]*))?(\s*\*)?")
_VAR_INDEX = {"x": 0, "y": 1, "z": 2}
# numbers outside polynomials, in the same ASCII digits: int() and
# Fraction() alone also read other Unicode digits, '_', exponents and
# decimal points
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")
_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def _syntax_error(message: str, pos: int, text: str):
    raise ValidationError("syntax error", f"{message} at position {pos}: {text!r}")


def parse_poly(text: str) -> HPoly:
    """Parse the polynomial grammar into a canonical homogeneous polynomial."""
    return _parse_form(text).canonical()


def _parse_form(text: str) -> HPoly:
    """Parse the polynomial grammar, keeping the coefficients as written.

    One loop reads the terms: _TERM matches a whole term, and every syntax
    error is read off its groups and where it stopped. The exponents of the
    term's run of factors come from _factor_run, memoised on the run's text
    (at most 4096 runs), so that a monomial written again, as in each
    component of a map, is read once; it gives the offset of a bad exponent
    relative to the run, to which the run's start here is added."""
    terms = []
    pos, end = _WHITESPACE.match(text).end(), len(text)
    while pos < end:
        m = _TERM.match(text, pos)
        sign, num, den, cstar, factors = m.group("sign", "num", "den", "cstar", "factors")
        stop = m.end()
        if not sign and terms:
            _syntax_error("expected '+' or '-' between terms", pos, text)
        if sign and stop == end and num is None and not factors:
            _syntax_error("dangling sign", end, text)
        coeff = 1
        if num is not None:
            coeff = int(num)
            if den is not None:
                if not den:
                    _syntax_error("expected a denominator", m.end("den"), text)
                if int(den) == 0:
                    _syntax_error("zero denominator", m.end("den"), text)
                coeff = Fraction(coeff, int(den))
        exps, star, bad = _factor_run(factors)
        if bad is not None:
            _syntax_error("expected a number", m.start("factors") + bad, text)
        if (star or cstar and not factors) and not _DIGITS.match(text, stop):
            _syntax_error("dangling '*'", stop, text)
        if not factors and num is None and stop < end:
            _syntax_error("expected a term", stop, text)
        terms.append((-coeff if sign == "-" else coeff, exps))
        pos = stop
    if not terms:
        raise ValidationError("syntax error", "empty polynomial")
    if len(terms) == 1 and terms[0][0] == 0:
        return HPoly.zero(0)
    degrees = {sum(e) for c, e in terms if c != 0}
    if len(degrees) > 1:
        raise ValidationError(
            "inhomogeneous", f"terms of different total degrees {sorted(degrees)}"
        )
    acc: dict = {}
    for c, e in terms:
        acc[e] = acc.get(e, 0) + c
    degree = degrees.pop() if degrees else 0
    # every term left has a nonzero coefficient and one of the degrees
    return HPoly._make(degree, {e: c for e, c in acc.items() if c != 0})


@lru_cache(maxsize=4096)
def _factor_run(run: str) -> tuple:
    """(exps, star, bad) of a run of factors x^e as _TERM's group "factors"
    holds it: the exponent triple, whether its last factor ends in '*', and
    the offset in the run of the first '^' with no digits after it (None if
    there is none).

    Memoised on the run's text, at most 4096 runs: a pure function of its
    argument, so a hit gives what a new read would. The offset is relative
    to the run, since one run recurs at different places of different texts,
    and the caller adds the run's start to it."""
    exps = [0, 0, 0]
    star = None
    for f in _FACTOR.finditer(run):
        var, e, star = f.groups()
        if e == "":
            return (), False, f.start(2)
        exps[_VAR_INDEX[var]] += 1 if e is None else int(e)
    return tuple(exps), bool(star), None


def ascii_int(text: str) -> int:
    """An integer of the grammar; ValueError for anything else."""
    if _INTEGER.fullmatch(text) is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _rational(text: str) -> Fraction:
    """n or n/m of the grammar; ValueError for anything else."""
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise ValueError(f"not a rational number: {text!r}")
    num, den = m.groups()
    return Fraction(int(num), int(den or 1))


def parse_point(text: str) -> ProjPoint:
    """Parse '(a:b:c)' with rational entries into a canonical point."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValidationError("syntax error", f"point must look like (a:b:c): {text!r}")
    parts = s[1:-1].split(":")
    if len(parts) != 3:
        raise ValidationError("syntax error", f"point needs three coordinates: {text!r}")
    try:
        vals = [_rational(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError("syntax error", f"bad coordinate in {text!r}: {exc}") from None
    return ProjPoint(*vals)


def parse_int_list(text: str) -> tuple:
    """Parse a comma-separated list of integers."""
    try:
        return tuple(ascii_int(v) for v in text.split(","))
    except ValueError:
        raise ValidationError(
            "syntax error", f"expected comma-separated integers: {text!r}"
        ) from None


def parse_map(text: str) -> RationalMap:
    return _map_of(text.split(";"))


def _map_of(texts) -> RationalMap:
    """The map with these components as written; RationalMap rescales them
    jointly, since rescaling one alone would give another map."""
    if len(texts) != 3:
        raise ValidationError("syntax error", "a map needs three components")
    return RationalMap(*(_parse_form(t) for t in texts))


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError("unreadable file", f"cannot read {path!r}: {exc}") from None


def parse_points_file(path: str):
    pts = []
    for line in _read_file(path).splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            pts.append(parse_point(line))
    return pts


def parse_matrix_file(path: str):
    tokens = _read_file(path).split()
    if not tokens:
        raise ValidationError("syntax error", "empty matrix file")
    try:
        rank, *vals = (ascii_int(t) for t in tokens)
    except ValueError:
        raise ValidationError("syntax error", "the matrix file holds a token that is not an integer") from None
    if len(vals) != rank * rank:
        raise ValidationError(
            "syntax error", f"expected {rank * rank} entries after the rank, got {len(vals)}"
        )
    return tuple(tuple(vals[i * rank + j] for j in range(rank)) for i in range(rank))


# ---------------------------------------------------------------------------
# output assembly
# ---------------------------------------------------------------------------

def _map_json(m: RationalMap):
    return {
        "degree": m.degree,
        "components": [format_hpoly(c) for c in m.components],
    }


def _labelled(inv, **fields):
    """The payload of an involution with invariant inv, labelled by its
    source, with the given fields."""
    return {"label": inv.source, "invariant": inv.as_dict(), **fields}


def emit(payload: dict, as_json: bool) -> None:
    """Print the payload: with as_json, the bytes of json.dumps(payload,
    sort_keys=True, indent=2) and a newline, written by _json_text, since
    json.dumps with an indent runs the pure-Python encoder; else one
    line per key."""
    if as_json:
        sys.stdout.write(_json_text(payload, "\n"))
        sys.stdout.write("\n")
    else:
        for line in _default_human(payload):
            print(line)


def _json_text(value, pad: str) -> str:
    """value as json.dumps(value, sort_keys=True, indent=2) writes it, pad
    being the newline and indent of its level: dicts (with string keys) in
    sorted key order and lists item by item, a list of ints (not bools,
    which json writes as true and false) in one join, and a list of
    non-empty lists of ints, such as the exceptional classes, in one pass
    of such joins; strings by the encoder's ASCII escape and any other
    scalar by the C encoder."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = pad + "  "
    sep = "," + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + sep.join(encode_basestring_ascii(k) + ": " + _json_text(v, inner)
                                      for k, v in sorted(value.items())) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(type(x) is int for x in value):
            return "[" + inner + sep.join(map(int.__repr__, value)) + pad + "]"
        if all(type(x) is list and x for x in value) and {*map(type, chain.from_iterable(value))} == {int}:
            cell = sep + "  "
            rows = (inner + "]" + sep + "[" + cell[1:]).join([cell.join(map(int.__repr__, x)) for x in value])
            return "[" + inner + "[" + cell[1:] + rows + inner + "]" + pad + "]"
        return "[" + inner + sep.join(_json_text(x, inner) for x in value) + pad + "]"
    return json.dumps(value)


def _default_human(payload, prefix=""):
    lines = []
    for key in sorted(payload):
        val = payload[key]
        if isinstance(val, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_default_human(val, prefix + "  "))
        else:
            lines.append(f"{prefix}{key}: {val}")
    return lines


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its answer payload
# ---------------------------------------------------------------------------

def _cmd_dj(args) -> dict:
    """dj and dj-conic: args.construct is validate_dj or dj_from_conic; the
    map, fixed curve and center of the DJData it returns, its label and
    invariant from its pencil form (invariant_of), and its rational base
    points."""
    data = args.construct(parse_poly(args.curve), parse_point(args.p))
    return _labelled(fixedcurve.invariant_of(data), **_map_json(data.map),
                     fixed_curve=format_hpoly(data.fixed_curve),
                     center=str(data.pencil.center),
                     rational_base_points=[str(b) for b in fixedcurve.rational_base_points(data)])


def _configuration_involution(args, kind: str):
    """The involution of a kind of DEL_PEZZO on --builtin or --points."""
    if args.builtin:
        config = configs.reference_seven_points() if kind == "geiser" else configs.reference_eight_points()
    elif args.points is not None:
        config = involutions.make_point_config(parse_points_file(args.points), kind)
    else:
        raise ValidationError("bad request", "supply --points FILE or --builtin")
    build = involutions.GeiserInvolution if kind == "geiser" else involutions.BertiniInvolution
    return build(config)


def _cmd_configuration(args) -> dict:
    """geiser and bertini: the involution of a point configuration, with its
    label and invariant from invariant_of, and the fixed curve that
    invariant_of checked. geiser --interpolate also prints the closed-form
    map."""
    inv = _configuration_involution(args, args.command)
    payload = _labelled(fixedcurve.invariant_of(inv),
                        points=[str(p) for p in inv.config.points],
                        fixed_curve=format_hpoly(inv.fixed_curve))
    if args.x is not None:
        x = parse_point(args.x)
        image, trace = inv.eval_detail(x)
        payload["x"] = str(x)
        payload["image"] = str(image)
        payload["trace"] = {"attempts": trace.attempts}
    if getattr(args, "interpolate", False):
        payload["map"] = _map_json(inv.interpolated_map)
    return payload


def _load_map(args) -> RationalMap:
    if args.map is not None:
        return parse_map(args.map)
    if args.map_file is not None:
        text = _read_file(args.map_file)
        try:
            data = json.loads(text)
        except ValueError:
            raise ValidationError("syntax error", "the map file is not JSON") from None
        comps = data.get("components") if isinstance(data, dict) else None
        if not isinstance(comps, list) or len(comps) != 3 or not all(isinstance(c, str) for c in comps):
            raise ValidationError("syntax error", "the map file needs 'components': a list of 3 strings")
        return _map_of(comps)
    raise ValidationError("bad request", "supply --map or --map-file")


def _cmd_verify(args) -> dict:
    """Exact involution test of a raw map at any degree (is_involution);
    reason "not involutive" when it fails."""
    sigma = _load_map(args)
    ok = is_involution(sigma)
    payload = {"involutive": ok, "degree": sigma.degree}
    if not ok:
        payload["reason"] = "not involutive"
    return payload


def _cmd_fixed_curve(args) -> dict:
    sigma = _load_map(args)
    if not is_involution(sigma):
        raise ValidationError("not involutive", "the map composed with itself is not the identity")
    locus = fixedcurve.fixed_locus(sigma)
    return {"degree": sigma.degree, "fixed_curve": format_hpoly(locus), "fixed_curve_degree": locus.degree}


def _construction(args):
    """The construction given by --curve with --p or by --points or
    --builtin with --kind, or None for a map; the parser refuses two of
    --curve, --points, --builtin, --map and --map-file."""
    configured = args.points is not None or args.builtin
    if (args.curve is None) != (args.p is None):
        raise ValidationError("bad request", "--curve and --p go together")
    if args.kind is not None and not configured:
        raise ValidationError("bad request", "--kind goes with --points or --builtin")
    if args.curve is not None:
        return involutions.validate_dj(parse_poly(args.curve), parse_point(args.p))
    if configured:
        if args.kind is None:
            given = "--points" if args.points is not None else "--builtin"
            raise ValidationError("bad request", f"--kind must be geiser or bertini with {given}")
        return _configuration_involution(args, args.kind)
    return None


def _cmd_classify(args) -> dict:
    """classify and invariant: the label and invariant of a construction
    (classify_involution checks it by invariant_of) or of a raw map;
    classify also prints the note on how they were computed."""
    construction = _construction(args)
    result = fixedcurve.classify_involution(construction if construction is not None else _load_map(args))
    payload = _labelled(result.invariant)
    if args.command == "classify":
        payload["note"] = result.note
    return payload


def _lattice_of(args) -> picard.PicLattice:
    if args.quadric:
        return picard.quadric_lattice()
    if args.n is None:
        raise ValidationError("bad request", "supply --n or --quadric")
    return picard.make_lattice(args.n)


def _cmd_lattice_make(args) -> dict:
    lat = _lattice_of(args)
    return {"kind": lat.kind, "rank": lat.rank, "K": list(lat.k), "K_square": lat.k_square()}


def _cmd_lattice_reflect(args) -> dict:
    lat = _lattice_of(args)
    if args.alpha is not None:
        alpha = parse_int_list(args.alpha)
        return {"matrix": [list(r) for r in picard.reflection_through(lat, alpha)], "alpha": list(alpha)}
    inv = picard.anti_reflection_in_k(lat)
    return {"matrix": [list(r) for r in inv.matrix], "anti_reflection_in_K": True,
            "fixed_rank": picard.fixed_rank(inv)}


def _cmd_lattice_exceptionals(args) -> dict:
    lat = _lattice_of(args)
    classes = picard.exceptional_classes(lat)
    payload = {"n": lat.n, "count": len(classes), "classes": [list(c) for c in classes]}
    if args.oracle:
        oracle = picard.exceptional_classes_bruteforce(lat)
        payload["oracle_count"] = len(oracle)
        payload["oracle_agrees"] = oracle == classes
    return payload


def _lattice_involution(args):
    lat = _lattice_of(args)
    if args.matrix_file is None:
        raise ValidationError("bad request", "supply --matrix-file")
    return lat, picard.LatticeInvolution(lat, parse_matrix_file(args.matrix_file))


def _cmd_lattice_minimal(args) -> dict:
    return picard.is_minimal(*_lattice_involution(args)).as_dict()


def _cmd_lattice_classify(args) -> dict:
    return picard.classify_pair(*_lattice_involution(args)).as_dict()


# ---------------------------------------------------------------------------
# argument parser
# ---------------------------------------------------------------------------

MAP_HELP = "three ';'-separated components; write --map=-x;y;z when the first starts with '-'"


class _Parser(argparse.ArgumentParser):
    """An argument parser that refuses a bad command line with a
    ValidationError, so that run reports it like any other (JSON under
    --json); its subparsers are of the same class."""

    def error(self, message):
        raise ValidationError("bad request", f"{self.prog}: {message}")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parse_args leaves it unchanged."""
    top = _Parser(
        prog="planecremona",
        description="Exact constructions and classification of plane birational involutions.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, func, **defaults):
        """--json, and the handler that p's command line goes to."""
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func, **defaults)

    p = sub.add_parser("dj", help="de Jonquieres involution from a curve and center")
    p.add_argument("--curve", required=True)
    p.add_argument("--p", required=True)
    common(p, _cmd_dj, construct=involutions.validate_dj)

    p = sub.add_parser("dj-conic", help="quadratic de Jonquieres involution from a conic")
    p.add_argument("--q", dest="curve", metavar="Q", required=True)
    p.add_argument("--p", required=True)
    common(p, _cmd_dj, construct=involutions.dj_from_conic)

    for name in involutions.DEL_PEZZO:
        p = sub.add_parser(name, help=f"{name} involution on a point configuration")
        config = p.add_mutually_exclusive_group()
        config.add_argument("--points", help="point file, one (a:b:c) per line")
        config.add_argument("--builtin", action="store_true", help="use the committed configuration")
        p.add_argument("--x", help="point to evaluate at")
        if name == "geiser":
            p.add_argument("--interpolate", action="store_true",
                           help="also fit the closed-form degree-8 map")
        common(p, _cmd_configuration)

    def one_map(p):
        """--map or --map-file, one of them, in a group of p's options."""
        one = p.add_mutually_exclusive_group()
        one.add_argument("--map", help=MAP_HELP)
        one.add_argument("--map-file", help="JSON file with a 'components' list")
        return one

    for name, handler, help_text in (("verify", _cmd_verify, "check that a map is an involution"),
                                     ("fixed-curve", _cmd_fixed_curve, "divisorial fixed locus of a map")):
        p = sub.add_parser(name, help=help_text)
        one_map(p)
        common(p, handler)

    for name in ("invariant", "classify"):
        p = sub.add_parser(name, help=f"{name} of an involution (construction or raw map)")
        one = one_map(p)
        one.add_argument("--curve")
        one.add_argument("--points")
        one.add_argument("--builtin", action="store_true")
        p.add_argument("--p")
        p.add_argument("--kind", choices=tuple(involutions.DEL_PEZZO))
        common(p, _cmd_classify)

    lattice = sub.add_parser("lattice", help="Picard-lattice computations")
    actions = lattice.add_subparsers(required=True)
    for action, handler in (("make", _cmd_lattice_make), ("reflect", _cmd_lattice_reflect),
                            ("exceptionals", _cmd_lattice_exceptionals),
                            ("minimal", _cmd_lattice_minimal), ("classify", _cmd_lattice_classify)):
        p = actions.add_parser(action)
        which = p.add_mutually_exclusive_group()
        which.add_argument("--n", type=ascii_int, help="number of blown-up points")
        which.add_argument("--quadric", action="store_true", help="use the rank-2 quadric model")
        if action == "reflect":
            p.add_argument("--alpha", help="comma-separated class to reflect through")
        if action == "exceptionals":
            p.add_argument("--oracle", action="store_true", help="cross-check with the widened brute force")
        if action in ("minimal", "classify"):
            p.add_argument("--matrix-file", help="involution matrix file")
        common(p, handler)

    return top


def run(argv=None) -> int:
    """Run one command line. Its handler returns the answer payload, which
    is emitted here; a payload with a reason, like verify's "not
    involutive", exits 2 as a refused request does."""
    argv = sys.argv[1:] if argv is None else argv
    as_json = "--json" in argv     # until parse_args has read the command line
    start = time.monotonic()
    try:
        args = build_parser().parse_args(argv)
        as_json = args.json
        payload = args.func(args)
    except ValidationError as exc:
        payload = {"error": str(exc), "reason": exc.reason}
        if as_json:
            emit(payload, True)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001  internal error path
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    emit(payload, as_json)
    if not as_json:
        print(f"elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return 2 if "reason" in payload else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
