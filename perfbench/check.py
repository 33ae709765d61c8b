"""Answer checks that do not use the package.

A Geiser or Bertini image y of x must lie on every member of the linear
system through the base points and x: the pencil of cubics through the 7
points (Geiser), or the net of sextics singular at the 8 points (Bertini).
With v(p) the values of a basis of the system at p, that means v(y) is
proportional to v(x). y = x is right only where the involution fixes x, i.e.
where the basis' gradients at x have rank below 3; y = a base point p only
where x lies on the curve contracted to p.

CLI answers are parsed from their JSON and compared with what the benchmark
built itself: the closed-form de Jonquieres map, the DJ(d) label, the
counts 27, 56 and 240 of exceptional classes for n = 6, 7, 8, and the
Geiser (v) / Bertini (vi) labels of the anti-reflection in K.
"""

import json
import re
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

from gen import canonical_point, pdiff, peval, rank

EXCEPTIONAL_COUNTS = {6: 27, 7: 56, 8: 240}
LATTICE_LABELS = {7: "(v)", 8: "(vi)"}

_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?\*?((?:[xyz](?:\^\d+)?\*?)*)$")


def parse_poly(text):
    """Parse the CLI's printed polynomial grammar into a dict."""
    out = {}
    for term in re.split(r"\s+(?=[+-])", text.strip()):
        term = term.replace(" ", "")
        m = _TERM.match(term)
        if not m or not (m.group(2) or m.group(3)):
            raise ValueError(f"bad term {term!r}")
        coeff = Fraction(m.group(2) or 1) * (-1 if m.group(1) == "-" else 1)
        exps = [0, 0, 0]
        for var, power in re.findall(r"([xyz])(?:\^(\d+))?", m.group(3)):
            exps["xyz".index(var)] += int(power or 1)
        key = tuple(exps)
        out[key] = out.get(key, 0) + coeff
    return {e: c for e, c in out.items() if c}


def proportional(f, g):
    """Two triples of polynomials agree up to one nonzero scalar."""
    i0 = next(i for i, comp in enumerate(f) if comp)
    e0 = next(iter(f[i0]))
    if e0 not in g[i0]:
        return False
    ratio = Fraction(g[i0][e0]) / Fraction(f[i0][e0])
    return all(set(a) == set(b) and all(Fraction(b[e]) == ratio * a[e] for e in a)
               for a, b in zip(f, g))


def _values(system, p):
    return [peval(f, p) for f in system]


def contracted_to(system, p, x, order):
    """Whether x lies on the member of the system with multiplicity
    order + 1 at the base point p (the cubic double at p, or the sextic
    triple at p), which the involution contracts to p."""
    rows = [_values(system, x)]
    for vars_ in combinations_with_replacement(range(3), order):
        row = []
        for f in system:
            for v in vars_:
                f = pdiff(f, v)
            row.append(peval(f, p))
        rows.append(row)
    return rank(rows) < len(system)


def image_ok(system, base_points, x, y, order):
    """Whether y is the image of x under the involution whose linear system
    (cubics through 7 points, or sextics singular at 8) is `system`;
    `order` is the system's multiplicity at the base points."""
    x, y = tuple(x), tuple(y)
    if y in base_points:
        return contracted_to(system, y, x, order)
    vx, vy = _values(system, x), _values(system, y)
    if not any(vy) or rank([vx, vy]) != 1:
        return False
    if y == x:
        grads = [[peval(pdiff(f, v), x) for v in range(3)] for f in system]
        return rank(grads) < 3
    return True


def map_ok(system, base_points, components, points, order):
    """A fitted degree-8 Geiser map sends each sample point to its image."""
    for p in points:
        y = [peval(c, p) for c in components]
        if not any(y):
            return False
        den = 1
        for v in y:
            den = den * Fraction(v).denominator
        ints = [int(Fraction(v) * den) for v in y]
        if not image_ok(system, base_points, p, canonical_point(ints), order):
            return False
    return True


def _payload(answer):
    try:
        return json.loads(answer["out"])
    except (ValueError, KeyError):
        return None


def cli_ok(expect, answer):
    """Check one CLI answer against its expectation."""
    kind = expect["kind"]
    out = _payload(answer)
    if out is None:
        return False
    code = answer["code"]
    if kind == "dj":
        if code != 0 or out.get("label") != f"DJ({expect['d']})":
            return False
        comps = [parse_poly(c) for c in out.get("components", [])]
        return len(comps) == 3 and proportional(expect["sigma"], comps)
    if kind == "verify":
        return code == 0 and out.get("involutive") is True
    if kind == "classify":
        return code == 0 and out.get("label") == f"DJ({expect['d']})"
    if kind == "not_involutive":
        return code == 2 and out.get("reason") == "not involutive"
    if kind == "exceptionals":
        return code == 0 and out.get("count") == EXCEPTIONAL_COUNTS[expect["n"]]
    if kind == "lattice_classify":
        return (code == 0 and out.get("label") == LATTICE_LABELS[expect["n"]]
                and out.get("minimal") is True and out.get("fixed_rank") == 1)
    raise ValueError(f"unknown expectation {kind!r}")


def split_by_parsing(sigma):
    """Whether canonicalising each component on its own (coprime integer
    coefficients, largest monomial positive) rescales them differently, so
    that the parsed triple is another map."""
    scalars = set()
    for f in sigma:
        g = 0
        for c in f.values():
            g = gcd(g, c)
        scalars.add(g if f[max(f)] > 0 else -g)
    return len(scalars) > 1


def known_defect(expect, op):
    """Whether a failed op fails in one of the package's known ways:
    eval_detail raising TypeError when the residual linear form has Fraction
    coefficients, or ExtractionError at points of a curve the involution
    contracts to a base point (e.g. (5:3:1) on the third pool Geiser
    configuration, whose image is the base point (2:1:2)); the
    rational-root search refusing coefficients above 10^12
    ("coefficients too large", or "unrecognized" from classify); and a --map
    read back as another map because each component is canonicalised on its
    own, so that an involution is reported "not involutive"."""
    kind = expect["kind"]
    if op["error"] is not None:
        return kind == "eval" and op["error"].startswith(("TypeError", "ExtractionError"))
    out = _payload(op["answer"]) or {}
    reason = out.get("reason")
    if kind == "dj":
        return reason == "coefficients too large"
    if kind in ("verify", "classify") and reason == "not involutive":
        return split_by_parsing(expect["sigma"])
    return kind == "classify" and reason in ("coefficients too large", "unrecognized")
