"""make_point_config refuses exactly as the per-subset rank test it replaced:
the same first failing triple, six or point and the same message, on seeded
configurations of 7 and 8 points. The reference takes one rank per subset:
a 6x6 rank per six points, and for 8 points a 10x10 rank per point."""

from itertools import combinations
from math import gcd

import pytest

from planecremona.errors import ValidationError
from planecremona.exactpoly import matrix_rank, multiplicity_conditions
from planecremona.involutions import make_point_config
from planecremona.projmaps import ProjPoint, collinear
from tests.streams import SplitMix64

KINDS = {7: "geiser", 8: "bertini"}
PER_CASE = 200


def reference_refusal(pts):
    """Message of the first failing general-position condition, or None."""
    n = len(pts)
    if len(set(pts)) != n:
        return "points are not pairwise distinct"
    for t in combinations(range(n), 3):
        if collinear(*(pts[i] for i in t)):
            return "points {}, {}, {} are collinear".format(*t)
    coords = [p.coords for p in pts]
    conic_rows = multiplicity_conditions(coords, 2, [1] * n)
    for six in combinations(range(n), 6):
        if matrix_rank([conic_rows[i] for i in six]) < 6:
            return "points {}, {}, {}, {}, {}, {} lie on a conic".format(*six)
    if n == 8:
        for i in range(n):
            if matrix_rank(multiplicity_conditions(coords, 3, [1] * i + [2] + [1] * (n - 1 - i))) < 10:
                return f"a cubic through the points is singular at point {i}"
    return None


def refusal(pts):
    """make_point_config's refusal message, or None when it accepts."""
    try:
        make_point_config(pts, KINDS[len(pts)])
    except ValidationError as exc:
        assert exc.reason == "degenerate configuration"
        return str(exc)
    return None


def _shuffled(stream, items):
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = stream.next_below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def _parameters(stream, count, exclude=()):
    """count distinct rationals t = p/q, |p| <= 6 and 1 <= q <= 4, as
    (p, q) in lowest terms, none of them in exclude."""
    out = []
    while len(out) < count:
        p, q = stream.next_int(-6, 6), stream.next_int(1, 4)
        g = gcd(p, q)
        t = (p // g, q // g)
        if t not in out and t not in exclude:
            out.append(t)
    return out


def random_points(stream, n, index=0):
    """n points with coordinates in [-3, 3]: repeated and collinear points
    are common."""
    out = []
    while len(out) < n:
        c = tuple(stream.next_int(-3, 3) for _ in range(3))
        if any(c):
            out.append(ProjPoint(*c))
    return out


def conic_points(stream, n, index=0):
    """6 + index % (n - 5) points on the conic (1 - t^2 : 2t : 1 + t^2), so
    all n of them in turn, and random points, in a seeded order."""
    k = 6 + index % (n - 5)
    planted = [ProjPoint(q * q - p * p, 2 * p * q, q * q + p * p) for p, q in _parameters(stream, k)]
    return _shuffled(stream, planted + random_points(stream, n - k))


def nodal_cubic_points(stream, n, index=0):
    """The node (0:0:1) of y^2 z = x^3 + x^2 z and n - 1 more of its points
    (t^2 - 1 : t(t^2 - 1) : 1), in a seeded order."""
    on_cubic = [ProjPoint(q * (p * p - q * q), p * (p * p - q * q), q ** 3)
                for p, q in _parameters(stream, n - 1, exclude={(1, 1), (-1, 1)})]
    return _shuffled(stream, [ProjPoint(0, 0, 1)] + on_cubic)


GENERATORS = {"random": random_points, "conic": conic_points, "nodal cubic": nodal_cubic_points}

# outcomes each case must reach, so that every branch is compared
REACHED = {
    ("random", 7): {"distinct", "collinear", "conic", "accepted"},
    ("random", 8): {"distinct", "collinear", "conic", "accepted"},
    ("conic", 7): {"conic"},
    ("conic", 8): {"conic"},
    ("nodal cubic", 7): {"accepted"},
    ("nodal cubic", 8): {"singular"},
}


def _outcome(message):
    if message is None:
        return "accepted"
    return next(k for k in ("distinct", "collinear", "conic", "singular") if k in message)


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("name", list(GENERATORS))
def test_refusals_match_the_per_subset_ranks(name, n):
    stream = SplitMix64(100 * n + list(GENERATORS).index(name))
    reached = set()
    for index in range(PER_CASE):
        pts = GENERATORS[name](stream, n, index)
        expected = reference_refusal(pts)
        assert refusal(pts) == expected, [p.coords for p in pts]
        reached.add(_outcome(expected))
    assert REACHED[name, n] <= reached


@pytest.mark.parametrize("n", [7, 8])
def test_points_all_on_one_conic_are_refused_at_the_first_six(n):
    stream = SplitMix64(n)
    pts = [ProjPoint(q * q - p * p, 2 * p * q, q * q + p * p) for p, q in _parameters(stream, n)]
    assert refusal(pts) == reference_refusal(pts) == "points 0, 1, 2, 3, 4, 5 lie on a conic"
