from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement, permutations
from math import gcd, isqrt, perm, prod
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from planecremona.configs import reference_seven_points
from planecremona.errors import ValidationError
from planecremona.exactpoly import (
    Evaluator,
    HPoly,
    bform_gcd,
    bform_rational_roots,
    cross,
    dot,
    hpoly_gcd,
    hpoly_gcd_many,
    is_squarefree,
    kernel_basis,
    matrix_rank,
    monomials,
    multiplicity_conditions,
    multiplicity_values,
    null_vector,
    odd_multiplicity_root_count,
    resultant,
    values_at,
)
from planecremona.exactpoly import _bareiss_det, _coprime_at_a_value, _prs_gcd
from planecremona.involutions import GeiserInvolution
from tests.streams import SplitMix64, apply_matrix, next_nonzero_int, perp_basis

X, Y, Z = (HPoly.variable(i) for i in range(3))
CONIC = X * Z - Y * Y
P61 = (1 << 61) - 1


def _bform(d, coeffs):
    """The binary form sum c_i x^(d-i) z^i."""
    return HPoly(d, {(d - i, 0, i): c for i, c in enumerate(coeffs)})


def _coeffs(form):
    """The coefficients [c_0, ..., c_d] of a binary form, c_i at x^(d-i) z^i."""
    return [form.terms.get((form.degree - i, 0, i), 0) for i in range(form.degree + 1)]


def random_poly(stream, degree, lo=-4, hi=4):
    terms = {}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            c = stream.next_int(lo, hi)
            if c:
                terms[(i, j, degree - i - j)] = c
    return HPoly(degree, terms)


# -- evaluation --------------------------------------------------------------

def test_eval_examples():
    assert CONIC.eval((0, 1, 0)) == -1
    assert CONIC.eval((1, 1, 1)) == 0
    assert (X ** 3).eval((2, 5, 7)) == 8


def test_eval_rational_point():
    f = HPoly(2, {(2, 0, 0): Fraction(1, 2), (0, 0, 2): -3})
    assert f.eval((Fraction(2, 3), 0, Fraction(1, 3))) == Fraction(2, 9) - Fraction(1, 3)


def test_values_at_ints_stay_ints_and_rationals_are_exact():
    forms = [CONIC, X ** 3, HPoly.zero(2)]
    vals = values_at(forms, (2, 5, 7))
    assert vals == [-11, 8, 0] and all(type(v) is int for v in vals)
    assert type(CONIC.eval((2, 5, 7))) is int
    pt = (Fraction(1, 2), 1, Fraction(1, 3))
    assert values_at([X * Y, Z ** 3, CONIC], pt) == [Fraction(1, 2), Fraction(1, 27), Fraction(-5, 6)]
    assert CONIC.eval(pt) == Fraction(-5, 6)
    assert HPoly(1, {(1, 0, 0): Fraction(1, 3)}).eval((1, 0, 0)) == Fraction(1, 3)


def naive_values(forms, pt):
    """Term-by-term values: every term's coefficient times the point's
    coordinates, each multiplied in as often as its exponent says."""
    return [sum(prod([pt[0]] * i + [pt[1]] * j + [pt[2]] * k, start=c) for (i, j, k), c in f.terms.items())
            for f in forms]


big = st.integers(-10 ** 30, 10 ** 30)
rational = st.one_of(big, st.fractions(max_denominator=10 ** 6), st.integers(-3, 3))


@st.composite
def form_families(draw):
    """1-4 forms of degrees 0-5, sparse or dense, some zero, with int or
    Fraction coefficients; and maybe the first form again with its terms
    stored in the reverse order."""
    out = []
    for degree in draw(st.lists(st.integers(0, 5), min_size=1, max_size=4)):
        monos = monomials(degree)
        chosen = draw(st.lists(st.sampled_from(monos), unique=True, max_size=len(monos)))
        out.append(HPoly(degree, {e: draw(rational) for e in chosen}))
    if draw(st.booleans()):
        out.append(HPoly(out[0].degree, dict(reversed(out[0].terms.items()))))
    return out


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(forms=form_families(), pt=st.tuples(rational, rational, rational),
       ints=st.booleans())
def test_evaluator_matches_the_term_by_term_sum(forms, pt, ints):
    if ints:
        pt = tuple(int(v) for v in pt)
    expected = naive_values(forms, pt)
    evaluate = Evaluator(forms)
    for got in (evaluate(pt), evaluate(pt), values_at(forms, pt)):
        assert got == expected
        assert [type(v) for v in got] == [type(v) for v in expected]


def test_evaluator_keeps_int_values_int_at_a_fraction_point():
    half = (Fraction(1, 2), 1, 1)
    vals = values_at([X, Y * Z, HPoly.zero(2), HPoly.constant(5)], half)
    assert vals == [Fraction(1, 2), 1, 0, 5]
    assert [type(v) for v in vals] == [Fraction, int, int, int]
    assert values_at([], half) == []


# -- gcd ----------------------------------------------------------------------

def test_gcd_examples():
    assert hpoly_gcd(X * CONIC, Z * CONIC) == CONIC.canonical()
    assert hpoly_gcd(X * X, Y * Y).degree == 0
    f = HPoly(2, {(2, 0, 0): Fraction(3, 2), (0, 1, 1): -2})
    assert hpoly_gcd(f, f) == f.canonical()


def test_gcd_rejects_two_zeros():
    with pytest.raises(ValidationError) as err:
        hpoly_gcd(HPoly.zero(2), HPoly.zero(3))
    assert err.value.reason == "zero input"


def test_gcd_divides_both_exactly():
    stream = SplitMix64(7)
    for _ in range(25):
        f = random_poly(stream, stream.next_int(1, 3))
        g = random_poly(stream, stream.next_int(1, 3))
        if f.is_zero() or g.is_zero():
            continue
        h = random_poly(stream, stream.next_int(0, 2))
        if h.is_zero():
            continue
        a, b = f * h, g * h
        d = hpoly_gcd(a, b)
        # divides both with exact zero remainder, certified by multiplication
        qa, qb = a.divexact(d), b.divexact(d)
        assert qa * d == a and qb * d == b
        # any common divisor divides it: h was a planted common divisor
        assert d.divexact(hpoly_gcd(d, h)) * hpoly_gcd(d, h) == d
        assert hpoly_gcd(d, h) == h.canonical()



def test_gcd_many_finds_planted_factor():
    # two lines through (1:3:7), (2:-5:1) and (3:-1:2), (1:4:-3)
    line1 = HPoly(1, {(1, 0, 0): 38, (0, 1, 0): 13, (0, 0, 1): -11})
    line2 = HPoly(1, {(1, 0, 0): -5, (0, 1, 0): 11, (0, 0, 1): 13})
    assert line1.eval((2, -5, 1)) == 0 and line2.eval((1, 4, -3)) == 0
    stream = SplitMix64(11)
    forms = [random_poly(stream, 3) for _ in range(3)]
    assert hpoly_gcd_many(forms).degree == 0
    # times y, the first form vanishes at (1:0:0): the lines are taken
    # through a point (1:a:b) away from it, in the frame sheared to it
    for common in (HPoly.constant(1), Y):
        for planted in (X + Y * 2 - Z, CONIC, line1, line2 * X, line1 * line2):
            found = hpoly_gcd_many([f * common * planted for f in forms])
            assert found == (common * planted).canonical()


def test_gcd_many_of_forms_without_a_pure_power():
    # no form has a pure power of x, y or z: the lines are taken through a
    # point (1:a:b) away from the coordinate points, and only the result is
    # moved back
    h = X * 3 - Y * 2 + Z * 7
    assert hpoly_gcd_many([X * Y * h, X * Z * h, Y * Z * h]) == h
    assert hpoly_gcd_many([X * Y, X * Z, Y * Z]) == HPoly.constant(1)


def test_reference_geiser_components_are_coprime_though_each_two_share_a_cubic():
    # the gcd of all three is taken on each line, not pairwise
    comps = GeiserInvolution(reference_seven_points()).interpolated_map.components
    assert [hpoly_gcd(comps[i], comps[j]).degree for i, j in ((0, 1), (0, 2), (1, 2))] == [3, 3, 3]
    assert hpoly_gcd_many(comps) == HPoly.constant(1)


def test_gcd_refuses_a_candidate_that_divides_neither_form():
    # coprime conics through (5:17:1) and (3:-17:1), the points of the first
    # two lines through (1:0:0), y = 17 z and y = -17 z: on both lines their
    # restrictions share one root, so the line through the two points is
    # interpolated as a candidate of degree 1, and only division refutes it
    f = (X - Z * 5) * (X - Z * 3) + (Y - Z * 17) * (Y + Z * 17)
    g = X * X + X * Y - X * Z * 76 + Z * Z * 270
    for p in ((5, 17, 1), (3, -17, 1)):
        assert f.eval(p) == 0 and g.eval(p) == 0
    assert hpoly_gcd(f, g) == HPoly.constant(1)
    assert hpoly_gcd_many([f, g]) == HPoly.constant(1)
    assert hpoly_gcd(f * CONIC, g * CONIC) == CONIC.canonical()


# points of two fixed lines: (1:3:7), (2:-5:1) on the first and (3:-1:2),
# (1:4:-3) on the second; a line and a smooth conic through the first point
# of each, and a line through the second point of each: forms that meet, or
# share a factor, at points of a common line
THROUGH_FIRST = X * 13 + Y * 19 - Z * 10
CONIC_THROUGH_FIRST = X * X * 159 + X * Y * 437 - Z * Z * 30
THROUGH_SECOND = X * 11 + Y * 7 + Z * 13


def test_probe_points_lie_where_the_gcd_tests_need_them():
    for p in ((1, 3, 7), (3, -1, 2)):
        assert THROUGH_FIRST.eval(p) == 0 and CONIC_THROUGH_FIRST.eval(p) == 0
    for p in ((2, -5, 1), (1, 4, -3)):
        assert THROUGH_SECOND.eval(p) == 0


def test_gcd_scan_reaches_one_for_forms_meeting_on_both_probe_lines():
    # coprime, but they meet at a point of each line
    f, g = THROUGH_FIRST * (X * X + Y * Z), CONIC_THROUGH_FIRST
    assert hpoly_gcd(f, g) == HPoly.constant(1)
    assert hpoly_gcd_many([f, g]) == HPoly.constant(1)


def test_gcd_scan_goes_below_the_bound():
    # a common line, and cofactors that meet at a point of each fixed line
    common = X * 2 - Y * 7 + Z * 5
    f = THROUGH_FIRST * (X * X + Y * Z) * common
    g = CONIC_THROUGH_FIRST * common
    assert hpoly_gcd(f, g) == common
    assert hpoly_gcd_many([f, g]) == common


def test_gcd_with_a_root_at_the_second_point_of_both_probe_lines():
    f, g = THROUGH_SECOND * (X * X + Y * Z), THROUGH_SECOND * CONIC_THROUGH_FIRST
    assert hpoly_gcd(f, g) == THROUGH_SECOND
    assert hpoly_gcd_many([f, g, THROUGH_SECOND * Z]) == THROUGH_SECOND
    # in (x : z), the second points are (2 : 1) and (1 : -3)
    common = (X - Z * 2) * (X * 3 + Z)
    a, b = common * X, common * (X + Z)
    assert bform_gcd(a, b) == _bform(2, [3, -5, -2])


def test_gcd_with_a_factor_containing_a_probe_line():
    # the common factor contains the fixed lines through (1:3:7), (2:-5:1)
    # and (3:-1:2), (1:4:-3)
    line1 = HPoly(1, {(1, 0, 0): 38, (0, 1, 0): 13, (0, 0, 1): -11})
    line2 = HPoly(1, {(1, 0, 0): -5, (0, 1, 0): 11, (0, 0, 1): 13})
    f, g = X * X + Y * Z, CONIC_THROUGH_FIRST
    assert hpoly_gcd(line1 * f, line1 * g) == line1.canonical()
    both = line1 * line2
    assert hpoly_gcd(both * f, both * g * X) == both.canonical()


def test_gcd_of_forms_with_coefficients_multiples_of_the_prime():
    # multiples of the prime P61 = 2^61 - 1, and a pair that shares a factor modulo it only
    conic = CONIC_THROUGH_FIRST
    assert hpoly_gcd(X * conic * P61, Y * conic * P61 * P61) == conic
    assert hpoly_gcd((X * Y + Z * Z) * P61, X * Z * P61) == HPoly.constant(1)
    # x y + p z^2 and x z share x mod p, not over Q
    assert hpoly_gcd(X * Y + Z * Z * P61, X * Z) == HPoly.constant(1)


def test_gcd_of_coprime_degree_twelve_forms():
    stream = SplitMix64(12)
    f, g = random_poly(stream, 12), random_poly(stream, 12)
    assert hpoly_gcd(f, g) == HPoly.constant(1)


def test_gcd_of_degree_twelve_forms_sharing_a_line():
    stream = SplitMix64(12)
    line = X * 5 - Y * 3 + Z * 2
    f, g = random_poly(stream, 11) * line, random_poly(stream, 11) * line
    assert hpoly_gcd(f, g) == line
    assert hpoly_gcd_many([f, g, f + g * 2]) == line


def _linear_forms(data, variables, n):
    """n pairwise non-proportional nonzero linear forms in the variables."""
    def direction(v):
        g = gcd(*v) * (1 if next(c for c in v if c) > 0 else -1)
        return tuple(c // g for c in v)

    entry = [st.integers(-5, 5) if v in variables else st.just(0) for v in range(3)]
    vecs = data.draw(st.lists(st.tuples(*entry).filter(any), min_size=n, max_size=n,
                              unique_by=direction))
    return [HPoly(1, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c}) for a, b, c in vecs]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_gcd_of_planted_factor_and_coprime_cofactors(data):
    """hpoly_gcd(h f1, h g1) = h when f1 and g1 are products of pairwise
    non-proportional linear forms, hence coprime; h is drawn at random,
    sometimes reducible or Fraction-scaled. Forms free of y also go through
    bform_gcd."""
    binary = data.draw(st.booleans())
    variables = (0, 2) if binary else (0, 1, 2)

    def form(degree):
        return HPoly(degree, {e: data.draw(st.integers(-6, 6)) for e in monomials(degree)
                              if not (binary and e[1])})

    h = form(data.draw(st.integers(0, 3)))
    if data.draw(st.booleans()):
        h = h * form(data.draw(st.integers(1, 2)))
    assume(not h.is_zero())
    if data.draw(st.booleans()):
        h = h * data.draw(st.fractions(-9, 9, max_denominator=7).filter(bool))
    nf, ng = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    lines = _linear_forms(data, variables, nf + ng)
    f, g = h, h
    for line in lines[:nf]:
        f = f * line
    for line in lines[nf:]:
        g = g * line
    assert hpoly_gcd(f, g) == h.canonical()
    if binary:
        assert bform_gcd(f, g) == h.canonical()


# -- the value certificate and the shear point of hpoly_gcd_many ---------------

def _times(p, q):
    """The product of two coefficient lists in t (entry i at t^i)."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _coefficient_list(data, degree):
    big = data.draw(st.booleans())
    entry = st.integers(-2**64, 2**64) if big else st.integers(-9, 9)
    if data.draw(st.booleans()):
        entry = st.fractions(-99, 99, max_denominator=12)
    body = data.draw(st.lists(entry, min_size=degree, max_size=degree))
    return body + [data.draw(entry.filter(bool))]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_the_value_certificate_claims_coprime_only_for_coprime_lists(data):
    """Whenever _coprime_at_a_value says coprime, the pseudo-remainder
    chain on the same lists ends at a constant. Some draws plant a factor
    k t - m with |m| up to 2^40, or with its root near xi/2 (a planted
    factor alone, or times a small cofactor), and some lists are empty."""
    n = data.draw(st.integers(2, 4))
    lists = [_coefficient_list(data, data.draw(st.integers(0, 12))) for _ in range(n)]
    planted = data.draw(st.sampled_from(["none", "big", "near"]))
    if planted != "none":
        m = data.draw(st.integers(-2**40, 2**40) if planted == "big" else st.integers(-40, 40))
        factor = [-m, data.draw(st.integers(1, 3))]
        if planted == "near":                # the first list is the factor: root m, xi/2 = |m| + 1
            lists[0] = factor
        lists = [_times(r, factor) if i or planted == "big" else r for i, r in enumerate(lists)]
    for i in data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1)):
        lists[i] = []
    if _coprime_at_a_value(lists):
        r = []
        for line in lists:
            r = _prs_gcd(r, line)
        assert len(r) == 1 and planted == "none"


@pytest.mark.parametrize("m", [1, 7, 2**40])
def test_gcd_of_a_line_and_its_multiple_is_the_line(m):
    # restricted to any line, t - m and (t - m)(t + 1): their values at
    # xi = 2 m + 2 share m + 2 > xi / 2, so the pseudo-remainder sequence decides
    line = X - Z * m
    assert not _coprime_at_a_value([[-m, 1], [-m, 1 - m, 1]])
    assert hpoly_gcd_many([line, line * (X + Z)]) == line
    assert hpoly_gcd(line * (X + Z), line) == line


def test_coprime_forms_whose_values_share_a_large_factor():
    # x^2 + z^2 and x + 13 z: at xi = 4 both restrictions take the value 17
    f, g = X * X + Z * Z, X + Z * 13
    assert not _coprime_at_a_value([[1, 0, 1], [13, 1]])
    assert hpoly_gcd_many([f, g]) == HPoly.constant(1)
    assert bform_gcd(f, g) == HPoly.constant(1)


def test_gcd_of_forms_one_of_which_contains_the_first_line():
    # the first line through (1:0:0) is y = 17 z: the first form restricts to
    # [] there, and the certificate reads the other two
    first = (Y - Z * 17) * (X - Z)
    assert hpoly_gcd_many([first, (X - Z) * (X + Z), (X - Z) * (X + Z * 2)]) == X - Z
    assert hpoly_gcd_many([first, X + Z]) == HPoly.constant(1)
    assert _coprime_at_a_value([[], [-1, 0, 1], [-1, 0, 1], [3, 1]])


def _count_shears(monkeypatch):
    sheared = []
    original = HPoly.shear
    monkeypatch.setattr(HPoly, "shear", lambda f, m, axis: sheared.append(m) or original(f, m, axis))
    return sheared


def test_the_shear_point_comes_from_any_form_with_its_x_power(monkeypatch):
    # the first form vanishes at (1:0:0), the second does not: no shear, and
    # the gcd is today's, with a planted factor and without one
    stream = SplitMix64(45)
    f, g, k = (random_poly(stream, 3) for _ in range(3))
    g = g + X ** 3
    sheared = _count_shears(monkeypatch)
    for planted in (HPoly.constant(1), X + Y * 2 - Z, X * X + Y * Z):
        assert hpoly_gcd_many([Y * f * planted, g * planted, Z * k * planted]) == planted.canonical()
    assert sheared == []


def test_forms_without_an_x_power_are_still_sheared(monkeypatch):
    # no form has its x^d term: q = (1:1:1) is the first point (1:a:b) off
    # the first form, and the frame is sheared to it
    h = Y * 3 - Z * 2 + X
    sheared = _count_shears(monkeypatch)
    assert hpoly_gcd_many([Y * Z * h, Y * Y * h, Z * Z * h]) == h
    assert hpoly_gcd_many([Y * Z, Y * Y + Z * Z, Y * Z * 2 + Z * Z]) == HPoly.constant(1)
    assert sheared[0] == ((1, 0, 0), (1, 1, 0), (1, 0, 1))


# -- resultants ----------------------------------------------------------------

def test_resultant_examples():
    # res_x(x^2 - z^2, x - 2 z) = (2 z)^2 - z^2
    assert resultant(X * X - Z * Z, X - Z * 2, 0) == Z * Z * 3
    f = HPoly(2, {(1, 0, 1): 1, (2, 0, 0): -1})  # x(z - x): root z = x
    g = HPoly(2, {(0, 1, 1): 1, (0, 2, 0): -1})  # y(z - y): root z = y
    rr = resultant(f, g, 2)
    assert rr == (X * Y * (X - Y)) or rr == (X * Y * (Y - X))
    assert rr.eval((1, 1, 0)) == 0          # common root z = 1
    assert rr.eval((1, 2, 0)) != 0          # roots z = 1 vs z = 2


def test_resultant_linear_symbolic():
    # res_z(z - x, z - y) = x - y up to sign
    r = resultant(Z - X, Z - Y, 2)
    assert r == (X - Y) or r == (Y - X)


def test_resultant_pencil_of_cubics_degree_nine(seven_config):
    from planecremona.involutions import GeiserInvolution
    from planecremona.projmaps import ProjPoint

    g = GeiserInvolution(seven_config)
    f, h = (sum((q * c for c, q in zip(coeffs, g.space)), HPoly.zero(3))
            for coeffs in perp_basis(g._through(ProjPoint(2, 3, 7))[1]))
    # move to coordinates where no intersection point sits at the projection
    # center (0:0:1); otherwise the elimination drops that point and one
    # degree with it
    m = ((1, 0, 1), (0, 1, 2), (0, 0, 1))
    fm, hm = apply_matrix(f, m), apply_matrix(h, m)
    assert fm.eval((0, 0, 1)) != 0 and hm.eval((0, 0, 1)) != 0
    r = resultant(fm, hm, 2)
    assert r.degree == 9 and not r.is_zero()


def _brute_common_root(fc, gc, height=6):
    """Brute-force search for a shared rational root of small height."""
    def val(coeffs, r):
        return sum(Fraction(c) * r ** i for i, c in enumerate(reversed(coeffs)))

    for p in range(-height, height + 1):
        for q in range(1, height + 1):
            r = Fraction(p, q)
            if val(fc, r) == 0 and val(gc, r) == 0:
                return r
    return None


def test_resultant_vanishing_iff_common_root():
    # polynomials assembled from small rational linear factors, so the
    # brute-force root search is a complete oracle
    stream = SplitMix64(11)
    for _ in range(30):
        roots_f = [Fraction(stream.next_int(-3, 3), stream.next_int(1, 3)) for _ in range(2)]
        roots_g = [Fraction(stream.next_int(-3, 3), stream.next_int(1, 3)) for _ in range(2)]

        def poly_from(roots):
            coeffs = [Fraction(1)]
            for r in roots:
                coeffs = [a for a in coeffs] + [Fraction(0)]
                for i in range(len(coeffs) - 1, 0, -1):
                    coeffs[i] -= r * coeffs[i - 1]
            return coeffs

        def form_from(coeffs):
            n = len(coeffs) - 1
            return HPoly(n, {(n - i, 0, i): c for i, c in enumerate(coeffs)})

        fc, gc = poly_from(roots_f), poly_from(roots_g)
        res = resultant(form_from(fc), form_from(gc), 0)
        shared = _brute_common_root(fc, gc)
        assert res.is_zero() == (shared is not None)


def _leibniz_det(mat):
    """Determinant of a square matrix of forms as the signed sum over
    permutations, the sign counted from inversions."""
    n, total = len(mat), HPoly.zero(0)
    for perm in permutations(range(n)):
        term = HPoly.constant((-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)))
        for i, j in enumerate(perm):
            term = term * mat[i][j]
        total = total + term
    return total


def test_bareiss_det_swaps_rows_at_a_zero_pivot_with_its_sign():
    zero = HPoly.zero(1)
    mat = [[zero, X + Y, Z], [X - Z, Y * 2, X], [Y, Z * 3, X + Z]]
    det = _bareiss_det(mat)
    assert not det.is_zero() and det == _leibniz_det(mat)
    assert _bareiss_det([mat[1], mat[0], mat[2]]) == -det == _leibniz_det([mat[1], mat[0], mat[2]])
    assert _bareiss_det([[HPoly.zero(0), HPoly.constant(2)], [HPoly.constant(3), HPoly.constant(5)]]) \
        == HPoly.constant(-6)
    assert _bareiss_det([[zero, X], [zero, Y]]).is_zero()


def test_resultant_with_an_operand_of_degree_zero_in_the_variable():
    """res(f, g) = f^n for f free of the variable and g of degree n in it,
    and res(g, f) = f^n too."""
    f, g, h = X + Z * 2, Y * Y - X * Z, Y * 3 - X
    assert resultant(f, g, 1) == resultant(g, f, 1) == f * f
    assert resultant(f, h, 1) == resultant(h, f, 1) == f


def test_resultant_zero_input_rejected():
    with pytest.raises(ValidationError):
        resultant(HPoly.zero(2), X * X, 2)


# -- linear algebra --------------------------------------------------------------

def test_kernel_identity_empty():
    assert kernel_basis([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == []


def test_kernel_zero_matrix():
    basis = kernel_basis([[0] * 5, [0] * 5])
    assert len(basis) == 5
    assert basis[0] == (1, 0, 0, 0, 0)


def _rref(rows):
    """Independent textbook reduced row echelon form over Fraction: the
    nonzero rows and the pivot columns."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank, pivots = 0, []
    for c in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][c]
        m[rank] = [v / pv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        pivots.append(c)
    return m[:rank], pivots


def _gauss_rank(rows):
    return len(_rref(rows)[1])


def _rref_kernel(rows):
    """Kernel basis read off the RREF, one vector per free column (1 there,
    0 at the other free columns), scaled to coprime integers with the first
    nonzero entry positive."""
    m, pivots = _rref(rows)
    ncols = len(rows[0])
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, pc in zip(m, pivots):
            vec[pc] = -row[free]
        den = 1
        for v in vec:
            den = den * v.denominator // gcd(den, v.denominator)
        ints = [int(v * den) for v in vec]
        g = 0
        for v in ints:
            g = gcd(g, v)
        g = g if next(v for v in ints if v) > 0 else -g
        basis.append(tuple(v // g for v in ints))
    return basis


def test_kernel_vanishing_conditions_of_cubics():
    from planecremona.configs import SEVEN_POINTS

    monos = [(i, j, 3 - i - j) for i in range(4) for j in range(4 - i)]
    rows = [[a ** e[0] * b ** e[1] * c ** e[2] for e in monos] for a, b, c in SEVEN_POINTS]
    basis = kernel_basis(rows)
    assert len(basis) == 3
    assert matrix_rank(rows) == 7
    assert _gauss_rank(rows) == 7
    for v in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_kernel_annihilation_and_rank_nullity_random():
    stream = SplitMix64(13)
    for _ in range(20):
        nrows, ncols = stream.next_int(1, 5), stream.next_int(1, 6)
        rows = [[stream.next_int(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        basis = kernel_basis(rows)
        r = matrix_rank(rows)
        assert r == _gauss_rank(rows)
        assert len(basis) + r == ncols
        for v in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0


@pytest.mark.parametrize("rows", [[], [[1, 2], [3]]])
def test_kernel_basis_refuses_an_empty_or_ragged_matrix(rows):
    with pytest.raises(ValidationError) as err:
        kernel_basis(rows)
    assert err.value.reason == "bad input"


@pytest.mark.parametrize("rows, rank", [
    ([[0, 0, 0], [0, 0, 0]], 0),
    ([[0, 0, 0], [2, -4, 6], [-1, 2, -3]], 1),
    ([[0, 0, 0], [1, 2, 3], [2, 4, 6], [0, 1, -1], [1, 3, 2]], 2),
    ([[1, 2, 3], [2, 4, 6], [0, 1, -1], [1, 0, 0]], 3),
])
def test_null_vector_is_certified_at_rank_2_only(rows, rank):
    assert matrix_rank(rows) == rank
    k = null_vector(rows)
    if rank != 2:
        assert k is None
        return
    # the cross product of the first two independent rows, orthogonal to all
    assert k == cross([1, 2, 3], [0, 1, -1]) and all(dot(r, k) == 0 for r in rows)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_kernel_basis_matches_fraction_rref(data):
    nrows, ncols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8))
    entry = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=7))
    rows = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
    # rank-deficient matrices: rows that are combinations of the drawn ones
    combos = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=nrows, max_size=nrows),
                                max_size=3))
    rows += [[sum(c * row[j] for c, row in zip(cs, rows)) for j in range(ncols)] for cs in combos]
    assert kernel_basis(rows) == _rref_kernel(rows)


# -- binary forms ----------------------------------------------------------------

def _discriminant(a, b, c):
    """b^2 - 4ac for binary forms a, b, c, as in PencilForm.beta =
    4 (B^2 - 4 A C_d) on de Jonquieres data."""
    return b * b - (a * c) * 4


def test_discriminant_conic_normal_form():
    a, b, c = _bform(0, [-1]), HPoly.zero(1), _bform(2, [0, 1, 0])
    disc = _discriminant(a, b, c)
    assert disc.degree == 2 and _coeffs(disc) == [0, 4, 0]
    assert is_squarefree(disc)


def test_discriminant_zero_is_callers_problem():
    disc = _discriminant(_bform(0, [1]), HPoly.zero(1), HPoly.zero(2))
    assert disc.is_zero()
    with pytest.raises(ValidationError):
        is_squarefree(disc)


def test_discriminant_generic_degree():
    # degree-d data (A: d-2, B: d-1, C: d) gives degree 2d-2, symbolically
    stream = SplitMix64(5)
    for d in (3, 4, 5, 6):
        a = _bform(d - 2, [stream.next_int(1, 5) for _ in range(d - 1)])
        b = _bform(d - 1, [stream.next_int(-5, 5) for _ in range(d)])
        c = _bform(d, [stream.next_int(-5, 5) for _ in range(d + 1)])
        assert _discriminant(a, b, c).degree == 2 * d - 2


def test_squarefree_examples():
    assert is_squarefree(_bform(2, [0, 4, 0]))            # 4xz
    assert not is_squarefree(_bform(4, [0, 0, 1, 0, 0]))  # x^2 z^2


@pytest.mark.parametrize("fn", [
    lambda q: bform_gcd(q, X), bform_rational_roots, is_squarefree, odd_multiplicity_root_count,
])
def test_binary_form_functions_refuse_y(fn):
    # x y is no binary form in (x, z): dropping its y would answer for x
    with pytest.raises(ValidationError) as exc:
        fn(X * Y)
    assert exc.value.reason == "bad variables"


def test_bform_roots_and_gcd():
    q = _bform(3, [2, -3, -3, 2])
    assert bform_rational_roots(q) == [(1, -1), (1, 2), (2, 1)]
    g = bform_gcd(q, q.partial(2))
    assert g.degree == 0


S, T = _bform(1, [1, 0]), _bform(1, [0, 1])


def _euclid_gcd(f, g):
    """Reference gcd of binary forms: the common power of x, times the
    Fraction Euclid gcd of the rest at x = 1, rehomogenized."""
    def split(form):
        c = _coeffs(form)
        v = 0
        while not c[-1]:
            c.pop()
            v += 1
        return v, [Fraction(x) for x in c]      # c[i] multiplies t^i

    (vf, a), (vg, b) = split(f), split(g)
    while b:
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            shift = len(a) - len(b)
            a = [x - q * b[i - shift] if i >= shift else x for i, x in enumerate(a)][:-1]
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    k = len(a) - 1
    return (_bform(k, a) * _bform(min(vf, vg), [1] + [0] * min(vf, vg))).canonical()


def test_bform_gcd_examples():
    # (0:1) is a root of both: x is the gcd, though 1 + z and 1 - z are coprime
    assert bform_gcd(S * (S + T), S * (S - T)) == S
    # coprime over Q; the first two pairs are equal modulo 2^61 - 1, so
    # their degree bound is 1 and the linear system answers them
    assert bform_gcd(S + T * P61, S) == _bform(0, [1])
    assert bform_gcd(S + T, S + T * (P61 + 1)) == _bform(0, [1])
    assert bform_gcd(S * P61 + T, S) == _bform(0, [1])
    # every coefficient a multiple of the prime: its reduction is zero
    assert bform_gcd((S + T) * P61, S) == _bform(0, [1])
    assert bform_gcd((S + T) * P61, S + T) == S + T
    assert bform_gcd((S + T) * (S - T) * P61, (S - T) * 2) == S - T
    # constants and Fraction coefficients
    assert bform_gcd(_bform(0, [6]), _bform(0, [P61])) == _bform(0, [1])
    assert bform_gcd(_bform(0, [P61]), S * S) == _bform(0, [1])
    half = _bform(2, [Fraction(1, 2), Fraction(-1, 3), 0])      # x (x/2 - z/3)
    assert bform_gcd(half, _bform(1, [Fraction(3, 7), Fraction(-2, 7)])) == _bform(1, [3, -2])
    assert bform_gcd(half, _bform(1, [Fraction(1, 5), 0])) == S


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_bform_gcd_matches_fraction_euclid(data):
    """Products with a planted common factor, some with coefficients that are
    multiples of 2^61 - 1 or shifted by it, against a Fraction Euclid."""
    entry = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=5))

    def form(lo, hi):
        d = data.draw(st.integers(lo, hi))
        return _bform(d, data.draw(st.lists(entry, min_size=d + 1, max_size=d + 1)))

    h, f, g = form(0, 3), form(0, 4), form(0, 4)
    k = data.draw(st.integers(0, 2))
    h = h * _bform(k, [1] + [0] * k)         # x^k: a root at (0:1)
    f, g = f * h, g * h
    for scale in data.draw(st.lists(st.sampled_from([P61, -P61, Fraction(1, P61)]), max_size=2)):
        f = f * scale
    if data.draw(st.booleans()):
        g = g + form(g.degree, g.degree) * P61
    assume(not (f.is_zero() and g.is_zero()))
    expect = _euclid_gcd(f, g) if not (f.is_zero() or g.is_zero()) else (f + g).canonical()
    assert bform_gcd(f, g) == expect


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_squarefree_is_gcd_of_the_form_and_both_partials(data):
    """is_squarefree asks only gcd(dq/ds, dq/dt); compare the gcd with q too,
    on products of small linear and quadratic factors, some of them squared."""
    factor = st.lists(st.integers(-4, 4), min_size=2, max_size=3)
    factors = data.draw(st.lists(factor, min_size=1, max_size=5))
    factors += 2 * data.draw(st.lists(factor, max_size=1))
    q = _bform(0, [1])
    for cs in factors:
        q = q * _bform(len(cs) - 1, cs)
    assume(not q.is_zero())
    g = bform_gcd(bform_gcd(q, q.partial(0)), q.partial(2))
    assert is_squarefree(q) == (g.degree == 0)


def test_bform_roots_without_a_size_bound():
    # coefficients above 10**12, which a divisor search over them cannot reach
    big = 10**15 + 37
    lin = _bform(1, [-big, 3])
    q = lin * lin * _bform(1, [7, 5]) * _bform(2, [1, 0, 2]) * _bform(1, [0, 1])
    assert bform_rational_roots(q) == [(1, 0), (3, big), (5, -7)]


def test_bform_roots_match_brute_force():
    """Products of random linear factors a s + b t (|a|, |b| <= 5) and
    irreducible quadratics: every root has |s0|, |t0| <= 5, so trying all
    such pairs finds them all."""
    stream = SplitMix64(15)
    pairs = {(s0, t0) for s0 in range(6) for t0 in range(-5, 6)
             if gcd(s0, t0) == 1 and (s0 > 0 or t0 > 0)}
    for _ in range(40):
        q = _bform(0, [next_nonzero_int(stream, -3, 3)])
        for _ in range(stream.next_int(0, 4)):
            a, b = stream.next_int(-5, 5), next_nonzero_int(stream, -5, 5)
            q = q * _bform(1, [a, b])
        for _ in range(stream.next_int(0, 2)):
            while True:
                a, b, c = (next_nonzero_int(stream, -6, 6) for _ in range(3))
                disc = b * b - 4 * a * c
                if disc < 0 or isqrt(disc) ** 2 != disc:
                    break
            q = q * _bform(2, [a, b, c])
        assert bform_rational_roots(q) == sorted(p for p in pairs if q.eval((p[0], 0, p[1])) == 0)


def test_odd_multiplicity_root_count_matches_planted_factors():
    """Products of distinct linear factors s0 t - t0 s (roots (s0 : t0),
    (1 : 0) included) and an irreducible quadratic, each to a drawn power:
    the count is the number of odd powers, a quadratic counting twice."""
    stream = SplitMix64(17)
    roots = [(1, 0), (0, 1), (1, 1), (1, -2), (2, 3), (3, -1)]
    for _ in range(40):
        q = _bform(0, [next_nonzero_int(stream, -3, 3)])
        expect = 0
        for s0, t0 in roots:
            k = stream.next_int(0, 4)
            for _ in range(k):
                q = q * _bform(1, [-t0, s0])
            expect += k % 2
        k = stream.next_int(0, 3)
        for _ in range(k):
            q = q * _bform(2, [1, 0, 2])
        expect += 2 * (k % 2)
        assert odd_multiplicity_root_count(q) == expect


# -- canonical form ----------------------------------------------------------------

def test_canonical_idempotent_and_projective_complete():
    stream = SplitMix64(3)
    for _ in range(30):
        f = random_poly(stream, stream.next_int(1, 3))
        if f.is_zero():
            continue
        lam = Fraction(stream.next_int(1, 9), stream.next_int(1, 9))
        if stream.next_below(2):
            lam = -lam
        g = f * lam
        assert f.canonical() == g.canonical()
        assert f.canonical().canonical() == f.canonical()
        # completeness: different canonical forms are never proportional
        h = f + random_poly(stream, f.degree)
        if not h.is_zero() and h.canonical() != f.canonical():
            fc, hc = f.canonical(), h.canonical()
            assert any(
                fc.terms.get(e1, 0) * hc.terms.get(e2, 0)
                != fc.terms.get(e2, 0) * hc.terms.get(e1, 0)
                for e1 in fc.terms
                for e2 in hc.terms
            )


def test_float_coefficients_are_converted_exactly():
    assert HPoly(1, {(1, 0, 0): 0.5}).terms == {(1, 0, 0): Fraction(1, 2)}
    assert HPoly(1, {(1, 0, 0): 2.7}).terms == {(1, 0, 0): Fraction(2.7)}
    assert HPoly(1, {(1, 0, 0): 3.0}).terms == {(1, 0, 0): 3}


def test_zero_polynomial_has_degree_tag():
    z2 = HPoly.zero(2)
    assert z2.is_zero() and z2.degree == 2
    with pytest.raises(ValidationError):
        HPoly(2, {(1, 0, 0): 1})


def test_multiplicity_values_are_the_partials_at_the_points():
    # entry [r][i]: the r-th partial of order m - 1, in the order of
    # combinations_with_replacement, of form i at its point
    stream = SplitMix64(1919)
    for degree in range(2, 10):
        forms = [HPoly(degree, {e: stream.next_int(-4, 4) for e in monomials(degree)}) for _ in range(3)]
        points = [tuple(stream.next_int(-5, 5) for _ in range(3)) for _ in range(2)]
        for m in (1, 2, 3):
            expected = [[reduce(HPoly.partial, var, f).eval(p) for f in forms]
                        for p in points for var in combinations_with_replacement(range(3), m - 1)]
            assert multiplicity_values(forms, points, [m, m]) == expected, (degree, m)


def reference_conditions(points, degree, mults):
    """multiplicity_conditions by its formula, entry by entry: the partial
    d^alpha of x^e at the point is e!/(e - alpha)! x^(e - alpha), three
    falling factorials and three powers."""
    rows = []
    for (a, b, c), m in zip(points, mults):
        for var in combinations_with_replacement(range(3), m - 1):
            i, j, k = (var.count(v) for v in range(3))
            rows.append([(f := perm(e[0], i) * perm(e[1], j) * perm(e[2], k))
                         and f * a ** (e[0] - i) * b ** (e[1] - j) * c ** (e[2] - k) for e in monomials(degree)])
    return rows


small_fraction = st.fractions(min_value=-6, max_value=6, max_denominator=7)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_multiplicity_rows_are_the_falling_factorial_formula(data):
    """The table-built rows equal the formula, for degrees 0-10 and
    multiplicities 1-5 (orders above the degree give zero rows), at integer
    or Fraction points; multiplicity_values is those rows applied to the
    coefficient vectors."""
    degree = data.draw(st.integers(0, 10), label="degree")
    n = data.draw(st.integers(1, 3), label="points")
    coord = small_fraction if data.draw(st.booleans(), label="fractions") else st.integers(-6, 6)
    points = data.draw(st.lists(st.tuples(coord, coord, coord), min_size=n, max_size=n), label="points")
    mults = data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n), label="mults")
    rows = multiplicity_conditions(points, degree, mults)
    expected = reference_conditions(points, degree, mults)
    assert rows == expected
    start = 0
    for m in mults:
        count = m * (m + 1) // 2
        if m - 1 > degree:
            assert not any(map(any, rows[start:start + count]))
        start += count
    monos = monomials(degree)
    forms = [HPoly(degree, {e: data.draw(st.one_of(st.integers(-9, 9), small_fraction)) for e in monos})
             for _ in range(data.draw(st.integers(1, 3), label="forms"))]
    vecs = [[f.terms.get(e, 0) for e in monos] for f in forms]
    assert multiplicity_values(forms, points, mults) == [[sum(map(mul, row, v)) for v in vecs] for row in expected]


def test_multiplicity_rows_above_the_degree_are_zero():
    assert multiplicity_conditions([(1, 2, 3), (Fraction(1, 2), 1, -1)], 2, [4, 1]) == (
        [[0] * 6] * 10 + [[Fraction(1, 4), Fraction(1, 2), Fraction(-1, 2), 1, -1, 1]])
    assert multiplicity_values([X * Y], [(1, 2, 3)], [3]) == [[0], [1], [0], [0], [0], [0]]
