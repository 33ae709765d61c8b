"""The exact kernels against naive references.

HPoly's ring operations build their results with the trusted HPoly._make,
substitute accumulates into one dict, and shear moves a form by Taylor
shifts, one weighted sum of forms at a time (shear_sum). Each is checked
here against a slow reference that goes through the validating HPoly(...).
The canonical scale, read with no sort (HPoly.canonical and the joint
_canon_triple of a map), is checked against primitive over the sorted
terms. The gcd restricts a form to a line by shearing it and reading
_on_line off its terms; that is checked against substitute. The product,
indexed by arithmetic, is checked against the dict product it replaced. The
chord construction's _Cubic.grad and _Cubic.third, written out by hand, are
checked against HPoly.partial and the chord formulas in cross and dot, and
the written-out proportionality test _in_span against its generator form.
The multiplicity test that packs all the points' values into one integer
per monomial (first_below_multiplicity) is checked against the points read
one at a time.
"""

from fractions import Fraction
from math import gcd

from itertools import permutations

from hypothesis import assume, given, settings, strategies as st

from planecremona.exactpoly import (
    HPoly, _on_line, cross, dot, first_below_multiplicity, monomials, multiplicity_values, primitive,
    shear_sum,
)
from planecremona.involutions import _Cubic, _in_span
from planecremona.projmaps import _canon_triple
from tests.streams import SplitMix64, apply_matrix

SMALL = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
)


def _form(data, degree, coeffs=SMALL):
    """A random form of the degree, about a third of its terms zero."""
    terms = {}
    for e in monomials(degree):
        if data.draw(st.integers(0, 2)):
            terms[e] = data.draw(coeffs)
    return HPoly(degree, terms)


def _trusted(r: HPoly) -> bool:
    """r is what the validating constructor makes of its own terms: no zero
    coefficient, and an int wherever the denominator is 1."""
    v = HPoly(r.degree, r.terms)
    return (r.degree == v.degree and r.terms == v.terms
            and all(type(r.terms[e]) is type(c) for e, c in v.terms.items()))


def _same(r: HPoly, ref: HPoly) -> bool:
    return r.degree == ref.degree and r.terms == ref.terms and _trusted(r)


# -- naive references -------------------------------------------------------------

def _ref_mul(f, g):
    acc = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            acc[e] = acc.get(e, 0) + c1 * c2
    return HPoly(f.degree + g.degree, acc)


def _ref_substitute(f, comps):
    """The sum over the terms c x^i y^j z^k of c g1^i g2^j g3^k, one
    monomial product at a time."""
    acc = {}
    for (i, j, k), c in f.terms.items():
        prod = HPoly.constant(c)
        for g, n in zip(comps, (i, j, k)):
            for _ in range(n):
                prod = _ref_mul(prod, g)
        for e, v in prod.terms.items():
            acc[e] = acc.get(e, 0) + v
    return HPoly(f.degree * comps[0].degree, acc)


# -- substitute and apply_matrix --------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_substitute_matches_the_naive_sum(data):
    degree = data.draw(st.integers(0, 8))
    f = _form(data, degree)
    sub_degree = data.draw(st.integers(0, 2 if degree <= 4 else 1))
    comps = [_form(data, sub_degree) for _ in range(3)]
    assert _same(f.substitute(comps), _ref_substitute(f, comps))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_apply_matrix_matches_the_naive_sum(data):
    f = _form(data, data.draw(st.integers(0, 8)))
    m = [[data.draw(SMALL) for _ in range(3)] for _ in range(3)]
    lin = [HPoly(1, {(1, 0, 0): r[0], (0, 1, 0): r[1], (0, 0, 1): r[2]}) for r in m]
    assert _same(apply_matrix(f, m), _ref_substitute(f, lin))


def _shear_frame(data):
    """(m, axis, rows of m as linear forms) for m whose columns other than
    the axis are distinct unit vectors, in any order, and whose axis column
    has zero and nonzero entries."""
    axis = data.draw(st.integers(0, 2))
    units = iter(data.draw(st.sampled_from(list(permutations(range(3), 2)))))
    col = [data.draw(st.one_of(st.just(0), SMALL)) for _ in range(3)]
    columns = [col if j == axis else [int(i == k) for i in range(3)]
               for j, k in ((j, None if j == axis else next(units)) for j in range(3))]
    m = [[columns[j][i] for j in range(3)] for i in range(3)]
    return m, axis, [HPoly(1, {(1, 0, 0): r[0], (0, 1, 0): r[1], (0, 0, 1): r[2]}) for r in m]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_shear_matches_the_naive_sum(data):
    f = _form(data, data.draw(st.integers(0, 9)))
    m, axis, lin = _shear_frame(data)
    assert _same(f.shear(m, axis), _ref_substitute(f, lin))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_weighted_shear_matches_the_naive_sum_of_the_weighted_forms(data):
    """shear_sum of a family with zero weights and a zero form (of another
    degree tag) among its forms is the sheared weighted sum."""
    d = data.draw(st.integers(0, 7))
    forms = [_form(data, d) for _ in range(data.draw(st.integers(1, 4)))]
    forms.insert(data.draw(st.integers(0, len(forms))), HPoly.zero(data.draw(st.integers(0, 3))))
    weights = [data.draw(st.one_of(st.just(0), SMALL)) for _ in forms]
    m, axis, lin = _shear_frame(data)
    total = {}
    for f, w in zip(forms, weights):
        for e, c in f.terms.items():
            total[e] = total.get(e, 0) + w * c
    assert _same(shear_sum(d, forms, weights, m, axis), _ref_substitute(HPoly(d, total), lin))


def test_shear_of_a_pencil_frame():
    # the frame that moves (2:1:1) to (0:1:0): x -> 2 y, y -> x + y, z -> z + y
    x, y, z = (HPoly.variable(i) for i in range(3))
    minv = ((0, 2, 0), (1, 1, 0), (0, 1, 1))
    f = y * y - x * z * 2
    assert _same(f.shear(minv, 1), (x + y) * (x + y) - y * (z + y) * 4)
    assert _same(HPoly.zero(4).shear(minv, 1), HPoly.zero(4))


def test_substitute_cancels_to_zero_and_to_integers():
    x, y, z = (HPoly.variable(i) for i in range(3))
    half = Fraction(1, 2)
    f = HPoly(2, {(2, 0, 0): half, (0, 2, 0): half, (1, 1, 0): -1})   # (x - y)^2 / 2
    assert _same(f.substitute([y, y, z]), HPoly.zero(2))
    r = f.substitute([x + y, x - y, z])                                 # 2 y^2
    assert _same(r, HPoly(2, {(0, 2, 0): 2}))


# -- restriction to a line ---------------------------------------------------------

BIG = st.integers(-10 ** 30, 10 ** 30)


def _shear_to(a, b):
    """The matrix of (x, y, z) -> (x, y + a x, z + b x), for HPoly.shear on axis 0."""
    return ((1, 0, 0), (a, 1, 0), (b, 0, 1))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_restriction_matches_substitute_on_the_line(data):
    """f(t, a t + w0, b t + 1), read off f sheared to f(x, y + a x, z + b x)
    by _on_line, is f(t, a t + w0 s, b t + s) at s = 1, read off substitute
    with t = x and s = z."""
    f = _form(data, data.draw(st.integers(0, 9)), coeffs=BIG)
    a, b = data.draw(st.integers(0, 9)), data.draw(st.integers(0, 9))
    w0 = data.draw(st.integers(-40, 40))
    x, z = HPoly.variable(0), HPoly.variable(2)
    line = f.substitute([x, x * a + z * w0, x * b + z])
    expect = [line.terms.get((i, 0, f.degree - i), 0) for i in range(f.degree + 1)]
    while expect and expect[-1] == 0:
        expect.pop()
    assert _on_line(f.shear(_shear_to(a, b), 0), w0) == expect


def test_restriction_of_a_form_containing_the_line():
    # y - 17 z contains the line through (1:0:0) and (0:17:1), and
    # -83 x - y + 17 z the line through (1:2:5) and (0:17:1)
    x, y, z = (HPoly.variable(i) for i in range(3))
    assert _on_line((y - z * 17) * (x * x + y * z), 17) == []
    assert _on_line(((x * -83 - y + z * 17) * (x * x + y * z)).shear(_shear_to(2, 5), 0), 17) == []
    assert _on_line(HPoly.zero(3).shear(_shear_to(2, 5), 0), 17) == []
    assert _on_line(x * x + y * z, 17) == [17, 0, 1]


# -- every arithmetic result is in the validated normal form ------------------------

@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_arithmetic_results_are_trusted_forms(data):
    d = data.draw(st.integers(0, 5))
    f, g = _form(data, d), _form(data, d)
    h = _form(data, data.draw(st.integers(0, 3)))
    c = data.draw(SMALL)
    results = [f + g, f - g, f - f, -f, f * h, f * c, h * f, f.canonical()]
    results += [f.partial(v) for v in range(3)]
    results += [q for v in range(3) for q in f.coeffs_by_var(v)]
    if not h.is_zero():
        results.append((f * h).divexact(h))
    results.append(f.substitute([h, h * 2, -h]))
    assert all(_trusted(r) for r in results)


def test_fraction_sums_with_denominator_one_become_int():
    x, y = HPoly.variable(0), HPoly.variable(1)
    half = HPoly(1, {(1, 0, 0): Fraction(1, 2)})
    third = HPoly(1, {(1, 0, 0): Fraction(1, 3), (0, 1, 0): 1})
    for r in (half + half, half * 2, (half * x).partial(0), third * 3 - y,
              (x * x * 2).divexact(x * 2), (half * half).canonical(),
              HPoly(2, {(2, 0, 0): Fraction(1, 2)}).coeffs_by_var(1)[0] * 2):
        assert _trusted(r) and all(type(c) is int for c in r.terms.values())


# -- the canonical scale -------------------------------------------------------------

def _shuffled(data, f: HPoly) -> HPoly:
    """f with its terms stored in a drawn order, so that the term first in
    the monomial order need not come first."""
    return HPoly(f.degree, dict(data.draw(st.permutations(list(f.terms.items())))))


def _ref_canonical(forms):
    """primitive over the terms of the forms, each sorted into the monomial
    order and taken form after form."""
    terms = [f.sorted_terms() for f in forms]
    coeffs = iter(primitive(c for t in terms for _, c in t))
    return [HPoly(f.degree, {e: next(coeffs) for e, _ in t}) for f, t in zip(forms, terms)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_canonical_scale_read_with_no_sort_is_primitive_over_the_sorted_terms(data):
    """Integer and Fraction coefficients, either sign first, shuffled term
    order, zero forms; a form or triple already canonical is returned as
    it is."""
    d = data.draw(st.integers(0, 5))
    coeffs = data.draw(st.sampled_from((st.integers(-40, 40), SMALL)))
    forms = [_shuffled(data, _form(data, d, coeffs) if data.draw(st.integers(0, 3)) else HPoly.zero(d))
             for _ in range(3)]
    assume(any(f.terms for f in forms))
    for f in forms:
        g = f.canonical()
        assert _same(g, _ref_canonical([f])[0]) and g.canonical() is g
    triple = _canon_triple(tuple(forms))
    assert all(_same(f, r) for f, r in zip(triple, _ref_canonical(forms)))
    assert _canon_triple(triple) is triple


def test_canonical_scale_of_a_negative_leading_term_stored_last():
    x, y, z = (HPoly.variable(i) for i in range(3))
    f = HPoly(2, {(0, 0, 2): 4, (0, 2, 0): 6, (2, 0, 0): -2})
    assert _same(f.canonical(), y * y * -3 + x * x - z * z * 2)
    half = HPoly(1, {(0, 0, 1): Fraction(1, 2), (1, 0, 0): Fraction(-3, 4)})
    assert _same(half.canonical(), x * 3 - z * 2)
    zero = HPoly.zero(2)
    assert _canon_triple((zero, f, half * y)) == (zero, f * -4, half * y * -4)


# -- the product --------------------------------------------------------------------

def _dict_mul(f, g):
    """HPoly.__mul__ as it was before its output was indexed by arithmetic:
    one dict keyed by the exponent triples, a zero sum popped."""
    res = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            s = res.get(e, 0) + c1 * c2
            if s == 0:
                res.pop(e, None)
            else:
                res[e] = s
    return HPoly._make(f.degree + g.degree, res)


BIG = st.integers(-10**40, 10**40)
PRODUCT_COEFFS = (SMALL, BIG, st.builds(Fraction, BIG, st.integers(1, 10**6)))


def _factor(data):
    """A form of degree 0-9: dense, free of y, a single term or zero, with
    small, large or fractional coefficients."""
    degree = data.draw(st.integers(0, 9))
    shape = data.draw(st.sampled_from(("dense", "free of y", "single term", "zero")))
    if shape == "zero":
        return HPoly.zero(degree)
    coeffs = data.draw(st.sampled_from(PRODUCT_COEFFS))
    monos = monomials(degree)
    if shape == "free of y":
        monos = [e for e in monos if e[1] == 0]
    elif shape == "single term":
        monos = [data.draw(st.sampled_from(monos))]
    return HPoly(degree, {e: data.draw(coeffs) for e in monos if shape != "dense" or data.draw(st.integers(0, 2))})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_product_matches_the_dict_product(data):
    """Also on (f + g)(f - g), whose cross terms cancel when f and g have
    one degree."""
    f, g = _factor(data), _factor(data)
    pairs = [(f, g), (g, f)]
    if f.degree == g.degree:
        pairs.append((f + g, f - g))
    for a, b in pairs:
        r, ref = a * b, _dict_mul(a, b)
        assert r.degree == ref.degree == a.degree + b.degree
        assert r.terms == ref.terms
        assert 0 not in r.terms.values()
        assert all(type(c) is int or c.denominator != 1 for c in r.terms.values())
        assert _trusted(r)


def test_products_whose_middle_terms_cancel():
    x, y, z = (HPoly.variable(i) for i in range(3))
    assert ((x + y) * (x - y)).terms == {(2, 0, 0): 1, (0, 2, 0): -1}
    assert ((x * x + x * y + y * y) * (x - y)).terms == {(3, 0, 0): 1, (0, 3, 0): -1}
    assert ((x * z - y * y) * (x * z + y * y)).terms == {(2, 0, 2): 1, (0, 4, 0): -1}
    half = HPoly(1, {(1, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(1, 2)})
    r = half * HPoly(1, {(1, 0, 0): 2, (0, 1, 0): -2})
    assert r.terms == {(2, 0, 0): 1, (0, 2, 0): -1}
    assert all(type(c) is int for c in r.terms.values())
    zero = (x + y) * HPoly.zero(4)
    assert zero.is_zero() and zero.degree == 5
    assert (HPoly.constant(3) * HPoly.constant(Fraction(1, 3))).terms == {(0, 0, 0): 1}


# -- the proportionality test of the certificate ------------------------------------

def _generator_in_span(u, v):
    """_in_span as it was before it was written out: an all(...) generator
    over every index pair."""
    n = len(u)
    return (any(u) or not any(v)) and all(u[i] * v[j] == u[j] * v[i]
                                          for i in range(n) for j in range(i + 1, n))


def test_in_span_matches_the_generator_form():
    """Seeded vectors of length 3 and 4 with many zero entries: zero u, zero
    v, multiples of u and vectors that are not."""
    stream = SplitMix64(3911)
    for n in (3, 4):
        for _ in range(3000):
            u = [stream.next_int(-2, 2) for _ in range(n)]
            kind = stream.next_int(0, 3)
            if kind == 0:
                v = [0] * n
            elif kind == 1:
                k = stream.next_int(-3, 3)
                v = [k * c for c in u]
            else:
                v = [stream.next_int(-2, 2) for _ in range(n)]
            if kind == 3:
                u = [0] * n
            got = _in_span(u, v)
            assert type(got) is bool and got == _generator_in_span(u, v), (u, v)
    assert _in_span([0, 0, 0], [0, 0, 0]) and not _in_span([0, 0, 0, 0], [0, 1, 0, 0])
    assert _in_span([1, 2, 0, 3], [-2, -4, 0, -6]) and not _in_span([1, 2, 0, 3], [2, 4, 1, 6])


# -- the chord construction on a cubic ----------------------------------------------

COORD = st.integers(-40, 40)


def _gradient(f, p):
    return tuple(f.partial(v).eval(p) for v in range(3))


def _cubic_through(data, p, q):
    """A random integer cubic through p and q: a f1 + b f2 + c f3 with (a, b, c)
    orthogonal to the values of the fi at p and at q (f2(p) f1 - f1(p) f2
    when q is a multiple of p)."""
    fs = [_form(data, 3, coeffs=st.integers(-9, 9)) for _ in range(3)]
    at_p = [f.eval(p) for f in fs]
    abc = cross(at_p, [f.eval(q) for f in fs]) if any(cross(p, q)) else (at_p[1], -at_p[0], 0)
    assume(any(abc))
    return fs[0] * abc[0] + fs[1] * abc[1] + fs[2] * abc[2]


def _coprime(r):
    g = gcd(*r)
    return None if g == 0 else tuple(v // g for v in r)


def _ref_third(f, p, q):
    """(grad f(q).p) p - (grad f(p).q) q, or for q a multiple of p the
    tangent formula f(D) p - (grad f(D).p) D with D = grad f(p) x p, as
    3 f(D) = grad f(D).D; divided by its gcd, None where p or q is singular
    or the formula gives 0."""
    gp, gq = _gradient(f, p), _gradient(f, q)
    if not any(gp) or not any(gq):
        return None
    if any(cross(p, q)):
        s, t, d = dot(gq, p), dot(gp, q), q
    else:
        d = cross(gp, p)
        gd = _gradient(f, d)
        s, t = dot(gd, d), 3 * dot(gd, p)
    return _coprime([s * p[i] - t * d[i] for i in range(3)])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cubic_grad_is_the_gradient(data):
    f = _form(data, 3, coeffs=st.integers(-20, 20))
    p = tuple(data.draw(COORD) for _ in range(3))
    assert _Cubic.from_hpoly(f).grad(p) == _gradient(f, p)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cubic_third_is_the_chord_formula(data):
    """On random cubics through p and q, for q apart from p and for q a
    multiple of p (the tangent)."""
    p = tuple(data.draw(COORD) for _ in range(3))
    assume(any(p))
    if data.draw(st.booleans()):
        k = data.draw(st.sampled_from((1, -1, 2, -3)))
        q = tuple(k * v for v in p)
    else:
        q = tuple(data.draw(COORD) for _ in range(3))
        assume(any(q))
    f = _cubic_through(data, p, q)
    assert f.eval(p) == 0 and f.eval(q) == 0
    r = _Cubic.from_hpoly(f).third(p, q)
    assert r == _ref_third(f, p, q)
    if r is not None:
        assert f.eval(r) == 0
        assert not any(cross(p, q)) or dot(cross(p, q), r) == 0    # on the line pq


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cubic_third_is_none_at_a_singular_point(data):
    """Cubics with no term in z^2 or z^3 are singular at p = (0:0:1); of two
    of them, f2(q) f1 - f1(q) f2 passes through q as well."""
    p = (0, 0, 1)
    q = tuple(data.draw(COORD) for _ in range(3))
    assume(any(cross(p, q)))
    f1, f2 = (HPoly(3, {e: data.draw(st.integers(-9, 9)) for e in monomials(3) if e[2] < 2})
              for _ in range(2))
    f = f1 * f2.eval(q) - f2 * f1.eval(q)
    assume(not f.is_zero())
    cubic = _Cubic.from_hpoly(f)
    assert cubic.third(p, q) is None
    assert cubic.third(q, p) is None
    assert cubic.third(p, p) is None


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cubic_third_is_none_on_a_line_of_the_cubic(data):
    """f = L Q with L the line through p and q: the chord pq and the tangent
    at p both lie in the cubic."""
    p = tuple(data.draw(COORD) for _ in range(3))
    q = tuple(data.draw(COORD) for _ in range(3))
    line = cross(p, q)
    assume(any(line))
    lin = HPoly(1, {(1, 0, 0): line[0], (0, 1, 0): line[1], (0, 0, 1): line[2]})
    quadric = _form(data, 2, coeffs=st.integers(-9, 9))
    assume(not quadric.is_zero())
    cubic = _Cubic.from_hpoly(lin * quadric)
    assert cubic.third(p, q) is None
    assert cubic.third(p, p) is None


def per_point_first_below(forms, points, m):
    """The reference for first_below_multiplicity: the first point at which
    some partial of order m - 1 of some form is nonzero, one point at a
    time."""
    return next((i for i, p in enumerate(points) if any(map(any, multiplicity_values(forms, [p], [m])))),
                None)


BIG_COORD = st.integers(-2**40, 2**40)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_packed_multiplicity_test_is_the_per_point_test(data):
    """Degrees 2-9, multiplicities 1-5 (partial orders 0-4), 1-8 points
    with coordinates up to 2^40 in size, repeats allowed, and forms with
    integer or Fraction coefficients. Each form is a product of m-th powers
    of lines through some of the points times a random cofactor, so its
    multiplicity at those points is at least m, and the first point below
    m falls anywhere in the list, or nowhere."""
    degree = data.draw(st.integers(2, 9), label="degree")
    m = data.draw(st.integers(1, 5), label="m")
    base = data.draw(st.lists(st.tuples(BIG_COORD, BIG_COORD, BIG_COORD).filter(any),
                              min_size=1, max_size=4), label="base")
    points = [base[i] for i in data.draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=8),
                                         label="points")]
    forms = []
    for _ in range(data.draw(st.integers(1, 3), label="forms")):
        planted = data.draw(st.lists(st.integers(0, len(base) - 1), unique=True,
                                     max_size=degree // m), label="planted")
        form = _form(data, degree - m * len(planted), coeffs=SMALL)
        for i in planted:
            q = data.draw(st.tuples(COORD, COORD, COORD), label="q")
            a, b, c = cross(base[i], q)
            form = form * HPoly(1, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c}) ** m
        forms.append(form)
    assert first_below_multiplicity(forms, points, m) == per_point_first_below(forms, points, m)


def test_packed_values_do_not_cancel_across_slots():
    """x at p_0 = (2^k : 0 : 1) and p_1 = (-1 : 0 : 1): the one row is
    (1, 0, 0) and the monomials are the coordinates, so the digit bound is
    2^k + 0 + 1, and the slots are k + 2 bits wide. Two bits narrower, the
    values 2^k and -1 would pack to 2^k - 2^k = 0 and hide both points; with
    a point of value 0 in front, the cancellation moves one slot up."""
    x = HPoly.variable(0)
    for k in (2, 7, 40, 100):
        pair = [(2**k, 0, 1), (-1, 0, 1)]
        assert first_below_multiplicity([x], pair, 1) == 0
        assert first_below_multiplicity([x], [(0, 1, 1)] + pair, 1) == 1
        assert first_below_multiplicity([x * Fraction(1, 3)], [(0, 1, 1)] + pair, 1) == 1
        assert first_below_multiplicity([x], [(0, 1, 1), (0, 3, -2)], 1) is None
