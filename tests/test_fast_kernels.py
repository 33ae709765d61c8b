"""The exact kernels against naive references.

HPoly's ring operations build their results with the trusted HPoly._make,
substitute accumulates into one dict and _line_restrictions interpolates
the values of a family of forms from one Evaluator. Each is checked here
against a slow reference that goes through the validating HPoly(...) or, for
the line restrictions, against the list convolution they replaced, form by
form.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from planecremona.exactpoly import (
    _GCD_PRIME,
    _PROBE_LINES,
    HPoly,
    _line_restrictions,
    monomials,
)

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


def _ref_mul_mod(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return [c % _GCD_PRIME for c in out]


def _ref_line_restriction(f, p, q):
    """f(p + t q) mod p by list convolutions of the powers of the linear
    coordinates."""
    powers = []
    for a, b in zip(p, q):
        table = [[1]]
        for _ in range(f.degree):
            table.append(_ref_mul_mod(table[-1], [a, b]))
        powers.append(table)
    out = [0] * (f.degree + 1)
    for (i, j, k), c in f.terms.items():
        for n, v in enumerate(_ref_mul_mod(_ref_mul_mod(powers[0][i], powers[1][j]), powers[2][k])):
            out[n] += c * v
    return [c % _GCD_PRIME for c in out]


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
    assert _same(f.apply_matrix(m), _ref_substitute(f, lin))


def test_substitute_cancels_to_zero_and_to_integers():
    x, y, z = (HPoly.variable(i) for i in range(3))
    half = Fraction(1, 2)
    f = HPoly(2, {(2, 0, 0): half, (0, 2, 0): half, (1, 1, 0): -1})   # (x - y)^2 / 2
    assert _same(f.substitute([y, y, z]), HPoly.zero(2))
    r = f.substitute([x + y, x - y, z])                                 # 2 y^2
    assert _same(r, HPoly(2, {(0, 2, 0): 2}))


# -- line restrictions --------------------------------------------------------------

BIG = st.integers(-10 ** 30, 10 ** 30)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_line_restriction_matches_the_convolution(data):
    forms = [_form(data, data.draw(st.integers(0, 9)), coeffs=BIG)
             for _ in range(data.draw(st.integers(1, 3)))]
    point = st.tuples(*[st.integers(-50, 50)] * 3)
    p, q = data.draw(st.one_of(st.sampled_from(_PROBE_LINES), st.tuples(point, point)))
    assert _line_restrictions(forms, p, q) == [_ref_line_restriction(f, p, q) for f in forms]


def test_line_restriction_of_the_zero_form_and_of_multiples_of_the_prime():
    line = _PROBE_LINES[0]
    assert _line_restrictions([HPoly.zero(4)], *line) == [[0] * 5]
    f = HPoly(3, {(3, 0, 0): _GCD_PRIME, (0, 1, 2): 3 * _GCD_PRIME})
    assert _line_restrictions([f], *line) == [[0] * 4]


def test_line_restrictions_of_a_family_of_different_degrees():
    # each form is interpolated from its own deg + 1 values of the family's
    # Evaluator, so each restriction has exactly deg + 1 entries
    x, y, z = (HPoly.variable(i) for i in range(3))
    forms = [x * 3 - z, HPoly.constant(7), (x * y - z * z * 5) * (y + z * 2) * x, HPoly.zero(2),
             y ** 6 - x ** 5 * z * 11]
    for p, q in _PROBE_LINES:
        got = _line_restrictions(forms, p, q)
        assert [len(r) for r in got] == [f.degree + 1 for f in forms]
        assert got == [_ref_line_restriction(f, p, q) for f in forms]


def test_line_restrictions_vanishing_mod_p_in_a_family():
    # 38 x + 13 y - 11 z vanishes on the first probe line, through (1:3:7)
    # and (2:-5:1), so a multiple of it restricts to zero; p (5 x^2 - y z) is
    # nonzero over Q and zero mod p. Neither changes the other restrictions.
    x, y, z = (HPoly.variable(i) for i in range(3))
    line = _PROBE_LINES[0]
    on_line = HPoly(1, {(1, 0, 0): 38, (0, 1, 0): 13, (0, 0, 1): -11}) * (x * x + y * z)
    multiple_of_p = HPoly(2, {(2, 0, 0): _GCD_PRIME * 5, (0, 1, 1): -_GCD_PRIME})
    others = [x * y + z * z, x]
    got = _line_restrictions([on_line, others[0], multiple_of_p, others[1]], *line)
    assert got[0] == [0] * 4 and got[2] == [0] * 3
    assert [got[1], got[3]] == [_ref_line_restriction(f, *line) for f in others]
    assert all(any(r) for r in (got[1], got[3]))


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
