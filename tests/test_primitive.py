"""The one integer normal form, primitive(), and the values stored in it:
forms (HPoly.canonical), points (ProjPoint) and maps (RationalMap)."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from planecremona.errors import ValidationError
from planecremona.exactpoly import HPoly, det3, monomials, primitive
from planecremona.projmaps import ProjPoint, RationalMap

ENTRIES = st.one_of(
    st.just(0),
    st.integers(-60, 60),
    st.fractions(-20, 20, max_denominator=12),
    st.booleans(),      # math.gcd takes bools; primitive still gives plain ints
)
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _assert_normal_form(values, out):
    assert len(out) == len(values)
    assert all(type(v) is int for v in out)
    assert [v == 0 for v in out] == [v == 0 for v in values]
    if not any(values):
        assert out == [0] * len(values)
        return
    assert gcd(*out) == 1
    assert next(v for v in out if v) > 0
    # proportional: out = lam * values for one nonzero rational lam
    i = next(i for i, v in enumerate(values) if v)
    lam = Fraction(out[i]) / Fraction(values[i])
    assert all(o == lam * v for o, v in zip(out, values))


@PROPERTY
@given(st.lists(ENTRIES, min_size=1, max_size=10))
@example([0, 0, 0])
@example([0, -4, 6])
@example([Fraction(-1, 2), Fraction(1, 3), 0])
def test_primitive_is_the_normal_form(values):
    out = primitive(values)
    _assert_normal_form(values, out)
    assert primitive(out) == out


def _primitive_through_fractions(values):
    """primitive as it read before its gcd-first fast path: every vector
    that is not all int goes through Fraction."""
    values = list(values)
    if not all(type(v) is int for v in values):
        fracs = [Fraction(v) for v in values]
        den = lcm(*(f.denominator for f in fracs))
        values = [f.numerator * (den // f.denominator) for f in fracs]
    g = gcd(*values)
    if g == 0:
        return values
    if next(v for v in values if v) < 0:
        g = -g
    return values if g == 1 else [v // g for v in values]


@PROPERTY
@given(st.lists(st.one_of(ENTRIES, st.integers(-10 ** 40, 10 ** 40)), max_size=12))
@example([])
@example([False, False])
@example([True, 0, 4])
@example([0, -True, 2])
@example([-6, Fraction(4, 2), 0])
@example([0, -(10 ** 30), 4 * 10 ** 30])
def test_primitive_matches_the_fraction_formula(values):
    out = primitive(iter(values))
    assert out == _primitive_through_fractions(values)
    assert all(type(v) is int for v in out)


@PROPERTY
@given(st.lists(ENTRIES, min_size=10, max_size=10))
def test_hpoly_canonical_is_primitive_in_the_monomial_order(values):
    monos = monomials(3)
    f = HPoly(3, dict(zip(monos, values)))
    assert [f.canonical().terms.get(e, 0) for e in monos] == primitive(values)


@PROPERTY
@given(st.lists(ENTRIES, min_size=3, max_size=3))
@example([0, 0, 0])
def test_projpoint_stores_the_primitive_coordinates(values):
    if not any(values):
        with pytest.raises(ValidationError):
            ProjPoint(*values)
    else:
        assert list(ProjPoint(*values).coords) == primitive(values)


@PROPERTY
@given(st.lists(ENTRIES, min_size=9, max_size=9))
@example([0, 0, -2, 0, 4, 0, 6, 0, 0])
def test_rational_map_scales_its_components_jointly_to_primitive(values):
    rows = [values[3 * i: 3 * i + 3] for i in range(3)]
    assume(det3(rows) != 0)     # coprime components: no common factor divided out
    monos = monomials(1)
    sigma = RationalMap(*(HPoly(1, dict(zip(monos, row))) for row in rows))
    assert [f.terms.get(e, 0) for f in sigma.components for e in monos] == primitive(values)

