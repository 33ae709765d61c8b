"""The one integer normal form, primitive(), and the values stored in it:
forms (HPoly.canonical), points (ProjPoint) and maps (RationalMap)."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from planecremona.errors import ValidationError
from planecremona.exactpoly import HPoly, det3, monomials, primitive
from planecremona.projmaps import ProjPoint, RationalMap

ENTRIES = st.one_of(
    st.just(0),
    st.integers(-60, 60),
    st.fractions(-20, 20, max_denominator=12),
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

