from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from planecremona.errors import ValidationError
from planecremona.exactpoly import HPoly, adjugate3, det3, kernel_basis, monomials
from planecremona.projmaps import (
    PencilForm,
    ProjPoint,
    RationalMap,
    compose,
    frame_moving_to_center,
    identity_minors,
    involution_on_grid,
    is_identity,
    is_involution,
    pencil_center,
    pencil_form,
    pencil_form_at,
)
from tests.streams import (
    CENTER_POOL, SplitMix64, apply_matrix, conjugate, frame_conjugate, image, linear_map, unimodular_matrix,
)

X, Y, Z = (HPoly.variable(i) for i in range(3))
SIGMA = RationalMap(X * Y, X * Z, Y * Z)


def random_map(stream, degree):
    from tests.test_exactpoly import random_poly

    while True:
        comps = [random_poly(stream, degree) for _ in range(3)]
        if any(c.is_zero() for c in comps):
            continue
        try:
            return RationalMap(*comps)
        except ValidationError:
            continue


# -- points ---------------------------------------------------------------------

def test_point_canonicalization():
    assert ProjPoint(2, 4, 6) == ProjPoint(1, 2, 3)
    assert ProjPoint(Fraction(1, 2), Fraction(1, 3), 0).coords == (3, 2, 0)
    assert ProjPoint(-2, 4, -6).coords == (1, -2, 3)
    with pytest.raises(ValidationError):
        ProjPoint(0, 0, 0)


# -- maps ---------------------------------------------------------------------------

def test_compose_identity():
    f = RationalMap(X * Y, X * Z, Y * Z)
    assert compose(RationalMap.identity(), f) == f
    assert compose(f, RationalMap.identity()) == f


def test_identity_is_built_once(dj_records):
    assert RationalMap.identity() == RationalMap(X, Y, Z)
    assert RationalMap.identity() is RationalMap.identity()
    f = dj_records[4].map
    assert compose(f, f) is RationalMap.identity()


def test_equal_maps_hash_alike():
    # identity() is normalised like any other map
    twice = linear_map(((2, 0, 0), (0, 2, 0), (0, 0, 2)))
    assert RationalMap.identity() == twice and hash(RationalMap.identity()) == hash(twice)
    scaled = RationalMap(X * Y * 3, X * Z * 3, Y * Z * 3)
    assert scaled == SIGMA and hash(scaled) == hash(SIGMA)


def test_compose_standard_quadratic_squares_to_identity():
    raw = tuple(c.substitute(SIGMA.components) for c in SIGMA.components)
    expect = (X * X * Y * Z, X * Y * Y * Z, X * Y * Z * Z)
    assert tuple(r.canonical() for r in raw) == tuple(e.canonical() for e in expect)
    assert is_identity(compose(SIGMA, SIGMA))
    assert is_involution(SIGMA)


def test_compose_degree_bound_and_generic_equality():
    stream = SplitMix64(41)
    f, g = random_map(stream, 2), random_map(stream, 2)
    h = compose(f, g)
    assert h.degree <= 4
    assert h.degree == 4  # generic pair drawn from the stream


def test_compose_associative_up_to_normalization():
    stream = SplitMix64(43)
    for _ in range(5):
        f, g, h = (random_map(stream, 1) for _ in range(3))
        left = compose(compose(f, g), h)
        right = compose(f, compose(g, h))
        assert left == right


def test_is_identity_examples():
    assert is_identity(RationalMap.identity())
    assert is_identity(RationalMap(X * X, X * Y, X * Z))
    assert is_identity(linear_map(((-3, 0, 0), (0, -3, 0), (0, 0, -3))))
    assert not is_identity(RationalMap(Y, X, Z))
    assert not is_identity(RationalMap(*(HPoly.constant(c) for c in (1, 1, 1))))


def _minor_test(sigma):
    """The identity test by the minors against (x, y, z)."""
    return all(m.is_zero() for m in identity_minors(sigma.components))


COEFF = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=4))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_is_identity_agrees_with_the_minor_test(data):
    """On maps lam (x, y, z), g (x, y, z) for a form g, linear maps (scalar
    ones among them), constant maps and random maps of degree up to 3."""
    def form(degree):
        return HPoly(degree, {e: data.draw(COEFF) for e in monomials(degree)})

    kind = data.draw(st.sampled_from(("scalar", "times a form", "linear", "constant", "random")))
    if kind == "scalar":
        lam = data.draw(COEFF.filter(bool))
        comps = (X * lam, Y * lam, Z * lam)
    elif kind == "times a form":
        g = form(data.draw(st.integers(0, 3)))
        assume(not g.is_zero())
        comps = (X * g, Y * g, Z * g)
    elif kind == "linear":
        if data.draw(st.booleans()):
            lam = data.draw(st.integers(-3, 3).filter(bool))
            m = [[lam * (i == j) for j in range(3)] for i in range(3)]
        else:
            m = [[data.draw(st.integers(-2, 2)) for _ in range(3)] for _ in range(3)]
        comps = [HPoly(1, {(1, 0, 0): r[0], (0, 1, 0): r[1], (0, 0, 1): r[2]}) for r in m]
    elif kind == "constant":
        comps = [HPoly.constant(data.draw(COEFF)) for _ in range(3)]
    else:
        degree = data.draw(st.integers(1, 3))
        comps = [form(degree) for _ in range(3)]
    try:
        sigma = RationalMap(*comps)
    except ValidationError:
        assume(False)
    assert is_identity(sigma) == _minor_test(sigma)
    if kind in ("scalar", "times a form"):
        assert is_identity(sigma)


def symbolic_is_involution(f):
    """Reference test: the minors of (x, y, z) against the symbolic f(f)
    vanish, and f(f) does not."""
    raw = tuple(c.substitute(f.components) for c in f.components)
    return any(not r.is_zero() for r in raw) and all(m.is_zero() for m in identity_minors(raw))


def test_grid_involution_test_agrees_with_symbolic(dj_records):
    for d in range(2, 7):
        f = dj_records[d].map
        a, b, c = f.components
        for g in (f, RationalMap(b, a, c)):
            assert is_involution(g) == involution_on_grid(g) == symbolic_is_involution(g)
        assert is_involution(f)


def test_vanishing_composite_is_not_an_involution():
    # (0 : 0 : x) as written, whose composite vanishes, is normalised by
    # RationalMap to a constant, which is not an involution
    comps = (HPoly.zero(1), HPoly.zero(1), X)
    assert RationalMap(*comps).degree == 0
    assert not is_involution(RationalMap(*comps))


def _monomials(d):
    return [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]


@st.composite
def integer_maps(draw):
    d = draw(st.integers(1, 3))
    coeff = st.sampled_from((0, 0, 0, 1, -1, 2))
    comps = [HPoly(d, {e: draw(coeff) for e in _monomials(d)}) for _ in range(3)]
    assume(any(not c.is_zero() for c in comps))
    return RationalMap(*comps)


@st.composite
def conjugated_involutions(draw):
    """Involutions of degree 1 and 2, so that both answers are drawn."""
    m = draw(st.lists(st.integers(-2, 2), min_size=9, max_size=9)
             .map(lambda v: (tuple(v[0:3]), tuple(v[3:6]), tuple(v[6:9])))
             .filter(lambda m: det3(m) != 0))
    sigma = draw(st.sampled_from((linear_map(((1, 0, 0), (0, 1, 0), (0, 0, -1))),
                                  SIGMA, RationalMap(Y * Z, X * Z, X * Y))))
    return compose(linear_map(m), compose(sigma, linear_map(adjugate3(m))))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(f=st.one_of(integer_maps(), conjugated_involutions()))
def test_grid_involution_test_agrees_on_random_maps(f):
    assert is_involution(f) == symbolic_is_involution(f)


def _xz_form(draw, degree):
    coeff = st.sampled_from((0, 0, 1, -1, 2, -3))
    if degree < 0:
        return HPoly.zero(0)
    return HPoly(degree, {(degree - i, 0, i): draw(coeff) for i in range(degree + 1)})


def _pencil_uv(draw):
    """u and v of a map (x u : v : z u) of degree 1-3, of y-degree 0-2: a
    third planted involutions (u = a y + b, v = -b y + e), a third the same
    with a y^2 term added to v, and a third random."""
    d = draw(st.integers(1, 3))
    kind = draw(st.integers(0, 2))
    if kind < 2:
        a, b, e = (_xz_form(draw, d - k) for k in (2, 1, 0))
        u, v = a * Y + b, -(b * Y) + e
        if kind == 1:
            v = v + _xz_form(draw, d - 2) * Y * Y
    else:
        u = sum((_xz_form(draw, d - 1 - k) * Y ** k for k in range(min(2, d - 1) + 1)), HPoly.zero(0))
        v = sum((_xz_form(draw, d - k) * Y ** k for k in range(min(2, d) + 1)), HPoly.zero(0))
    assume(not (u.is_zero() and v.is_zero()))
    return u, v


@st.composite
def pencil_maps(draw):
    """(x u : v : z u) as _pencil_uv draws it, in a unimodular frame."""
    u, v = _pencil_uv(draw)
    m = unimodular_matrix(SplitMix64(draw(st.integers(0, 2**32))))
    comps = frame_conjugate((X * u, v, Z * u), adjugate3(m), m)
    return RationalMap(*comps)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(f=pencil_maps())
def test_pencil_involution_test_agrees_with_symbolic(f):
    assert pencil_form(f) is not None or f.degree == 0
    assert is_involution(f) == symbolic_is_involution(f) == involution_on_grid(f)


def kernel_center(sigma):
    """Reference center: the kernel, by fraction-free elimination, of the
    coefficient rows of x cross sigma(x) built from the minors, when it has
    dimension 1."""
    m1, m2, m3 = identity_minors(sigma.components)
    cross = (m3, -m2, m1)
    monomials = sorted(set().union(*(c.terms for c in cross)))
    if not monomials:           # x cross sigma(x) = 0: the kernel is the whole plane
        return None
    basis = kernel_basis([[c.terms.get(e, 0) for c in cross] for e in monomials])
    return ProjPoint(*basis[0]) if len(basis) == 1 else None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(f=st.one_of(integer_maps(), pencil_maps(), conjugated_involutions()))
def test_pencil_center_matches_the_kernel(f):
    assert pencil_center(f) == kernel_center(f)


def test_pencil_center_examples():
    const = RationalMap(HPoly.constant(1), HPoly.constant(2), HPoly.constant(3))
    standard = RationalMap(Y * Z, X * Z, X * Y)
    # the identity (rank 0) and the standard quadratic map (rank 3) have no
    # center; a constant map has its value as center
    for f, center in ((RationalMap.identity(), None), (standard, None), (const, ProjPoint(1, 2, 3))):
        assert pencil_center(f) == kernel_center(f) == center


def reference_pencil_form_at(comps, p):
    """PencilForm by apply_matrix(minv), the generic substitution, with the
    coefficients of y^0, y^1, ... read by coeffs_by_var and padded to two."""
    def by_y(f):
        forms = f.coeffs_by_var(1)
        return forms if len(forms) > 1 else forms + [HPoly.zero(f.degree - 1)]

    m, minv = frame_moving_to_center(p)
    xu, v = (apply_matrix(comps[0] * row[0] + comps[1] * row[1] + comps[2] * row[2], minv)
             for row in m[:2])
    u = tuple(HPoly(max(f.degree - 1, 0), {(i - 1, j, k): c for (i, j, k), c in f.terms.items()})
              for f in by_y(xu))
    return PencilForm(p, (m, minv), u, tuple(by_y(v)))


def test_center_pool_puts_the_pivot_everywhere():
    # the frames below then have their pivot at each index, and zero and
    # nonzero shear entries
    pivots = [next(i for i, c in enumerate(p) if c) for p in CENTER_POOL]
    off_pivot = [c for p, i in zip(CENTER_POOL, pivots) for j, c in enumerate(p) if j != i]
    assert set(pivots) == {0, 1, 2} and 0 in off_pivot and any(off_pivot)


@pytest.mark.parametrize("center", CENTER_POOL)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_pencil_form_at_matches_apply_matrix(center, data):
    """A planted (x u : v : z u) moved so that its center is p."""
    p = ProjPoint(*center)
    u, v = _pencil_uv(data.draw)
    m, minv = frame_moving_to_center(p)
    comps = frame_conjugate((X * u, v, Z * u), minv, m)
    assert pencil_form_at(comps, p) == reference_pencil_form_at(comps, p)


@pytest.mark.parametrize("center", CENTER_POOL)
def test_pencil_form_at_of_a_linear_map_and_of_a_triple_with_a_zero_component(center):
    """A map of degree 1, whose u is a constant, and alpha (p_i x - x_i p),
    whose component at the pivot i of p vanishes and whose center is p."""
    p = ProjPoint(*center)
    m, minv = frame_moving_to_center(p)
    linear = frame_conjugate((X * 3, X - Y * 2 + Z * 5, Z * 3), minv, m)
    pivot = next(i for i, c in enumerate(p.coords) if c)
    alpha = X * X - Y * Z * 3 + Z * Z * 2
    zero_at_pivot = [alpha * (HPoly.variable(i) * p.coords[pivot] - HPoly.variable(pivot) * c)
                     for i, c in enumerate(p.coords)]
    assert zero_at_pivot[pivot].is_zero()
    for comps in (linear, zero_at_pivot):
        assert pencil_form_at(comps, p) == reference_pencil_form_at(comps, p)
    assert pencil_form_at(linear, p).u[0].degree == 0


def test_pencil_map_of_degree_two_on_lines_is_not_an_involution():
    # b = z and c = -z as for an involution, but y -> (y^2 - z y + x^2) / z
    # has degree 2 on the lines through (0:1:0)
    f = RationalMap(X * Z, Y * Y - Y * Z + X * X, Z * Z)
    form = pencil_form(f)
    assert (form.b + form.c).is_zero() and not form.beta.is_zero() and not form.linear
    assert not is_involution(f) and not symbolic_is_involution(f)


def test_constant_map_is_not_an_involution():
    f = RationalMap(HPoly.constant(1), HPoly.constant(2), HPoly.constant(3))
    assert not is_involution(f) and not symbolic_is_involution(f)
    # everything to the center (0:1:0): no pencil form, a constant map
    g = RationalMap(HPoly.zero(2), X * Z + Z * Z, HPoly.zero(2))
    assert g.degree == 0 and pencil_form(g) is None and not is_involution(g)


def test_eval_map_examples():
    assert image(SIGMA, ProjPoint(1, 1, 1)) == ProjPoint(1, 1, 1)
    assert image(SIGMA, ProjPoint(0, 1, 0)) is None
    assert image(SIGMA, ProjPoint(1, 2, 4)) == ProjPoint(1, 2, 4)


def test_eval_functorial_under_composition():
    stream = SplitMix64(47)
    f, g = random_map(stream, 2), random_map(stream, 2)
    fg = compose(f, g)
    hits = 0
    for _ in range(40):
        coords = tuple(stream.next_int(-6, 6) for _ in range(3))
        if coords == (0, 0, 0):
            continue
        p = ProjPoint(*coords)
        mid = image(g, p)
        if mid is None:
            continue
        out = image(f, mid)
        if out is None:
            continue
        assert image(fg, p) == out
        hits += 1
    assert hits >= 10


def test_conjugate_examples():
    ident = RationalMap.identity()
    assert conjugate(SIGMA, ident, ident) == SIGMA
    m = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    minv = ((1, -1, 0), (0, 1, 0), (0, 0, 1))
    phi, phi_inv = linear_map(m), linear_map(minv)
    conj = conjugate(SIGMA, phi, phi_inv)
    assert conj.degree == 2
    assert is_identity(compose(conj, conj))
    with pytest.raises(ValidationError):
        conjugate(SIGMA, phi, phi)  # not an inverse


def test_zero_composition_rejected():
    with pytest.raises(ValidationError):
        RationalMap(HPoly.zero(1), HPoly.zero(1), HPoly.zero(1))
    # a map whose image is a base point of the outer map composes to zero
    to_base_point = RationalMap(HPoly.zero(1), X, HPoly.zero(1))
    with pytest.raises(ValidationError):
        compose(SIGMA, to_base_point)
