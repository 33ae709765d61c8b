"""The closed-form Geiser map against the pull-backs it is built from and
against the fit it replaced.

GeiserInvolution.interpolated_map builds sigma from the pull-backs of the
sides of the triangle p1p2p3: l_ab(sigma) = lambda C_a C_b Q_ab, with C_a
the cubic through the 7 points singular at p_a and Q_ab the conic through
the five others (sigma* E_a = C_a on the blow-up). The reference fit below
is one it replaced: a basis of the triple-point octics from the 42 x 45
conditions, and 9 unknowns solved from 6 evaluated samples; the reference
evaluator is the Cayley-Bacharach chain that Geiser evaluations used before
the closed form. Its scales and its frame come from the contracted pairs
(x_a, p_a), x_a on the cubic C_a that the involution contracts to p_a. The
wrong maps at the end are each refused by one step of
DelPezzoInvolution.certify_map.
"""

import re
from fractions import Fraction
from hashlib import sha256
from itertools import combinations, islice

import pytest
from hypothesis import given, strategies as st

from planecremona import involutions
from planecremona.errors import ExtractionError, ValidationError
from planecremona.exactpoly import (
    HPoly, adjugate3, cross, forms_with_multiplicities, kernel_basis, matrix_rank, monomials,
    multiplicity_conditions, multiplicity_values, values_at,
)
from planecremona.involutions import (
    EvalTrace, GeiserInvolution, _Cubic, _ninth_base_point, _octic_factors,
    _singular_coefficients, make_point_config, octic_triple_system,
)
from planecremona.projmaps import ProjPoint, RationalMap
from tests.streams import evaluated_pairs, perp_basis, sample_points
from tests.test_involution_properties import (
    coords, kernel, monomial_value, partial_value, point_sets, seeded,
)


def form(degree, vec):
    return HPoly(degree, {e: Fraction(c) for e, c in zip(monomials(degree), vec) if c})


def singular_cubic(pts, a):
    """The cubic through the points singular at pts[a], by Fraction
    elimination."""
    monos = monomials(3)
    rows = [[monomial_value(e, p.coords) for e in monos] for p in pts]
    rows += [[partial_value(e, v, pts[a].coords) for e in monos] for v in range(3)]
    (vec,) = kernel(rows)
    return form(3, vec)


def conic_through(pts):
    monos = monomials(2)
    (vec,) = kernel([[monomial_value(e, p.coords) for e in monos] for p in pts])
    return form(2, vec)


def side(pts, a, b):
    p, q = pts[a].coords, pts[b].coords
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def octic_vector(f):
    return [f.terms.get(e, 0) for e in monomials(8)]


def triple_point_octics(pts):
    """Basis of the octics triple at the points: the 42 x 45 elimination."""
    return [form(8, v) for v in kernel_basis(multiplicity_conditions([p.coords for p in pts], 8, [3] * 7))]


# the seed of the sample points that the fits below drew by default
FIT_SEED = 0x6A09E667F3BCC908


def six_sample_fit(inv, seed=FIT_SEED):
    """An earlier fit of interpolated_map: sigma in the span of the
    triple-point octics, 9 unknowns from the evaluator at the first 6 seeded
    sample points."""
    octics = triple_point_octics(inv.config.points)
    samples = list(islice(evaluated_pairs(inv, seed), 6))
    rows = []
    for x, y in samples:
        ovals = values_at(octics, x.coords)
        for p, q in ((0, 1), (0, 2), (1, 2)):
            row = [0] * 9
            for j in range(3):
                row[3 * p + j] += ovals[j] * y.coords[q]
                row[3 * q + j] -= ovals[j] * y.coords[p]
            rows.append(row)
    (coeffs,) = kernel_basis(rows)
    return RationalMap(*(sum((octics[j] * coeffs[3 * i + j] for j in range(3)), HPoly.zero(8))
                         for i in range(3)))


def chain_image(inv, x):
    """The Geiser image of x by the Cayley-Bacharach chain, or None: the
    ninth base point of the pencil of cubics through the 7 points and x,
    f and h the net's combinations orthogonal to its values at x
    (perp_basis), that _ninth_base_point builds from chords on its members
    and that the certificate takes."""
    vx = inv._through(x)[1]
    f, h = (_Cubic.combination(c, inv._cubics) for c in perp_basis(vx))
    try:
        return _ninth_base_point(f, h, inv.config.points, x,
                                 lambda q: inv.certifies(x.coords, vx, q, inv._at(q)))
    except ExtractionError:
        return None


def seeded_configs(count):
    """The first `count` seeded 7-point sets in general position."""
    out = []
    seed = 0
    while len(out) < count:
        seed += 1
        try:
            out.append(make_point_config(sample_points(seed, 7), "geiser"))
        except ValidationError:
            continue
    return out


@seeded(8)
@given(pts=point_sets(7))
def test_sides_pull_back_to_two_singular_cubics_and_a_conic(pts):
    sigma = GeiserInvolution(make_point_config(pts, "geiser")).interpolated_map
    cubics = [singular_cubic(pts, a) for a in range(7)]
    for a, b in combinations(range(7), 2):
        line = side(pts, a, b)
        pulled = sum((c * f for c, f in zip(line, sigma.components) if c), HPoly.zero(8))
        conic = conic_through([p for i, p in enumerate(pts) if i not in (a, b)])
        assert pulled.canonical() == (cubics[a] * cubics[b] * conic).canonical(), (a, b)


def _rows(config):
    """The net of config as _Cubic rows, as GeiserInvolution._cubics."""
    return [_Cubic.from_hpoly(c) for c in config.cubics]


def _octics(config, net):
    """octic_triple_system on the factors read off the net, as
    GeiserInvolution._raw multiplies them out."""
    return octic_triple_system(config, _octic_factors(config, net))


@seeded(3)
@given(pts=point_sets(7))
def test_octic_triple_system_spans_the_triple_point_octics(pts):
    config = make_point_config(pts, "geiser")
    octics = _octics(config, _rows(config))
    rows = multiplicity_conditions([p.coords for p in pts], 8, [3] * 7)
    assert len(rows) == 42 and len(rows[0]) == 45
    vecs = [octic_vector(f) for f in octics]
    assert all(sum(r * c for r, c in zip(row, v)) == 0 for row in rows for v in vecs)
    reference = [octic_vector(f) for f in triple_point_octics(pts)]
    assert len(reference) == 3
    assert matrix_rank(vecs) == 3 and matrix_rank(vecs + reference) == 3


def kernel_cubic(coords, a):
    """C_a as the kernel of the 9 x 10 conditions on cubics: through the
    points, singular at the point a."""
    (cubic,) = forms_with_multiplicities(coords, 3, [1] * a + [2] + [1] * (len(coords) - 1 - a), 1,
                                         f"cubics singular at point {a}")
    return cubic


@seeded(4)
@given(pts=point_sets(7))
def test_singular_cubics_from_the_net_are_the_kernels(pts):
    """The member of the net singular at p_a is the kernel's cubic, term for
    term, and the octics are the products of those kernels and the conics."""
    config = make_point_config(pts, "geiser")
    coords = [p.coords for p in pts]
    cubics = [kernel_cubic(coords, a) for a in range(7)]
    net = _rows(config)
    for a in range(7):
        lam = _singular_coefficients(net, coords[a], a)
        got = sum((f * c for c, f in zip(lam, config.cubics)), HPoly.zero(3)).canonical()
        assert got.degree == 3 and got.terms == cubics[a].terms, a
    expected = []
    for a, b in ((0, 1), (0, 2), (1, 2)):
        (conic,) = forms_with_multiplicities([c for i, c in enumerate(coords) if i not in (a, b)], 2,
                                             [1] * 5, 1, "conics")
        expected.append(cubics[a] * cubics[b] * conic)
    assert [f.terms for f in _octics(config, net)] == [f.terms for f in expected]


def test_a_net_without_one_member_singular_at_a_point_is_refused(geiser):
    """Three cubics all singular at p_0 have gradients of rank 0 there, and
    x_i s^2, s the linear form of p_0, gradients of rank 3: in neither net
    is one member singled out, and the octics are refused, naming p_0."""
    config = geiser.config
    p0 = config.points[0].coords
    singular = forms_with_multiplicities([p0], 3, [2], 7, "cubics singular at point 0")[:3]
    s = sum((HPoly.variable(i) * c for i, c in enumerate(p0) if c), HPoly.zero(1))
    independent = [HPoly.variable(i) * s * s for i in range(3)]
    for cubics in (singular, independent):
        try:
            degenerate = config._replace(cubics=tuple(cubics))
            _octics(degenerate, _rows(degenerate))
        except ValidationError as exc:
            assert exc.reason == "degenerate configuration"
            assert "point 0" in str(exc)
        else:
            raise AssertionError("a net with no one member singular at p_0 was accepted")


def test_a_third_vertex_on_every_conic_of_the_pencil_is_refused(geiser):
    """With points 3, 4, 5 on a line L through the vertex p_c, every conic
    through points 3-6 is L times a line through p_6, so it passes through
    p_c: no conic of the side opposite p_c is singled out, and the octics are
    refused, naming that side. With p_6 on L as well the conics through
    points 3-6 form a net, refused by its dimension."""
    config = geiser.config
    pts = list(config.points)
    q = (3, -5, 7)
    for c, (a, b) in ((2, (0, 1)), (1, (0, 2)), (0, (1, 2))):
        p = pts[c].coords
        on_line = [ProjPoint(*(u + t * v for u, v in zip(p, q))) for t in (1, 2, 3, 4)]
        for moved, message in ((on_line[:3] + pts[6:], f"conics missing points {a}, {b}"),
                               (on_line, "conics through points 3-6 form a system of dimension 3")):
            try:
                degenerate = config._replace(points=tuple(pts[:3] + moved))
                _octics(degenerate, _rows(degenerate))
            except ValidationError as exc:
                assert exc.reason == "degenerate configuration"
                assert message in str(exc), (c, str(exc))
            else:
                raise AssertionError(f"a pencil of conics all through point {c} was accepted")


def test_closed_form_matches_the_six_sample_fit():
    # the fit does not depend on the order of the points or on the sample
    for config in seeded_configs(10):
        pts = config.points
        sigma = GeiserInvolution(config).interpolated_map
        assert sigma.components == six_sample_fit(GeiserInvolution(config)).components
        for order in (pts[::-1], pts[3:] + pts[:3]):
            inv = GeiserInvolution(make_point_config(order, "geiser"))
            assert inv.interpolated_map.components == sigma.components, order
            for seed in (5, 11):
                inv = GeiserInvolution(make_point_config(order, "geiser"))
                assert six_sample_fit(inv, seed).components == sigma.components, (order, seed)


# sha256 of str(interpolated_map) on seeded_configs(8): a faster
# fit or fit check must leave these maps byte-identical
FITTED_MAP_SHA256 = (
    "0eaa508e307ece1e2e969b749448ae18652021a4a6ba3ba0cfcdac87ee0347cb",
    "e5cf37b174a0aad9f46f3203c1dba9da1b798adbad65586fac080ed2ff630b5f",
    "2ba01656eae7b7cb87edc6e9223498e79fee5e896f1278a9e5a244f8500277e4",
    "0b49d39f86e40eb96c8a1d89e07c59eb519b0159bc20170893d4a38b05a2e6dc",
    "67bfbd1350dd4cca51d21d2dfdd188694d4de0c1d3986bf7fbf05c560dbb2ed9",
    "afd4ef4ded03506531a6f3937003c6b1e80e877574011a7d70667610818cd3c0",
    "4490b04b86e455d092c095e6a82acf914c53f3068121000dc23e069d07567b5e",
    "c685b86c0ce31fb01c02c59f715488c51c93565177f28348b9bd59caf917ca6f",
)


def test_fitted_maps_are_pinned():
    digests = tuple(sha256(str(GeiserInvolution(config).interpolated_map).encode()).hexdigest()
                    for config in seeded_configs(len(FITTED_MAP_SHA256)))
    assert digests == FITTED_MAP_SHA256


def test_fit_without_a_gcd_is_the_normalised_map():
    """The fit scales its raw components with no gcd (RationalMap.
    _from_coprime); the map is the one the gcd path normalises them to."""
    for config in seeded_configs(8):
        inv = GeiserInvolution(config)
        assert inv.interpolated_map == RationalMap(*inv._raw)


def test_certificate_refuses_a_common_line_factor(geiser):
    """The line through p_0 and p_1 times the x-partials of the involution's
    components: a degree-8 triple with a common line factor, which the gcd
    of RationalMap would divide out. Built without that gcd, it is refused
    by the certificate itself: the partials are only double at p_2..p_6."""
    sigma = geiser.interpolated_map
    pts = geiser.config.points
    a, b, c = cross(pts[0].coords, pts[1].coords)
    line = HPoly(1, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})
    comps = [line * f.partial(0) for f in sigma.components]
    assert RationalMap(*comps).degree == 7
    planted = RationalMap._from_coprime(comps)
    assert planted.degree == 8
    with pytest.raises(ValidationError, match=re.escape(f"multiplicity < 3 at the base point {pts[2]}")) as exc:
        geiser.certify_map(planted, geiser.contracted_pairs)
    assert exc.value.reason == "interpolation failed"


def test_an_evaluation_and_a_fit_read_each_singular_member_once(monkeypatch):
    """An evaluation reads C_0, C_1, C_2 for the octics' factors and C_3 for
    the point x_3 that scales the closed form; the fit after it multiplies
    out the same factors, reuses x_3 and reads only C_4, C_5, C_6 for the
    rest of its frame: 7 members, one per point."""
    calls = []
    real = involutions._singular_coefficients

    def counted(rows, p, a):
        calls.append(a)
        return real(rows, p, a)

    monkeypatch.setattr(involutions, "_singular_coefficients", counted)
    config = seeded_configs(1)[0]
    inv = GeiserInvolution(config)
    x = next(p for p in sample_points(3, 10) if p not in config.points)
    inv.eval_detail(x)
    assert sorted(calls) == [0, 1, 2, 3]
    inv.interpolated_map
    assert sorted(calls) == list(range(7))


def test_sample_on_a_contracted_cubic_is_skipped(geiser):
    """A point of C_1, where two of the octics vanish, could not scale the
    closed form, and the closed form sends it to p_1. Its own sample, its
    first contracted pair, lies on the cubic singular at pts[3], where no
    octic vanishes."""
    pts = geiser.config.points
    c1 = singular_cubic(pts, 0)
    p = pts[0].coords
    # the line from p1 towards r meets C_1 again at C_1(r) p1 - q r, where q
    # is the second-order term of C_1(p1 + t r)
    r = (2, -3, 5)
    q = c1.eval(tuple(u + v for u, v in zip(p, r))) - c1.eval(r)
    on_c1 = ProjPoint(*(c1.eval(r) * u - q * v for u, v in zip(p, r)))
    assert c1.eval(on_c1.coords) == 0 and on_c1 not in pts
    octics = octic_triple_system(geiser.config, geiser._factored_octics)
    assert 0 in values_at(octics, on_c1.coords)
    assert geiser.eval_detail(on_c1)[0] == pts[0]
    x3, p3 = geiser.contracted_pairs[0]
    assert p3 == pts[3] and all(values_at(octics, x3.coords))


def refusal(inv, sigma, seed):
    """The message with which certify_map refuses sigma."""
    try:
        inv.certify_map(sigma, evaluated_pairs(inv, seed))
    except ValidationError as exc:
        assert exc.reason == "interpolation failed"
        return str(exc)
    raise AssertionError("the certificate accepted a wrong map")


@seeded(4)
@given(pts=point_sets(7), seed=st.integers(0, 2**32))
def test_certificate_refuses_a_wrong_scale_and_an_extra_monomial(pts, seed):
    inv = GeiserInvolution(make_point_config(pts, "geiser"))
    sigma = inv.interpolated_map
    inv.certify_map(sigma, evaluated_pairs(inv, seed))
    f1, f2, f3 = sigma.components
    # a wrong lambda keeps the type (8; 3^7): only the frame can see it
    assert "frame point" in refusal(inv, RationalMap(f1 * 2, f2, f3), seed)
    x8 = HPoly(8, {(8, 0, 0): 1})
    assert "multiplicity < 3 at the base point" in refusal(inv, RationalMap(f1 + x8, f2, f3), seed)


@seeded(4)
@given(pts=point_sets(7), seed=st.integers(0, 2**32))
def test_certificate_reads_the_fourth_frame_point(pts, seed):
    """M o sigma, with the first three frame images eigenvectors of M for
    the eigenvalues 1, 1, 2, agrees with sigma at three frame points."""
    inv = GeiserInvolution(make_point_config(pts, "geiser"))
    sigma = inv.interpolated_map
    first = list(islice(inv._frame(evaluated_pairs(inv, seed)), 3))
    y = [[first[j][1].coords[i] for j in range(3)] for i in range(3)]     # columns y_1, y_2, y_3
    adj = adjugate3(y)
    m = [[sum(y[i][k] * (2 if k == 2 else 1) * adj[k][j] for k in range(3)) for j in range(3)]
         for i in range(3)]
    moved = RationalMap(*(sum((f * c for c, f in zip(row, sigma.components)), HPoly.zero(8)) for row in m))
    message = refusal(inv, moved, seed)
    assert "frame point" in message
    assert not any(f"frame point {x} " in message for x, _ in first)


@seeded(3)
@given(pts=point_sets(7), seed=st.integers(0, 2**32))
def test_certificate_needs_triple_points(pts, seed):
    """sigma + (g, 0, 0), g an octic singular at the 7 points through the
    four frame points but not triple at all of them, has degree 8, double
    points at the 7 points and the images of sigma at the frame: octics
    with double points there form a space of dimension 24, not 3. Only the
    triple-point step refuses it."""
    inv = GeiserInvolution(make_point_config(pts, "geiser"))
    sigma = inv.interpolated_map
    frame = list(inv._frame(evaluated_pairs(inv, seed)))
    coords = [p.coords for p in pts]
    rows = multiplicity_conditions(coords + [x.coords for x, _ in frame], 8, [2] * 7 + [1] * 4)
    doubles = [HPoly(8, dict(zip(monomials(8), v))) for v in kernel_basis(rows)]
    g = next(f for f in doubles if any(map(any, multiplicity_values([f], coords, [3] * 7))))
    f1, f2, f3 = sigma.components
    wrong = RationalMap(f1 + g, f2, f3)
    assert wrong.degree == 8
    assert not any(map(any, multiplicity_values(wrong.components, coords, [2] * 7)))
    for x, image in frame:
        assert ProjPoint(*values_at(wrong.components, x.coords)) == image
    assert "multiplicity < 3 at the base point" in refusal(inv, wrong, seed)


@seeded(10)
@given(pts=point_sets(7), xs=st.lists(coords.map(lambda c: ProjPoint(*c)), min_size=3, max_size=3))
def test_closed_form_agrees_with_the_cayley_bacharach_chain(pts, xs):
    """At seeded points and at their images the closed form's certified
    value, read off its factors, is the ninth base point that the chord
    chain builds and the value of the fitted map."""
    inv = GeiserInvolution(make_point_config(pts, "geiser"))
    for x in xs:
        if x in pts:
            continue
        y, trace = inv.eval_detail(x)
        assert trace == EvalTrace(1)
        assert y == chain_image(inv, x) == ProjPoint(*values_at(inv.interpolated_map.components, x.coords)), x
        if y not in pts:
            assert inv.eval_detail(y)[0] == x == chain_image(inv, y), y


def test_contracted_pairs_are_certified():
    """Each x_a lies on C_a off the base points; the certificate takes p_a
    as its image and refuses every other base point, and eval_detail
    returns p_a. The four images p_3..p_6 are the frame certify_map reads."""
    for config in seeded_configs(8):
        inv = GeiserInvolution(config)
        pts = config.points
        pairs = inv.contracted_pairs
        assert [p for _, p in pairs] == list(pts[3:])
        for a, (x, p) in enumerate(pairs, start=3):
            assert x not in pts
            assert kernel_cubic([q.coords for q in pts], a).eval(x.coords) == 0
            vx = inv._through(x)[1]
            for q in pts:
                assert inv.certifies(x.coords, vx, q.coords, inv._at(q.coords)) == (q == p), (a, q)
            assert inv.eval_detail(x) == (p, EvalTrace(1))
        assert list(inv._frame(pairs)) == pairs


def test_certificate_refuses_pairs_without_a_frame(geiser):
    """Three images, or four with one repeated, hold no projective frame:
    the map is refused, though it is the involution."""
    sigma = geiser.interpolated_map
    pairs = geiser.contracted_pairs
    for short in (pairs[:3], pairs[:3] + pairs[:1]):
        with pytest.raises(ValidationError, match="no projective frame") as exc:
            geiser.certify_map(sigma, short)
        assert exc.value.reason == "interpolation failed"
