from fractions import Fraction

import pytest

from planecremona.configs import SEXTIC_POINT
from planecremona.errors import IndeterminacyError, ValidationError
from planecremona.exactpoly import HPoly, format_hpoly, forms_with_multiplicities, kernel_basis, matrix_rank
from planecremona.fixedcurve import invariant_of
from planecremona.involutions import (
    DEL_PEZZO,
    BertiniInvolution,
    GeiserInvolution,
    _perp_basis,
    cubic_system,
    make_point_config,
    sextic_system,
)
from planecremona.picard import anti_reflection_in_k, make_lattice
from planecremona.projmaps import ProjPoint
from planecremona.rng import SplitMix64
from tests.streams import sample_points


# -- configurations ------------------------------------------------------------

def test_seven_config_valid(seven_config):
    assert len(seven_config.system) == 3


def test_eight_config_valid(eight_config):
    assert len(eight_config.system) == 4


def test_repeated_point_rejected():
    pts = [ProjPoint(*c) for c in [(1, 0, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1),
                                   (1, 2, 3), (2, 5, 1), (3, 1, 2)]]
    with pytest.raises(ValidationError, match="distinct"):
        make_point_config(pts, "geiser")
    with pytest.raises(ValidationError, match="repeated"):
        cubic_system(pts)


def test_unknown_kind_refused(seven_config):
    pts = list(seven_config.points)
    for kind in ("Geiser", "dj", ""):
        with pytest.raises(ValidationError, match=f"no point configuration for kind {kind!r}") as err:
            make_point_config(pts, kind)
        assert err.value.reason == "unknown kind"


@pytest.mark.parametrize("kind", DEL_PEZZO)
def test_del_pezzo_table_is_the_anti_reflection_in_k(kind, geiser, bertini):
    """On the blow-up of n points the involution pulls H back to
    degree H - 3m sum E_i: column 0 of the anti-reflection in K, (8, -3, ...)
    and (17, -6, ...); the involution's family carries that degree."""
    dp = DEL_PEZZO[kind]
    matrix = anti_reflection_in_k(make_lattice(dp.n)).matrix
    assert [row[0] for row in matrix] == [dp.degree] + [-3 * dp.m] * dp.n
    inv = geiser if kind == "geiser" else bertini
    assert inv.config.kind == kind and len(inv.config.points) == dp.n
    assert inv.family.degree == dp.degree
    assert (inv.fixed_curve.degree, dp.m + 1) == dp.fixed_curve


def test_collinear_triple_rejected():
    pts = [ProjPoint(*c) for c in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1),
                                   (1, 2, 3), (2, 5, 1), (3, 1, 2)]]
    with pytest.raises(ValidationError, match="collinear"):
        make_point_config(pts, "geiser")


def test_collinear_eight_rejected():
    pts = [ProjPoint(*c) for c in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1),
                                   (1, 2, 3), (2, 5, 1), (3, 1, 2), (1, -1, 2)]]
    with pytest.raises(ValidationError, match="collinear"):
        make_point_config(pts, "bertini")


# -- the linear systems ----------------------------------------------------------

def test_net_cubics_vanish_at_base_points(seven_config, geiser):
    assert len(geiser.space) == 3
    for g in geiser.space:
        assert g.degree == 3
        for p in seven_config.points:
            assert g.eval(p.coords) == 0


def test_sextics_singular_at_base_points(eight_config, bertini):
    assert len(bertini.space) == 4
    for g in bertini.space:
        assert g.degree == 6
        for p in eight_config.points:
            assert g.eval(p.coords) == 0
            for v in range(3):
                assert g.partial(v).eval(p.coords) == 0


def reference_sextics(points):
    """The sextics singular at the 8 points as the 24 x 28 kernel of their
    conditions gives them."""
    return forms_with_multiplicities([p.coords for p in points], 6, [2] * 8, 4,
                                     "sextics singular along the points")


def test_sextic_dimension_is_28_minus_24(eight_config):
    reference = reference_sextics(eight_config.points)
    assert len(reference) == 4
    assert sextic_system(eight_config.points, eight_config.cubics)[0] == reference
    assert list(eight_config.system) == reference


def test_solved_forms_are_canonical_as_built(seven_config, eight_config):
    """The forms of forms_with_multiplicities and sextic_system are built
    from primitive vectors in the monomial order, without canonical(): each
    has the terms of its canonical form, in the same order."""
    pts = eight_config.points
    forms = [*seven_config.cubics, *eight_config.cubics, *sextic_system(pts, eight_config.cubics)[0],
             *reference_sextics(pts)]
    for f in forms:
        assert list(f.terms.items()) == list(f.canonical().terms.items()), f


def test_sextic_system_is_the_kernel_on_seeded_configurations():
    """|-2K| built from the pencil and the nodal cubics C_0, C_7 is the
    kernel's basis, coefficient for coefficient, on 200 seeded
    configurations that make_point_config accepts."""
    stream = SplitMix64(2899)
    accepted = 0
    while accepted < 200:
        coords = [tuple(stream.next_int(-6, 6) for _ in range(3)) for _ in range(8)]
        try:            # (0:0:0), or not in general position
            config = make_point_config([ProjPoint(*c) for c in coords], "bertini")
        except ValidationError:
            continue
        accepted += 1
        assert [format_hpoly(f) for f in config.system] == \
            [format_hpoly(f) for f in reference_sextics(config.points)], coords


# -- Geiser ------------------------------------------------------------------------

def test_geiser_round_trips_exact(geiser, seven_config):
    xs = sample_points(101, 6, avoid=seven_config.points)
    for x in xs:
        y, trace = geiser.eval_detail(x)
        assert trace.attempts == 1          # the first construction certifies
        assert geiser.eval(y) == x


def test_geiser_fixed_point_on_jacobian_sextic(geiser):
    w = ProjPoint(*SEXTIC_POINT)
    assert geiser.fixed_sextic.eval(w.coords) == 0
    assert geiser.eval(w) == w


def test_geiser_jacobian_properties(geiser, seven_config):
    j = geiser.fixed_sextic
    assert j.degree == 6
    for p in seven_config.points:
        for v in range(3):
            assert j.partial(v).eval(p.coords) == 0


def test_jacobian_invariant_under_basis_change(geiser, seven_config):
    # replacing the net basis by an invertible combination rescales the
    # determinant by a constant, so the canonical form is unchanged
    g1, g2, g3 = geiser.space
    new_basis = [g1 + g2, g2, g3 + g1]
    rows = [[g.partial(v) for v in range(3)] for g in new_basis]
    det = (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
    )
    assert det.canonical() == geiser.fixed_sextic


def test_geiser_indeterminate_at_base_points(geiser, seven_config):
    with pytest.raises(IndeterminacyError):
        geiser.eval(seven_config.points[0])


def test_geiser_interpolated_map(geiser):
    sigma = geiser.interpolated_map
    assert sigma.degree == 8
    # the closed form agrees with the evaluator on fresh samples
    for x in sample_points(404, 5, avoid=geiser.config.points):
        assert sigma.eval(x) == geiser.eval(x)


def test_geiser_record(geiser):
    assert geiser.kind == "geiser" and geiser.family.degree == 8
    assert geiser.fixed_curve == geiser.fixed_sextic
    assert invariant_of(geiser).genus == 3


# images computed by the earlier resultant-elimination evaluators
GEISER_IMAGES = [
    (SEXTIC_POINT, SEXTIC_POINT),
    ((9, 6, 7), (6359287889205, -1494140711046, -892913403910)),
    ((2, 6, 7), (132755170375441, -34921881634249, 35002511832751)),
    ((1, 1, -1), (22265, -50264, 4635)),
    ((9, 8, 2), (65384537169, 104244247256, 92765754032)),
    ((4, -4, -3), (353428937053, 125643239623, 202337302079)),
    ((5, -2, 3), (15716685824455, -297866256770810, -151353855980938)),
]


def test_geiser_recorded_images(geiser):
    for x, y in GEISER_IMAGES:
        assert geiser.eval(ProjPoint(*x)) == ProjPoint(*y)


def test_geiser_image_on_contracted_cubic():
    # (5:3:1) lies on the cubic of the net that is double at (2:1:2); the
    # involution contracts that cubic to the base point
    pts = [(0, 1, -1), (1, -2, -2), (2, 1, 1), (1, -1, 1), (2, 1, 2), (1, 0, -2), (1, 1, 2)]
    inv = GeiserInvolution(make_point_config([ProjPoint(*p) for p in pts], "geiser"))
    assert inv.eval(ProjPoint(5, 3, 1)) == ProjPoint(2, 1, 2)


# -- Bertini -------------------------------------------------------------------------

def test_bertini_round_trips_exact(bertini, eight_config):
    xs = sample_points(202, 3, avoid=eight_config.points)
    for x in xs:
        y, trace = bertini.eval_detail(x)
        assert trace.attempts == 1
        assert bertini.eval(y) == x


BERTINI_IMAGES = [
    ((2, 3, 7), (90248659568972575, 140287127599959845, 684641864192847228)),
    ((1, 1, -1), (7466976097795333311, 10653375887002052495, 1275077029072208815)),
    ((2, -7, -8), (11115568937728859678129900153880900, -45729878453546566408801076282967485,
                   -52079926403487825966155329308442816)),
    ((2, 1, 1), (253490674369244, -717141071234325, -278622227714025)),
    ((1, 8, 5), (123292358126038215580191008228815708, 50236708958710766596199802804934311,
                 68909584942227763150554195021012597)),
    ((2, -9, 3), (10550334577331899911030812556396, 18166072274533808437513657749051,
                  5979069693939736603649535633631)),
]


def test_bertini_recorded_images(bertini):
    for x, y in BERTINI_IMAGES:
        assert bertini.eval(ProjPoint(*x)) == ProjPoint(*y)


def _fraction_rank(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for c in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][c] / m[rank][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_bertini_recorded_images_lie_on_the_net_through_x():
    # certified apart from the package: the sextics singular at the 8
    # points take proportional values at x and y, i.e. vanishing at y adds
    # no condition to the sextics singular at the 8 points through x
    from planecremona.configs import EIGHT_POINTS

    monos = [(i, j, 6 - i - j) for i in range(7) for j in range(7 - i)]

    def value_row(p, var=None):
        row = []
        for e in monos:
            e = list(e)
            c = 1
            if var is not None:
                c, e[var] = e[var], e[var] - 1
            row.append(c and c * p[0] ** e[0] * p[1] ** e[1] * p[2] ** e[2])
        return row

    singular = [value_row(p, v) for p in EIGHT_POINTS for v in range(3)]
    for x, y in BERTINI_IMAGES:
        through_x = singular + [value_row(x)]
        assert _fraction_rank(through_x) == 25
        assert _fraction_rank(through_x + [value_row(y)]) == 25
        assert ProjPoint(*y) not in [ProjPoint(*p) for p in EIGHT_POINTS + (x,)]


def test_bertini_general_configuration(bertini):
    # the reference set is in general position: every sample round-trips
    # and has an image other than itself
    pts = bertini.config.points
    for x in sample_points(303, 4, avoid=pts):
        y = bertini.eval(x)
        assert y != x and bertini.eval(y) == x
    # the ninth base point of the cubic pencil is the origin of the group
    # law on every member, so it is fixed
    p9 = bertini.ninth_point
    assert p9 not in pts and bertini.eval(p9) == p9


def test_bertini_indeterminate_at_base_points(bertini, eight_config):
    with pytest.raises(IndeterminacyError):
        bertini.eval(eight_config.points[3])


def test_bertini_record(bertini, eight_config):
    assert bertini.kind == "bertini" and bertini.family.degree == 17
    assert invariant_of(bertini).genus == 4
    # the fixed curve: a nonic with a triple point at each of the 8 points
    curve = bertini.fixed_curve
    assert curve.degree == 9
    for p in eight_config.points:
        for v1 in range(3):
            for v2 in range(v1, 3):
                assert curve.partial(v1).partial(v2).eval(p.coords) == 0


def test_bertini_fixed_curve_of_a_degenerate_space_is_refused(eight_config):
    """J(c1, c2, .) vanishes on span{c1^2, c1 c2, c2^2}: a space inside it
    has no fixed nonic, and is refused by name."""
    c1, c2 = eight_config.cubics
    squares = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))       # the first three products
    inv = BertiniInvolution(eight_config._replace(system=(c1 * c1, c1 * c2, c2 * c2), change=(squares, 1)))
    with pytest.raises(ValidationError, match="Jacobian nonic vanishes") as err:
        inv.fixed_curve
    assert err.value.reason == "degenerate configuration"


def _perturbed(config, what):
    c1, c2 = config.cubics
    c0, c7 = config.nodal
    rows, d = config.change
    if what == "wrong C_0":
        return config._replace(nodal=(c1, c7))
    if what == "C_0 twice":
        return config._replace(nodal=(c0, c0))
    if what == "one entry of D T":
        return config._replace(change=(((rows[0][0] + 1,) + rows[0][1:],) + rows[1:], d))
    return config._replace(change=(rows, d + 1 if what == "D" else 0))


def test_change_of_basis_reads_the_sextics_off_the_products(eight_config):
    """D times each sextic of the space is (D T) (c1^2, c1 c2, c2^2, C_0 C_7),
    with C_0 and C_7 the cubics through points 1-6 singular at point 0 and
    at point 7."""
    coords = [p.coords for p in eight_config.points]
    c1, c2 = eight_config.cubics
    c0, c7 = eight_config.nodal
    assert [c0] == forms_with_multiplicities(coords[:7], 3, [2] + [1] * 6, 1, "C_0")
    assert [c7] == forms_with_multiplicities(coords[1:], 3, [1] * 6 + [2], 1, "C_7")
    rows, d = eight_config.change
    assert d > 0 and len(rows) == 4
    products = (c1 * c1, c1 * c2, c2 * c2, c0 * c7)
    for row, sextic in zip(rows, eight_config.system):
        combo = sum((p * t for t, p in zip(row, products)), HPoly.zero(6))
        assert combo == sextic * d


@pytest.mark.parametrize("what", ["wrong C_0", "C_0 twice", "one entry of D T", "D", "zero D"])
def test_a_change_of_basis_that_misses_the_sextics_is_refused(eight_config, what):
    """A configuration whose nodal cubics or change of basis do not give its
    sextics is refused by the coefficient check when the involution is
    built."""
    with pytest.raises(ValidationError, match="not the change of basis") as err:
        BertiniInvolution(_perturbed(eight_config, what))
    assert err.value.reason == "degenerate configuration"


def test_bertini_fixed_curve_divides_the_jacobians_of_the_sextics(bertini):
    from itertools import combinations

    from planecremona.involutions import _jacobian

    for f, g, h in combinations(bertini.space, 3):
        jac = _jacobian(f, g, h)
        assert jac.degree == 15
        jac.divexact(bertini.fixed_curve)           # raises unless it divides


# the old reference 8-point set: points 0, 1, 2, 3, 6, 7 lie on the conic
# 4xy - xz - 3yz
DEGENERATE_EIGHT = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (2, 5, 1), (3, 1, 2),
                    (1, -1, 2)]


def test_old_reference_eight_points_rejected():
    with pytest.raises(ValidationError, match="points 0, 1, 2, 3, 6, 7 lie on a conic") as err:
        make_point_config([ProjPoint(*p) for p in DEGENERATE_EIGHT], "bertini")
    assert err.value.reason == "degenerate configuration"


def test_cubic_singular_at_one_of_eight_points_rejected():
    # 7 points of the nodal cubic y^2 z = x^3 + x^2 z and its node: no 3 on
    # a line and no 6 on a conic, but the cubic is singular at point 0
    pts = [(0, 0, 1)] + [(t * t - 1, t * (t * t - 1), 1) for t in (0, 2, -2, 3, -3, 4, 6)]
    with pytest.raises(ValidationError, match="singular at point 0") as err:
        make_point_config([ProjPoint(*p) for p in pts], "bertini")
    assert err.value.reason == "degenerate configuration"


def test_six_of_seven_points_on_a_conic_rejected():
    onc = [(t * t, t, 1) for t in (0, 1, -1, 2, -2, 3)]
    with pytest.raises(ValidationError, match="lie on a conic"):
        make_point_config([ProjPoint(*p) for p in onc + [(1, 2, 5)]], "geiser")


def test_net_restriction_dimensions(geiser, bertini):
    x = ProjPoint(2, 3, 7)
    # the members of the net of cubics through x: a pencil, spanned by the
    # two coefficient vectors orthogonal to the net's values at x
    values = [g.eval(x.coords) for g in geiser.space]
    assert geiser._values(x) == values
    members = _perp_basis(values)
    assert matrix_rank(members) == 2 == len(kernel_basis([values]))
    assert all(sum(c * v for c, v in zip(m, values)) == 0 for m in members)
    # the members of the space of 4 sextics through x: a net
    vx = bertini._values(x)
    assert vx == [s.eval(x.coords) for s in bertini.space]
    assert len(kernel_basis([vx])) == 3
    # at a base point the restriction degenerates
    with pytest.raises(ValidationError):
        geiser._values(geiser.config.points[0])
    with pytest.raises(ValidationError):
        bertini._values(bertini.config.points[0])


def test_involutions_commute_with_relabeling(seven_config):
    # the Geiser image depends on the point set, not its ordering
    pts = list(seven_config.points)
    reordered = make_point_config(pts[::-1], "geiser")
    a = GeiserInvolution(seven_config)
    b = GeiserInvolution(reordered)
    x = ProjPoint(2, 3, 7)
    assert a.eval(x) == b.eval(x)
