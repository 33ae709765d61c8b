from fractions import Fraction
from hashlib import sha256

import pytest

from planecremona.configs import SEXTIC_POINT, reference_eight_points, reference_seven_points
from planecremona.errors import ExtractionError, IndeterminacyError, ValidationError
from planecremona.exactpoly import forms_with_multiplicities, kernel_basis, matrix_rank, monomials
from planecremona.fixedcurve import invariant_of
from planecremona.involutions import (
    DEL_PEZZO,
    BertiniInvolution,
    GeiserInvolution,
    cubic_system,
    make_point_config,
    sextic_system,
)
from planecremona.picard import anti_reflection_in_k, make_lattice
from planecremona.projmaps import ProjPoint
from tests.streams import SplitMix64, image, perp_basis, sample_points


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


def sextic_rank(forms):
    """Rank of the coefficient rows of sextics."""
    return matrix_rank([[f.terms.get(e, 0) for e in monomials(6)] for f in forms])


def assert_spans_the_kernel(system, points):
    """system and the kernel's basis (reference_sextics) each have rank 4,
    and so does their union: they span one space."""
    reference = reference_sextics(points)
    assert sextic_rank(system) == sextic_rank(reference) == sextic_rank([*system, *reference]) == 4


def test_sextic_dimension_is_28_minus_24(eight_config):
    system, nodal = sextic_system(eight_config.points, eight_config.cubics)
    assert (tuple(system), nodal) == (eight_config.system, eight_config.nodal)
    assert len(reference_sextics(eight_config.points)) == 4
    assert_spans_the_kernel(system, eight_config.points)


def test_nodal_cubics_are_the_kernels_and_the_system_their_products(eight_config):
    """|-2K| is (c1^2, c1 c2, c2^2, C_0 C_7), with C_0 and C_7 the cubics
    through points 1-6 singular at point 0 and at point 7."""
    coords = [p.coords for p in eight_config.points]
    c1, c2 = eight_config.cubics
    c0, c7 = eight_config.nodal
    assert [c0] == forms_with_multiplicities(coords[:7], 3, [2] + [1] * 6, 1, "C_0")
    assert [c7] == forms_with_multiplicities(coords[1:], 3, [1] * 6 + [2], 1, "C_7")
    assert eight_config.system == (c1 * c1, c1 * c2, c2 * c2, c0 * c7)


def test_a_sextic_system_of_rank_below_4_is_refused(eight_config):
    """A pencil given as (c1, c1) makes three of the four products equal:
    the system has dimension 2 and is refused by name."""
    c1, _ = eight_config.cubics
    with pytest.raises(ValidationError, match="system of dimension 2, expected 4") as err:
        sextic_system(eight_config.points, (c1, c1))
    assert err.value.reason == "degenerate configuration"


def test_solved_forms_are_canonical_as_built(seven_config, eight_config):
    """The forms of forms_with_multiplicities are built from primitive
    vectors in the monomial order, without canonical(): each has the terms
    of its canonical form, in the same order."""
    forms = [*seven_config.cubics, *eight_config.cubics, *eight_config.nodal,
             *reference_sextics(eight_config.points)]
    for f in forms:
        assert list(f.terms.items()) == list(f.canonical().terms.items()), f


def test_sextic_system_is_the_kernel_on_seeded_configurations():
    """|-2K| built from the pencil and the nodal cubics C_0, C_7 spans the
    kernel of the 24 conditions on 28 coefficients, on 200 seeded
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
        assert_spans_the_kernel(config.system, config.points)


# -- Geiser ------------------------------------------------------------------------

def test_geiser_round_trips_exact(geiser, seven_config):
    xs = sample_points(101, 6, avoid=seven_config.points)
    for x in xs:
        y, trace = geiser.eval_detail(x)
        assert trace.attempts == 1          # the first construction certifies
        assert geiser.eval_detail(y)[0] == x


def test_geiser_fixed_point_on_jacobian_sextic(geiser):
    w = ProjPoint(*SEXTIC_POINT)
    assert geiser.fixed_sextic.eval(w.coords) == 0
    assert geiser.eval_detail(w)[0] == w


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
        geiser.eval_detail(seven_config.points[0])


def test_geiser_interpolated_map(geiser):
    sigma = geiser.interpolated_map
    assert sigma.degree == 8
    # the closed form agrees with the evaluator on fresh samples
    for x in sample_points(404, 5, avoid=geiser.config.points):
        assert image(sigma, x) == geiser.eval_detail(x)[0]


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
        assert geiser.eval_detail(ProjPoint(*x))[0] == ProjPoint(*y)


def test_geiser_image_on_contracted_cubic():
    # (5:3:1) lies on the cubic of the net that is double at (2:1:2); the
    # involution contracts that cubic to the base point
    pts = [(0, 1, -1), (1, -2, -2), (2, 1, 1), (1, -1, 1), (2, 1, 2), (1, 0, -2), (1, 1, 2)]
    inv = GeiserInvolution(make_point_config([ProjPoint(*p) for p in pts], "geiser"))
    assert inv.eval_detail(ProjPoint(5, 3, 1))[0] == ProjPoint(2, 1, 2)


# -- Bertini -------------------------------------------------------------------------

def test_bertini_round_trips_exact(bertini, eight_config):
    xs = sample_points(202, 3, avoid=eight_config.points)
    for x in xs:
        y, trace = bertini.eval_detail(x)
        assert trace.attempts == 1
        assert bertini.eval_detail(y)[0] == x


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
        assert bertini.eval_detail(ProjPoint(*x))[0] == ProjPoint(*y)


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
        y = bertini.eval_detail(x)[0]
        assert y != x and bertini.eval_detail(y)[0] == x
    # the ninth base point of the cubic pencil is the origin of the group
    # law on every member, so it is fixed
    p9 = bertini.ninth_point
    assert p9 not in pts and bertini.eval_detail(p9)[0] == p9


def test_bertini_indeterminate_at_base_points(bertini, eight_config):
    with pytest.raises(IndeterminacyError):
        bertini.eval_detail(eight_config.points[3])


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
    """J(c1, c2, .) vanishes on span{c1^2, c1 c2, c2^2}: with (c1, c2) in
    place of the nodal pair, J(c1, c2, c1 c2) = 0, there is no fixed nonic,
    and the configuration is refused by name."""
    inv = BertiniInvolution(eight_config._replace(nodal=eight_config.cubics))
    with pytest.raises(ValidationError, match="Jacobian nonic vanishes") as err:
        inv.fixed_curve
    assert err.value.reason == "degenerate configuration"


def test_geiser_fixed_curve_of_a_degenerate_net_is_refused(seven_config):
    """With c1 in place of c3, J(c1, c2, c1) = 0: there is no fixed sextic,
    and the configuration is refused by name."""
    c1, c2, _ = seven_config.cubics
    inv = GeiserInvolution(seven_config._replace(cubics=(c1, c2, c1)))
    with pytest.raises(ValidationError, match="Jacobian sextic vanishes") as err:
        inv.fixed_curve
    assert err.value.reason == "degenerate configuration"


def seeded_point_configs(kind, count):
    """The first `count` seeded point sets of a kind of DEL_PEZZO in general
    position: sample_points(seed, n) for seed = 1, 2, ..."""
    out = []
    seed = 0
    while len(out) < count:
        seed += 1
        try:
            out.append(make_point_config(sample_points(seed, DEL_PEZZO[kind].n), kind))
        except ValidationError:
            continue
    return out


INVOLUTIONS = {"geiser": GeiserInvolution, "bertini": BertiniInvolution}


def pinned_involutions(kind):
    """The involutions of the reference configuration of a kind and of
    seeded_point_configs(kind, 3), in that order."""
    reference = reference_seven_points() if kind == "geiser" else reference_eight_points()
    return [INVOLUTIONS[kind](config) for config in (reference, *seeded_point_configs(kind, 3))]


def involution_images(inv, seed):
    """x, its image and attempts, or "refused", at 100 seeded points."""
    lines = []
    for x in sample_points(seed, 100, avoid=inv.config.points):
        try:
            image, trace = inv.eval_detail(x)
            lines.append(f"{x.coords} {image.coords} {trace.attempts}")
        except ExtractionError:
            lines.append(f"{x.coords} refused")
    return "\n".join(lines)


# sha256 of involution_images(inv, k) on pinned_involutions("bertini"), the
# reference 8 points (k = 1) and three seeded sets (k = 2, 3, 4): a faster
# evaluator or another basis of |-2K| must leave these images and attempts
# identical
BERTINI_IMAGES_SHA256 = (
    "0b3e278ce8be08f1b92e1b663c49dc8d6d572d118439f05aef808d6c8cac0651",
    "44ac30078d40034be5af30814d89d8ccd51ba815663a28d6d3a34327c7bc6ef5",
    "8334b684dcd781580639e75459d57ab5c3c4c821dda739befad41be1b364cebb",
    "e15840ca9c9186c92b57553a3925cd5ebbf2a5ffdad3c38cc8cc8535ac8e5502",
)

# the same on pinned_involutions("geiser"): the reference 7 points and three
# seeded 7-point sets
GEISER_IMAGES_SHA256 = (
    "2d3c6ac46ea2e17ea41b8458e0c898a2d4d51011cd21190b1aedb33e3e88cf39",
    "052a28b99d602adcc793e9b6817711b3c1a3653041bdef15801456d26095f97b",
    "c4f5f74a6b27232fda5ec04b3465c06f8ed8d5d7348f513a9d3ced19aa4659af",
    "ea4a4673630b757e4f310e72928bc998200ae8f0fba351ba57d9dffc8b3652ec",
)

# sha256 of str(fixed_curve) on pinned_involutions(kind), per kind
FIXED_CURVE_SHA256 = {
    "geiser": (
        "3ee9b77292b92b1f49e22a050094936f875b0ce7e953fda2f0ce9ad4a03263f4",
        "b015d248e2285d402654462bef0bd67849a1bf42b8f663c9ab1ef04f8b00349a",
        "575e18004207c68e859932e74d00aae1e56c24787005c541aee3fd176af64ec8",
        "ffb7fb40f167d1e09c85bc9ff2f72bebf17293a9420cbbb4bdab1de13bebcd44",
    ),
    "bertini": (
        "cdec59c2815362406fef783695fe97641e57b38fac237cbd4e7609f1b39bba6a",
        "174470e298463302e9e1d1640fca3253616a2d2a60d092ae32783ebdc197b841",
        "84d5e9e4d9232e2bcf1c3fa097055cca646e000036539079afa60133c1e3e214",
        "98442b2e3cc7907370b71d944cb36b8de88cb8a761248b429320f2ed0672ec31",
    ),
}


def image_digests(kind):
    return tuple(sha256(involution_images(inv, seed).encode()).hexdigest()
                 for seed, inv in enumerate(pinned_involutions(kind), start=1))


def test_bertini_images_are_pinned():
    assert image_digests("bertini") == BERTINI_IMAGES_SHA256


def test_geiser_images_are_pinned():
    assert image_digests("geiser") == GEISER_IMAGES_SHA256


@pytest.mark.parametrize("kind", DEL_PEZZO)
def test_fixed_curves_are_pinned(kind):
    digests = tuple(sha256(str(inv.fixed_curve).encode()).hexdigest() for inv in pinned_involutions(kind))
    assert digests == FIXED_CURVE_SHA256[kind]


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
    assert geiser._through(x)[1] == values
    members = perp_basis(values)
    assert matrix_rank(members) == 2 == len(kernel_basis([values]))
    assert all(sum(c * v for c, v in zip(m, values)) == 0 for m in members)
    # the members of the space of 4 sextics through x: a net
    vx = bertini._through(x)[1]
    assert vx == [s.eval(x.coords) for s in bertini.space]
    assert len(kernel_basis([vx])) == 3
    # at a base point the restriction degenerates
    with pytest.raises(IndeterminacyError):
        geiser._through(geiser.config.points[0])
    with pytest.raises(IndeterminacyError):
        bertini._through(bertini.config.points[0])


def test_involutions_commute_with_relabeling(seven_config):
    # the Geiser image depends on the point set, not its ordering
    pts = list(seven_config.points)
    reordered = make_point_config(pts[::-1], "geiser")
    a = GeiserInvolution(seven_config)
    b = GeiserInvolution(reordered)
    x = ProjPoint(2, 3, 7)
    assert a.eval_detail(x)[0] == b.eval_detail(x)[0]
