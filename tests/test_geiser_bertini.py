import pytest

from planecremona.configs import SEXTIC_POINT
from planecremona.errors import IndeterminacyError, ValidationError
from planecremona.involutions import (
    BertiniInvolution,
    GeiserInvolution,
    cubic_system,
    make_point_config,
    sample_points,
    sextic_system,
)
from planecremona.projmaps import ProjPoint


# -- configurations ------------------------------------------------------------

def test_seven_config_valid(seven_config):
    assert seven_config.report["system_dimension"] == 3
    assert seven_config.report["no_three_collinear"]


def test_eight_config_valid(eight_config):
    assert eight_config.report["system_dimension"] == 4


def test_repeated_point_rejected():
    pts = [ProjPoint(*c) for c in [(1, 0, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1),
                                   (1, 2, 3), (2, 5, 1), (3, 1, 2)]]
    with pytest.raises(ValidationError, match="distinct"):
        make_point_config(pts, "geiser")
    with pytest.raises(ValidationError, match="repeated"):
        cubic_system(pts)


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
    assert len(geiser.net) == 3
    for g in geiser.net:
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


def test_sextic_dimension_is_28_minus_24(eight_config):
    basis = sextic_system(eight_config.points)
    assert len(basis) == 4


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
    g1, g2, g3 = geiser.net
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
    rec = geiser.record()
    assert rec.kind == "geiser" and rec.degree == 8
    assert rec.fixed_curve == geiser.fixed_sextic
    assert rec.invariant.genus == 3


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
    ((2, 3, 7), (1448290438405248941237, 185311338342648815223, 4852942739693099701447)),
    ((1, 1, -1), (1376379066758062703, 20419534064383177, -245312457443649648)),
    ((2, -7, -8), (114437928335219047, 834881344701087013, 7288862911117502)),
    ((2, 1, 1), (37314885576558720, 46987676563025260, 22025786007041921)),
    ((1, 8, 5), (121024432697005843990, 888325077001544659875, 592341898524981918063)),
    ((2, -9, 3), (43933904784584531196966, 143707245796493030706147, 60511024778937682438519)),
]


def test_bertini_recorded_images(bertini):
    for x, y in BERTINI_IMAGES:
        assert bertini.eval(ProjPoint(*x)) == ProjPoint(*y)


def test_bertini_general_configuration():
    # the reference set has 6 points on a conic; with (4:-1:3) as the 8th
    # point the set is in general position
    from planecremona.configs import EIGHT_POINTS

    pts = [ProjPoint(*p) for p in EIGHT_POINTS[:7] + ((4, -1, 3),)]
    inv = BertiniInvolution(make_point_config(pts, "bertini"))
    for x in sample_points(303, 4, avoid=pts):
        y = inv.eval(x)
        assert y != x and inv.eval(y) == x
    # the ninth base point of the cubic pencil is the origin of the group
    # law on every member, so it is fixed
    p9 = inv.ninth_point
    assert p9 not in pts and inv.eval(p9) == p9


def test_bertini_indeterminate_at_base_points(bertini, eight_config):
    with pytest.raises(IndeterminacyError):
        bertini.eval(eight_config.points[3])


def test_bertini_record(bertini):
    rec = bertini.record()
    assert rec.kind == "bertini" and rec.degree == 17
    assert rec.fixed_curve is None
    assert rec.invariant.genus == 4


def test_fixed_component_rejected(eight_config):
    # through a point of a conic holding 6 of the points, every member of
    # the pencil (net) contains that conic, and the evaluators refuse it
    onc = [(t * t, t, 1) for t in (0, 1, -1, 2, -2, 3)]
    seven = make_point_config([ProjPoint(*p) for p in onc + [(1, 2, 5)]], "geiser")
    with pytest.raises(ValidationError, match="fixed component"):
        GeiserInvolution(seven).eval(ProjPoint(9, -3, 1))
    # the reference 8 points have 6 on the conic 4xy - xz - 3yz
    assert [str(c) for c in eight_config.special_curves] == ["4*x*y - x*z - 3*y*z"]
    with pytest.raises(ValidationError, match="fixed component"):
        BertiniInvolution(eight_config).eval(ProjPoint(7, 14, 8))


def test_net_restriction_dimensions(geiser, bertini):
    x = ProjPoint(2, 3, 7)
    assert len(geiser._pencil_through(x)) == 2
    assert len(bertini._net_through(x)) == 3
    # at a base point the restriction degenerates
    with pytest.raises(ValidationError):
        geiser._pencil_through(geiser.config.points[0])
    with pytest.raises(ValidationError):
        bertini._net_through(bertini.config.points[0])


def test_involutions_commute_with_relabeling(seven_config):
    # the Geiser image depends on the point set, not its ordering
    pts = list(seven_config.points)
    reordered = make_point_config(pts[::-1], "geiser")
    a = GeiserInvolution(seven_config, seed=0)
    b = GeiserInvolution(reordered, seed=0)
    x = ProjPoint(2, 3, 7)
    assert a.eval(x) == b.eval(x)
