from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from planecremona.cli import parse_poly
from planecremona.errors import ValidationError
from planecremona.exactpoly import (
    HPoly, adjugate3, det3, hpoly_gcd_many, is_squarefree,
    kernel_basis, values_at,
)
from planecremona.fixedcurve import classify_involution, fixed_locus, invariant_of, rational_base_points
from planecremona import involutions
from planecremona.involutions import (
    DJData,
    _polar_map,
    dj_from_conic,
    validate_dj,
)
from planecremona.projmaps import (
    ProjPoint, RationalMap, compose, is_identity, is_involution, pencil_center, pencil_form,
    pencil_form_at,
)
from tests.streams import (
    SplitMix64, apply_matrix, frame_conjugate, image, make_dj_instance, pencil_components,
    unimodular_matrix,
)

X, Y, Z = (HPoly.variable(i) for i in range(3))
CONIC = X * Z - Y * Y


def test_quadratic_dj_is_the_standard_involution():
    rec = dj_from_conic(CONIC, ProjPoint(0, 1, 0))
    assert rec.map == RationalMap(X * Y, X * Z, Y * Z)
    assert rec.d == 2
    assert is_involution(rec.map)
    assert rec.fixed_curve == CONIC.canonical()


def test_quadratic_dj_base_points():
    rec = dj_from_conic(CONIC, ProjPoint(0, 1, 0))
    base = set(rational_base_points(rec.map))
    assert base == {ProjPoint(0, 1, 0), ProjPoint(1, 0, 0), ProjPoint(0, 0, 1)}


def test_center_on_conic_rejected():
    with pytest.raises(ValidationError, match="center"):
        dj_from_conic(CONIC, ProjPoint(1, 1, 1))


def test_singular_conic_rejected():
    with pytest.raises(ValidationError):
        dj_from_conic(X * Z, ProjPoint(0, 1, 0))  # line pair


def _moved(curve, seed):
    """The curve and the center (0:1:0), moved to the frame of
    unimodular_matrix(SplitMix64(seed))."""
    m = unimodular_matrix(SplitMix64(seed))
    adj = adjugate3(m)
    return apply_matrix(curve, m), ProjPoint(adj[0][1], adj[1][1], adj[2][1])


def _assert_refused(curve, reason, message):
    """validate_dj refuses the curve with center (0:1:0), and again with
    both moved to two seeded unimodular frames, with the reason and message."""
    for moved, center in [(curve, ProjPoint(0, 1, 0)), _moved(curve, 5), _moved(curve, 6)]:
        with pytest.raises(ValidationError) as err:
            validate_dj(moved, center)
        assert (err.value.reason, str(err.value)) == (reason, message)


def test_nodal_cubic_rejected():
    nodal = Z * Y * Y - X ** 3 - X * X * Z  # node at (0:0:1)
    _assert_refused(nodal, "extra singularities", "discriminant is not squarefree")


def test_non_ordinary_tangent_cone_rejected():
    # A = x^2: double tangent line at the center
    curve = (X * X) * (Y * Y) + (Z ** 3) * Y + (X * Z) ** 2 + Z ** 4
    _assert_refused(curve, "non-ordinary", "the tangent cone at the center has repeated lines")


def test_line_through_center_rejected():
    # every coefficient divisible by x: the line x = 0 through (0:1:0) is a
    # component; in the second curve B = 0, so the gcd reads A and C_d alone
    for curve in (X * (Y * Y) + (X * Z) * Y + X * Z * Z, X * (Y * Y) + X * Z * Z):
        _assert_refused(curve.canonical(), "line through center",
                        "the curve contains a line through the center")


def test_zero_discriminant_rejected():
    # (y + x)^2: B^2 - 4 A C_d = (2x)^2 - 4 x^2 vanishes
    _assert_refused((Y + X) * (Y + X), "degenerate", "zero discriminant")


def test_multiplicity_mismatch_rejected():
    smooth_cubic = X ** 3 + Y ** 3 + Z ** 3 - (X * Y * Z) * 3  # no singular point
    # the y^3 term puts (0:1:0) off the curve: multiplicity 0, not d - 2 = 1
    _assert_refused(smooth_cubic, "multiplicity mismatch", "multiplicity at the center is 0, expected 1")


def _xz_form(stream, degree):
    return HPoly(degree, {(i, 0, degree - i): c for i in range(degree + 1)
                          if (c := stream.next_int(-4, 4))})


def _monomial(c, exps):
    """The form c x^i y^j z^k, for exps = (i, j, k)."""
    return HPoly(sum(exps), {tuple(exps): c})


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 6), seed=st.integers(0, 2**32),
       s0=st.integers(-3, 3), t0=st.integers(-3, 3))
def test_planted_singular_point_is_refused(d, seed, s0, t0):
    """C = A y^2 + B y + C_d, made singular at a point q != (0:1:0) by
    solving C(q) = grad C(q) = 0 for C_d and the scale of A y^2 + B y, is
    refused with its center in a random integer frame."""
    stream = SplitMix64(seed)
    a, b = _xz_form(stream, d - 2), _xz_form(stream, d - 1)
    av, bv = a.eval((s0, 0, t0)), b.eval((s0, 0, t0))
    assume((s0, t0) != (0, 0) and av != 0)
    q = (2 * av * s0, -bv, 2 * av * t0)   # where 2 A y + B = 0 above (s0 : t0)
    columns = [_monomial(1, (d - i, 0, i)) for i in range(d + 1)] + [a * Y * Y + b * Y]
    rows = [values_at(columns, q)]
    rows += [values_at([f.partial(v) for f in columns], q) for v in range(3)]
    weights = [(w, stream.next_int(-3, 3)) for w in kernel_basis(rows)]
    vec = [sum(c * w[i] for w, c in weights) for i in range(d + 2)]
    assume(vec[-1] != 0 and any(vec[:-1]))
    curve = sum((f * c for f, c in zip(columns, vec) if c), HPoly.zero(d))
    assert not any(values_at([curve.partial(v) for v in range(3)], q))
    m = unimodular_matrix(stream)
    adj = adjugate3(m)
    center = ProjPoint(adj[0][1], adj[1][1], adj[2][1])
    with pytest.raises(ValidationError):
        validate_dj(apply_matrix(curve, m), center)


@pytest.mark.parametrize("d, seed", [(6, 0), (7, 2)])
def test_base_points_and_label_of_maps_with_large_resultants(d, seed):
    # eliminating a variable between the components gave coefficients above
    # 10**12 here, where a divisor-enumeration root search gave up
    rec = validate_dj(*make_dj_instance(d, seed))
    points = rational_base_points(rec.map)
    assert rec.pencil.center in points
    assert all(not any(values_at(rec.map.components, pt.coords)) for pt in points)
    assert classify_involution(rec.map).invariant.source == f"DJ({d})"


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_kernel_center_is_the_construction_center(d, dj_records):
    rec = dj_records[d]
    assert pencil_center(rec.map) == rec.pencil.center


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_seeded_instances_validate_and_square_to_identity(d, dj_records):
    rec = dj_records[d]
    assert rec.d == d
    assert rec.map.degree == d
    # components coprime by construction
    assert hpoly_gcd_many(list(rec.map.components)).degree == 0
    assert is_involution(rec.map)
    assert is_identity(compose(rec.map, rec.map))


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_seeded_instances_fix_their_curve(d, dj_records):
    rec = dj_records[d]
    assert fixed_locus(rec.map) == rec.fixed_curve


def _normal_coefficients(data):
    """A, B, C_d of the curve A y^2 + B y + C_d in the frame of the center,
    read off the curve itself."""
    cd, b, a = apply_matrix(data.fixed_curve, data.pencil.frame[1]).canonical().coeffs_by_var(1)
    return a, b, cd


def _ratio(f: HPoly, g: HPoly):
    """The scalar r with f == g * r, or None when there is none."""
    if f.is_zero() or g.is_zero():
        return None
    e, c = next(iter(g.terms.items()))
    r = Fraction(f.terms.get(e, 0), c)
    return r if r and f == g * r else None


def _is_square(r: Fraction) -> bool:
    return r > 0 and all(isqrt(n) ** 2 == n for n in (r.numerator, r.denominator))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_discriminant_profile(d, dj_records):
    # the pencil form is that of the unnormalised polar map, so its branch
    # form is 4 (B^2 - 4 A C_d) up to the square of that scale
    data = dj_records[d]
    a, b, cd = _normal_coefficients(data)
    delta = b * b - (a * cd) * 4      # B^2 - 4 A C_d
    assert _is_square(_ratio(data.pencil.beta, delta * 4))
    assert delta.degree == 2 * d - 2
    assert is_squarefree(delta)
    assert data.pencil.branch_count == 2 * (d - 2) + 2


@pytest.mark.parametrize("frame_seed", [None, 5, 6])
def test_multiplicity_refusals_name_the_multiplicity(frame_seed):
    # in the frame of (0:1:0): a quintic of y-degree 3, double at the center,
    # and a quartic of y-degree 1, triple there
    quintic = X * X * Y ** 3 + Z ** 3 * Y * Y + X ** 4 * Y + Z ** 5
    quartic = X ** 3 * Y + Z ** 4 + X * Z ** 3
    center = ProjPoint(0, 1, 0)
    if frame_seed is not None:
        (quintic, center), (quartic, _) = _moved(quintic, frame_seed), _moved(quartic, frame_seed)
    for curve, message in ((quintic, "multiplicity at the center is 2, expected 3"),
                           (quartic, "multiplicity at the center exceeds 2")):
        with pytest.raises(ValidationError) as err:
            validate_dj(curve, center)
        assert (err.value.reason, str(err.value)) == ("multiplicity mismatch", message)


def _proportional(forms, others) -> bool:
    """Whether two tuples of forms are one nonzero scalar apart."""
    if len(forms) != len(others):
        return False
    ratios = {_ratio(f, g) for f, g in zip(forms, others) if not (f.is_zero() and g.is_zero())}
    return len(ratios) == 1 and None not in ratios


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 7), seed=st.integers(0, 2**32), moved=st.booleans())
def test_pencil_form_of_the_map_is_the_validation_form(d, seed, moved):
    """The pencil form of the normalised map has the center and frame of the
    form validate_dj read off the polar map, and (u, v) one scalar apart."""
    curve, center = make_dj_instance(d, seed)
    if moved:
        m = unimodular_matrix(SplitMix64(seed))
        curve, center = apply_matrix(curve, adjugate3(m)), center.apply_matrix(m)
    data = validate_dj(curve, center)
    form = pencil_form(data.map)
    assert (form.center, form.frame) == (data.pencil.center, data.pencil.frame)
    assert _proportional(form.u + form.v, data.pencil.u + data.pencil.v)


@pytest.mark.parametrize("d", range(2, 9))
def test_polar_map_equals_the_frame_round_trip(d):
    # reference: the closed form (x (2Ay+B) : -(By+2C_d) : z (2Ay+B)) in the
    # frame of the center, moved back by the frame matrices
    curve, center = make_dj_instance(d, seed=d)
    data = validate_dj(curve, center)
    a, b, cd = _normal_coefficients(data)
    m, minv = data.pencil.frame
    round_trip = frame_conjugate(pencil_components((b, a * 2), (cd * -2, -b)), minv, m)
    assert RationalMap(*_polar_map(data.fixed_curve, center)) == RationalMap(*round_trip)
    assert data.map == RationalMap(*round_trip)


def _three_line_polar_map(curve, p):
    """The polar map x_i D_p C - 2 p_i C by products of forms, as it was
    written before it was built term by term."""
    polar = sum((curve.partial(i) * c for i, c in enumerate(p.coords) if c), HPoly.zero(curve.degree - 1))
    return tuple(polar * HPoly.variable(i) - curve * (2 * c) for i, c in enumerate(p.coords))


def _reference_validate_dj(curve, p):
    """validate_dj's checks, in its order, on the pencil form of the
    three-line polar map, with the map normalised by its gcd."""
    curve = curve.canonical()
    d = curve.degree
    if d < 2 or curve.is_zero():
        raise ValidationError("bad degree", "the curve must have degree >= 2")
    polar = _three_line_polar_map(curve, p)
    pencil = pencil_form_at(polar, p)
    top = len(pencil.v) - 1
    if top > 2 or pencil.a.is_zero():
        found = f"is {d - top}, expected" if top > 2 else "exceeds"
        raise ValidationError("multiplicity mismatch", f"multiplicity at the center {found} {d - 2}")
    if not is_squarefree(pencil.a):
        raise ValidationError("non-ordinary", "the tangent cone at the center has repeated lines")
    if hpoly_gcd_many((pencil.a, pencil.b, pencil.e)).degree > 0:
        raise ValidationError("line through center", "the curve contains a line through the center")
    if pencil.beta.is_zero():
        raise ValidationError("degenerate", "zero discriminant")
    if pencil.branch_count != pencil.beta.degree:
        raise ValidationError("extra singularities", "discriminant is not squarefree")
    return DJData(pencil, curve, RationalMap(*polar))


def _outcome(build, curve, p):
    try:
        return build(curve, p)
    except ValidationError as err:
        return err.reason, str(err)


_COEFF = st.integers(-3, 3)
# the check each kind of curve in the frame of (0:1:0) is built to meet
_KINDS = {"valid": None, "generic": "multiplicity mismatch", "cubic in y": "multiplicity mismatch",
          "no y^2": "multiplicity mismatch", "double line in A": "non-ordinary",
          "line": "line through center", "square": "degenerate", "node": "extra singularities"}


@st.composite
def _binary_forms(draw, degree):
    """A binary form in (x, z) of the given degree, not zero."""
    coeffs = draw(st.lists(_COEFF, min_size=degree + 1, max_size=degree + 1).filter(any))
    return HPoly(degree, {(degree - i, 0, i): c for i, c in enumerate(coeffs)})


@st.composite
def _frame_curve(draw, d, kind):
    """A curve of degree d in the frame where the center is (0:1:0), of the
    given kind of _KINDS: A y^2 + B y + C_d with parts drawn so as to meet
    that kind's check, where its degree allows it. A zero discriminant with
    A squarefree puts A in gcd(A, B, C_d), so past the line check it needs
    a constant A: the square is a conic, a double line off the center."""
    form = lambda k: draw(_binary_forms(k))     # noqa: E731
    y = HPoly.variable(1)
    line = form(1)
    if kind == "generic":
        mons = [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]
        coeffs = draw(st.lists(_COEFF, min_size=len(mons), max_size=len(mons)).filter(any))
        return HPoly(d, dict(zip(mons, coeffs)))
    if kind == "square" and d == 2:              # (a y + c)^2: B^2 = 4 A C_d
        root = form(0) * y + line
        return root * root
    if kind == "line" and d >= 3:
        return (form(d - 3) * y * y + form(d - 2) * y + form(d - 1)) * line
    a = form(d - 2)
    if kind == "double line in A" and d >= 4:
        a = line * line * form(d - 4)
    if kind == "no y^2":
        a = HPoly.zero(d - 2)
    b, cd = form(d - 1), form(d)
    if kind == "node":                            # B = l B', C_d = l^2 C': l^2 divides Delta
        b, cd = line * form(d - 2), line * line * form(d - 2)
    curve = a * y * y + b * y + cd
    if kind == "cubic in y" and d >= 3:
        curve = curve + form(d - 3) * y ** 3
    return curve


@st.composite
def _centers(draw):
    """A center with its pivot at any index, nonzero there, and zero or
    negative entries after it."""
    pivot = draw(st.integers(0, 2))
    coords = [0] * 3
    coords[pivot] = draw(st.integers(-3, 3).filter(bool))
    for i in range(pivot + 1, 3):
        coords[i] = draw(_COEFF)
    return ProjPoint(*coords)


@st.composite
def _moved_instances(draw):
    """(curve, center, kind): a curve of _frame_curve moved by an integer
    frame g whose middle column is a drawn center, so that the curve's
    point (0:1:0) moves to the center."""
    d = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(sorted(_KINDS)))
    curve = draw(_frame_curve(d, kind))
    center = draw(_centers())
    while True:
        cols = [draw(st.lists(_COEFF, min_size=3, max_size=3)), list(center.coords),
                draw(st.lists(_COEFF, min_size=3, max_size=3))]
        g = tuple(tuple(col[i] for col in cols) for i in range(3))
        if det3(g):
            break
    return apply_matrix(curve, adjugate3(g)), center, kind


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_moved_instances())
def test_the_pencil_read_off_one_shear_is_the_pencil_of_the_polar_map(instance):
    """validate_dj's term-by-term polar map, the pencil form it reads off
    that map and its verdict, in the reference's order of checks, are those
    of the three-line polar map."""
    curve, center, _ = instance
    curve = curve.canonical()
    reference = _three_line_polar_map(curve, center)
    assert _polar_map(curve, center) == reference
    assert _outcome(validate_dj, curve, center) == _outcome(_reference_validate_dj, curve, center)


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_each_kind_of_curve_meets_its_check(kind):
    """The kinds of the property above reach every outcome of validate_dj:
    of 60 drawn instances of each kind some are refused by its check, or
    for "valid" some are built."""
    outcomes = set()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 8).flatmap(lambda d: _frame_curve(d, kind)).map(lambda c: c.canonical()))
    def collect(curve):
        outcome = _outcome(validate_dj, curve, ProjPoint(0, 1, 0))
        outcomes.add(None if isinstance(outcome, DJData) else outcome[0])

    collect()
    assert _KINDS[kind] in outcomes


def test_validate_dj_builds_its_polar_map_and_map_once(monkeypatch):
    """A construction computes its polar map once and normalises it once;
    its label, invariant and base points compute neither again."""
    calls = []

    def counted(name, original):
        return lambda *args: calls.append(name) or original(*args)

    curve, center = make_dj_instance(4, seed=0)
    for name in ("_polar_map", "conjugated_map"):
        monkeypatch.setattr(involutions, name, counted(name, getattr(involutions, name)))
    data = validate_dj(curve, center)
    once = ["_polar_map", "conjugated_map"]
    assert calls == once
    assert classify_involution(data).invariant.source == "DJ(4)" and invariant_of(data).genus == 2
    assert rational_base_points(data) and calls == once
    assert validate_dj(data.fixed_curve, data.pencil.center) == data and calls == once * 2


def test_a_validated_polar_map_needs_no_gcd():
    """conjugated_map scales the polar map with no gcd: on validated
    instances it is the map the gcd would give, of degree d."""
    cases = [make_dj_instance(d, seed) for d in range(2, 9) for seed in (0, 1)]
    cases.append((CONIC, ProjPoint(0, 1, 0)))
    cases.append((X * X + Y * Y * 2 - Z * Z * 3 + X * Z, ProjPoint(1, 1, 1)))
    for curve, center in cases:
        data = dj_from_conic(curve, center) if curve.degree == 2 else validate_dj(curve, center)
        polar = _polar_map(data.fixed_curve, center)
        assert involutions.conjugated_map(polar) == RationalMap(*polar) == data.map
        assert data.map.degree == curve.degree


def test_a_valid_curve_takes_no_gcd_and_the_gcd_names_a_refusal(monkeypatch):
    """validate_dj takes gcd(A, B, C_d) only inside a discriminant refusal:
    with the gcd made to raise, every seeded instance of degree 2..8 is
    still built, and with the gcd back the golden curve with the line x = 0
    through its center is refused as "line through center"."""
    def no_gcd(*args):
        raise AssertionError("validate_dj took a gcd on a valid curve")

    cases = [make_dj_instance(d, seed) for d in range(2, 9) for seed in (0, 1, 2)]
    with monkeypatch.context() as patch:
        patch.setattr(involutions, "hpoly_gcd_many", no_gcd)
        for curve, center in cases:
            assert validate_dj(curve, center).d == curve.degree
    golden = parse_poly("x*y^2 + x*z*y + x*z^2")
    with pytest.raises(ValidationError) as err:
        validate_dj(golden, ProjPoint(0, 1, 0))
    assert (err.value.reason, str(err.value)) == (
        "line through center", "the curve contains a line through the center")


def test_a_construction_is_its_pencil_form_fixed_curve_and_map(dj_records):
    assert DJData._fields == ("pencil", "fixed_curve", "map")
    for d, data in dj_records.items():
        assert data.d == data.fixed_curve.degree == data.map.degree == d


def test_normal_form_minors_expose_the_curve():
    # in the normal frame the fixed-point minors are -2xC, 0 and -2zC
    data = validate_dj(CONIC, ProjPoint(0, 1, 0))
    sigma = data.map
    f1, f2, f3 = sigma.components
    m1 = X * f2 - Y * f1
    m3 = Y * f3 - Z * f2
    c = data.fixed_curve
    assert m1 == -(X * c) or m1 == (X * c)
    assert m3 == (Z * c) or m3 == -(Z * c)


def _normal_form_map(data):
    a, b, cd = _normal_coefficients(data)
    u = (a * Y) * 2 + b
    return RationalMap(X * u, -((b * Y) + cd * 2), Z * u)


def test_lines_through_center_are_preserved():
    # in the normal frame the x and z output components share the factor u,
    # so the x:z ratio of any point is preserved by evaluation
    stream = SplitMix64(55)
    for d in (3, 4):
        curve, center = make_dj_instance(d, seed=3)
        data = validate_dj(curve, center)
        norm = _normal_form_map(data)
        checked = 0
        while checked < 12:
            coords = tuple(stream.next_int(-7, 7) for _ in range(3))
            if coords == (0, 0, 0):
                continue
            p = ProjPoint(*coords)
            img = image(norm, p)
            if img is None:
                continue
            assert p.coords[0] * img.coords[2] == p.coords[2] * img.coords[0]
            checked += 1


def test_evaluator_round_trips():
    curve, center = make_dj_instance(4, seed=1)
    rec = validate_dj(curve, center)
    stream = SplitMix64(9)
    done = 0
    while done < 10:
        coords = tuple(stream.next_int(-8, 8) for _ in range(3))
        if coords == (0, 0, 0):
            continue
        p = ProjPoint(*coords)
        img = image(rec.map, p)
        if img is None:
            continue
        back = image(rec.map, img)
        if back is None:
            continue
        assert back == p
        done += 1


def test_make_dj_instance_deterministic():
    a = make_dj_instance(5, seed=2)
    b = make_dj_instance(5, seed=2)
    assert a[0] == b[0] and a[1] == b[1]
    c = make_dj_instance(5, seed=3)
    assert (c[0], c[1]) != (a[0], a[1])


def test_dj_map_against_pointwise_harmonic_conjugation():
    """Independent oracle: on the line over (x0 : z0) through the center the
    fixed curve is a t^2 + b t + c = 0, and the harmonic conjugate t' of
    y0 with respect to its two roots solves the polar equation
    2 a y0 t' + b (y0 + t') + 2 c = 0; t' is infinite, the image is the
    center, when 2 a y0 + b = 0. The closed-form map must agree at every
    sampled point."""
    curve, center = make_dj_instance(3, seed=0)
    data = validate_dj(curve, center)
    sigma = data.map
    m, minv = data.pencil.frame
    forms = _normal_coefficients(data)
    stream = SplitMix64(77)
    done = 0
    while done < 12:
        coords = tuple(stream.next_int(-6, 6) for _ in range(3))
        if coords == (0, 0, 0):
            continue
        p = ProjPoint(*coords)
        img = image(sigma, p)
        if img is None:
            continue
        pn = p.apply_matrix(m)
        qn = img.apply_matrix(m)
        x0, y0, z0 = pn.coords
        if (x0, z0) == (0, 0):
            continue
        a, b, c = (f.eval((x0, 0, z0)) for f in forms)
        if a == 0 or b * b - 4 * a * c == 0:
            continue
        if 2 * a * y0 + b == 0:
            assert qn == ProjPoint(0, 1, 0)
        else:
            x1, y1, z1 = qn.coords
            # the image lies on the same line: (x1 : y1 : z1) = (x0 : t' : z0)
            assert x1 * z0 == z1 * x0
            tp = Fraction(y1 * x0, x1) if x1 else Fraction(y1 * z0, z1)
            assert 2 * a * y0 * tp + b * (y0 + tp) + 2 * c == 0
        done += 1
