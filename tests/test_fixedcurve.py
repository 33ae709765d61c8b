import io
import json
import re
from contextlib import redirect_stdout

import pytest

from planecremona.cli import parse_map, run
from planecremona.errors import ValidationError
from planecremona.exactpoly import HPoly, adjugate3, forms_with_multiplicities, multiplicity_values
from planecremona.fixedcurve import (
    FixedCurveInvariant,
    classify_involution,
    fixed_locus,
    invariant_for_kind,
    invariant_of,
    rational_base_points,
)
from planecremona.involutions import DJData, validate_dj
from planecremona.projmaps import ProjPoint, RationalMap, is_involution, pencil_form
from tests.streams import (
    SplitMix64, apply_matrix, conjugate, frame_conjugate, linear_map, unimodular_matrix,
)

X, Y, Z = (HPoly.variable(i) for i in range(3))


# -- fixed locus -----------------------------------------------------------------

def test_fixed_locus_of_standard_quadratic():
    sigma = RationalMap(X * Y, X * Z, Y * Z)
    assert fixed_locus(sigma) == (X * Z - Y * Y).canonical()


def test_fixed_locus_identity_rejected():
    with pytest.raises(ValidationError, match="identity"):
        fixed_locus(RationalMap.identity())


def test_fixed_locus_of_validated_dj_is_the_curve(dj_records):
    for d in (3, 5):
        rec = dj_records[d]
        assert fixed_locus(rec.map) == rec.fixed_curve


def test_fixed_locus_constant_when_no_curve_is_fixed():
    sigma = linear_map(((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    locus = fixed_locus(sigma)
    # the swap fixes the line x = y and the isolated point; divisorial part
    assert locus.degree == 1


# -- invariants -------------------------------------------------------------------

def test_invariant_of_records(dj_records, geiser, bertini):
    assert invariant_of(dj_records[2]) == FixedCurveInvariant("empty", None, "DJ(2)")
    assert invariant_of(dj_records[5]).genus == 3
    assert invariant_of(dj_records[5]).kind == "hyperelliptic"
    assert invariant_of(geiser).kind == "non-hyperelliptic genus 3"
    b = invariant_of(bertini)
    assert b.genus == 4 and "singular quadric" in b.kind


def test_dj_record_with_data_of_another_degree_is_corrupted(dj_records):
    # the invariant is read from the pencil form: genus 3 there contradicts
    # the degree 4 of the fixed curve
    quartic = dj_records[4]
    record = DJData(dj_records[5].pencil, quartic.fixed_curve, quartic.map)
    with pytest.raises(ValidationError, match=r"DJ\(5\) data in a record of degree 4") as info:
        invariant_of(record)
    assert info.value.reason == "corrupted record"
    with pytest.raises(ValidationError, match=r"DJ\(5\) data in a record of degree 4"):
        classify_involution(record)


def with_fixed_curve(inv, curve):
    """An involution on inv's configuration whose fixed curve is curve."""
    class Corrupted(type(inv)):
        fixed_curve = curve

    return Corrupted(inv.config)


def test_geiser_record_with_a_sextic_simple_at_a_base_point_is_corrupted(geiser):
    # Q^2 L^2, with Q the conic through p2..p6 and L the line p2p7, is
    # double at p2..p7 and nonzero at p1, so adding it keeps the sextic
    # double at every base point but the first
    pts = geiser.config.points
    coords = [p.coords for p in pts]
    (conic,) = forms_with_multiplicities(coords[1:6], 2, [1] * 5, 1, "conics")
    (line,) = forms_with_multiplicities([coords[1], coords[6]], 1, [1, 1], 1, "lines")
    curve = geiser.fixed_sextic + conic * conic * line * line
    assert not any(v for (v,) in multiplicity_values([curve], coords[1:], [2] * 6))
    record = with_fixed_curve(geiser, curve)
    with pytest.raises(ValidationError, match="not of multiplicity 2 at " + re.escape(str(pts[0]))) as info:
        invariant_of(record)
    assert info.value.reason == "corrupted record"
    with pytest.raises(ValidationError, match="not of multiplicity 2 at " + re.escape(str(pts[0]))):
        classify_involution(record)


def test_bertini_record_with_a_sextic_for_its_curve_is_corrupted(bertini):
    record = with_fixed_curve(bertini, bertini.space[0])
    with pytest.raises(ValidationError, match="Bertini fixed curve must have degree 9") as info:
        invariant_of(record)
    assert info.value.reason == "corrupted record"


def test_a_point_configuration_is_not_a_construction(seven_config):
    # a configuration names its kind but carries no fixed curve; only the
    # involution built on it is read
    for call in (invariant_of, classify_involution):
        with pytest.raises(ValidationError, match="not a construction or a map: PointConfig") as info:
            call(seven_config)
        assert info.value.reason == "unknown kind"


def test_elliptic_case_counts_as_hyperelliptic(dj_records):
    inv = invariant_of(dj_records[3])
    assert inv.kind == "hyperelliptic" and inv.genus == 1


def test_invariant_injective_on_labels(dj_records, geiser, bertini):
    records = [dj_records[d] for d in (2, 3, 4, 5, 6)] + [geiser, bertini]
    keys = [(inv.kind, inv.genus) for inv in map(invariant_of, records)]
    assert len(set(keys)) == len(keys)


def test_invariant_constant_under_linear_conjugation(dj_records):
    # conjugating the construction data by plane automorphisms must not
    # change the invariant, and the conjugated involution is the one built
    # from the transformed curve and center
    stream = SplitMix64(303)
    for d in (3, 4):
        rec = dj_records[d]
        for _ in range(2):
            m = unimodular_matrix(stream)
            minv = adjugate3(m)             # the inverse up to the sign det m
            phi = linear_map(m)
            phi_inv = linear_map(minv)
            curve2 = apply_matrix(rec.fixed_curve, minv)
            center2 = rec.pencil.center.apply_matrix(m)
            rec2 = validate_dj(curve2, center2)
            inv, inv2 = invariant_of(rec), invariant_of(rec2)
            assert (inv2.kind, inv2.genus) == (inv.kind, inv.genus)
            assert conjugate(rec.map, phi, phi_inv) == rec2.map


# -- classification ---------------------------------------------------------------

def test_classify_records(dj_records, geiser, bertini):
    for d in range(2, 7):
        assert classify_involution(dj_records[d]).invariant.source == f"DJ({d})"
        # a construction is classified from its pencil form, as its map is
        assert classify_involution(dj_records[d]) == classify_involution(dj_records[d].map)
    assert classify_involution(geiser).invariant.source == "Geiser"
    assert classify_involution(bertini).invariant.source == "Bertini"


def test_classify_raw_quadratic():
    result = classify_involution(RationalMap(X * Y, X * Z, Y * Z))
    assert result.invariant.source == "DJ(2)"
    assert result.invariant == invariant_for_kind("dj", 2)


def test_the_standard_quadratic_involution_and_its_conjugates_are_dj2():
    # (1/x : 1/y : 1/z) preserves no pencil of lines and fixes no curve, so
    # it is in the class of the linear involutions; so are its conjugates
    standard = RationalMap(Y * Z, X * Z, X * Y)
    m = unimodular_matrix(SplitMix64(311))
    conj = RationalMap(*frame_conjugate(standard.components, m, adjugate3(m)))
    for sigma in (standard, conj):
        assert pencil_form(sigma) is None and fixed_locus(sigma).degree == 0
        result = classify_involution(sigma)
        assert result.invariant == invariant_for_kind("dj", 2)
        assert "fixes no curve" in result.note


def test_classify_raw_dj3(dj_records):
    result = classify_involution(dj_records[3].map)
    assert result.invariant.source == "DJ(3)"


def test_classify_raw_geiser_interpolated(geiser):
    result = classify_involution(geiser.interpolated_map)
    assert result.invariant.source == "Geiser"


def test_a_raw_degree_17_map_is_bertini_only_with_a_fixed_nonic(monkeypatch):
    # the grid test and the fixed locus of a real degree-17 map take about a
    # minute, so both are stubbed: only the labelling rule is under test
    from planecremona import fixedcurve, projmaps

    sigma = RationalMap(X ** 17, Y ** 17, Z ** 17)
    assert pencil_form(sigma) is None
    monkeypatch.setattr(projmaps, "involution_on_grid", lambda m: True)
    monkeypatch.setattr(fixedcurve, "fixed_locus", lambda m: X ** 6 + Y ** 6)
    with pytest.raises(ValidationError, match="unrecognized"):
        classify_involution(sigma)
    monkeypatch.setattr(fixedcurve, "fixed_locus", lambda m: X ** 9 + Y ** 9)
    result = classify_involution(sigma)
    assert result.invariant.source == "Bertini" and result.invariant == invariant_for_kind("bertini")
    assert "fixed curve of degree 9" in result.note


def test_classify_linear_involution():
    result = classify_involution(linear_map(((1, 0, 0), (0, -1, 0), (0, 0, 1))))
    assert result.invariant.source == "DJ(2)"


def test_classify_rejects_non_involution():
    cyc = linear_map(((0, 1, 0), (0, 0, 1), (1, 0, 0)))
    with pytest.raises(ValidationError, match="not involutive|identity"):
        classify_involution(cyc)
    with pytest.raises(ValidationError):
        classify_involution(RationalMap.identity())


def test_a_linear_map_with_a_center_that_is_no_involution_is_refused():
    # diag(1, 2, 1) preserves the lines through (0:1:0), but squares to diag(1, 4, 1)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(["classify", "--map", "x;2*y;z", "--json"])
    assert code == 2 and json.loads(buf.getvalue()) == {
        "reason": "not involutive", "error": "the map composed with itself is not the identity"}


# -- base points ------------------------------------------------------------------

@pytest.mark.parametrize("text", ["x;2*y;z", "y;z;x"])
def test_base_points_of_a_map_that_is_no_involution_with_a_center_are_refused(text):
    # diag(1, 2, 1) has a center but is no involution, the 3-cycle has no center
    with pytest.raises(ValidationError) as err:
        rational_base_points(parse_map(text))
    assert err.value.reason == "not de Jonquieres"


# -- labels computed from the pencil normal form ------------------------------------

def _pencil_map(u, v):
    return RationalMap(X * u, v, Z * u)


def test_nodal_fixed_curve_is_elliptic():
    # the map of A y^2 + B y + C_4 at (0:1:0); B^2 - 4 A C_4 has the double
    # root x = 0, so the fixed curve has a node there and its normalization
    # has genus 1: DJ(3), not DJ(4)
    a, b = X * X - Z * Z, X ** 3 + X * Z * Z
    c4 = X ** 4 + X ** 3 * Z + X * X * Z * Z
    sigma = _pencil_map(a * Y * 2 + b, -(b * Y + c4 * 2))
    assert sigma.degree == 4 and is_involution(sigma)
    result = classify_involution(sigma)
    assert result.invariant.source == "DJ(3)"
    assert result.invariant == invariant_for_kind("dj", 3) and result.invariant.genus == 1


def test_map_with_a_rational_fixed_curve_is_dj2():
    # y -> -y + e/b on each line through (0:1:0): beta = 4 b^2 has only
    # double roots, and the fixed curve 2 b y = e is rational
    b, e = X * X + Z * Z, X ** 3 + Z ** 3 * 2
    sigma = _pencil_map(b, -(b * Y) + e)
    assert sigma.degree == 3 and is_involution(sigma)
    assert classify_involution(sigma).invariant.source == "DJ(2)"


def test_pencil_genus_of_dj_maps_and_their_linear_conjugates(dj_records):
    stream = SplitMix64(307)
    for d in range(2, 7):
        sigma = dj_records[d].map
        m = unimodular_matrix(stream)
        conj = RationalMap(*frame_conjugate(sigma.components, m, adjugate3(m)))
        for f in (sigma, conj):
            assert pencil_form(f).genus() == d - 2
            assert classify_involution(f).invariant.source == f"DJ({d})"
