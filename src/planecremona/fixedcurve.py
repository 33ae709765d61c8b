"""Fixed loci of involutions and the conjugacy-class invariant.

The divisorial fixed locus of a plane involution is read off the minors of
the map against (x, y, z). The conjugacy invariant of an involution is its
normalized fixed curve (Bayle-Beauville): empty, a hyperelliptic curve of
genus g >= 1 (an elliptic curve counts as hyperelliptic by convention), the
non-hyperelliptic genus-3 curve of a Geiser involution, or the genus-4 curve
on a singular quadric of a Bertini involution. The last two, with their
labels, come from the table involutions.DEL_PEZZO, whose genus is that of a
curve of degree 3(m + 1) with n ordinary points of multiplicity m + 1.

For a map with a center p (projmaps.pencil_form) the invariant is computed
from equations: the map acts by a Moebius involution on each line through
p, and the normalized fixed curve is the double cover of that pencil
branched at the odd-multiplicity roots of the branch form beta. Its base
points besides p lie over the roots of beta = -4 det M.

invariant_of is the one source of a construction's invariant and label. A
de Jonquieres construction (involutions.DJData) is read from its pencil
form, as a raw map with a center is, and its genus must be d - 2. Geiser and
Bertini involutions (involutions.DelPezzoInvolution) carry their fixed
curves, which invariant_of checks against the table involutions.DEL_PEZZO
(exactpoly.first_below_multiplicity): degree 3(m + 1) and multiplicity m + 1 at
each of the n points, the Jacobian sextic double at the 7 and the nonic
triple at the 8. Raw maps without a center are labelled DJ(2), the class of
the linear involutions, when they fix no curve, and otherwise from their
degree and the degree of their fixed locus, the map and fixed-curve degrees
of that table.
"""

from typing import NamedTuple

from .errors import ValidationError
from .exactpoly import Evaluator, HPoly, bform_rational_roots, first_below_multiplicity, hpoly_gcd_many
from .involutions import DEL_PEZZO, DelPezzoInvolution, DJData
from .projmaps import ProjPoint, RationalMap, identity_minors, involutive, is_identity, pencil_form

KIND_EMPTY = "empty"
KIND_HYPERELLIPTIC = "hyperelliptic"


class FixedCurveInvariant(NamedTuple):
    """Conjugacy-class invariant: kind tag, genus, source label."""

    kind: str
    genus: int | None
    source: str

    def as_dict(self):
        return {"kind": self.kind, "genus": self.genus, "source": self.source}


def fixed_locus(sigma: RationalMap) -> HPoly:
    """Divisorial fixed locus: gcd of the minors of ((x,y,z), components).

    A constant result means the involution fixes no curve. Isolated fixed
    points are not extracted. The identity is rejected (all minors vanish).
    """
    minors = identity_minors(sigma.components)
    if all(m.is_zero() for m in minors):
        raise ValidationError("identity map", "the identity fixes every point")
    return hpoly_gcd_many(minors)


def invariant_for_kind(kind: str, d: int | None = None) -> FixedCurveInvariant:
    """Invariant attached to a construction type, before cross-checks:
    DJ(d) of degree d, or the label, curve kind and genus of a kind of
    DEL_PEZZO."""
    if kind == "dj":
        if d is None or d < 2:
            raise ValidationError("bad degree", "de Jonquieres needs a degree >= 2")
        if d == 2:
            return FixedCurveInvariant(KIND_EMPTY, None, "DJ(2)")
        return FixedCurveInvariant(KIND_HYPERELLIPTIC, d - 2, f"DJ({d})")
    if kind in DEL_PEZZO:
        dp = DEL_PEZZO[kind]
        return FixedCurveInvariant(dp.curve, dp.genus, dp.label)
    raise ValidationError("unknown kind", f"no invariant for kind {kind!r}")


def _dj_invariant(form) -> FixedCurveInvariant:
    """DJ(g + 2) for the genus g of the fixed curve of a pencil form
    (PencilForm.genus), with g <= 0 the class of the linear involutions,
    DJ(2)."""
    return invariant_for_kind("dj", max(form.genus(), 0) + 2)


def _unknown(arg) -> ValidationError:
    return ValidationError("unknown kind", f"not a construction or a map: {type(arg).__name__}")


def invariant_of(construction) -> FixedCurveInvariant:
    """Invariant of a construction, computed from what it was built from.

    DJData of degree d: from its pencil form (_dj_invariant), which must
    give genus d - 2. DelPezzoInvolution: its fixed curve must have degree
    3(m + 1) and multiplicity m + 1 at each point of its configuration, m of
    its family: a sextic double at the 7 points, resp. a nonic triple at
    the 8. A mismatch means the construction is corrupted.
    """
    if isinstance(construction, DJData):
        inv = _dj_invariant(construction.pencil)
        if inv != invariant_for_kind("dj", construction.d):
            raise ValidationError("corrupted record",
                                  f"{inv.source} data in a record of degree {construction.d}")
        return inv
    if not isinstance(construction, DelPezzoInvolution):
        raise _unknown(construction)
    inv = invariant_for_kind(construction.kind)
    degree, mult = construction.family.fixed_curve
    curve = construction.fixed_curve
    if curve.degree != degree:
        raise ValidationError("corrupted record", f"{inv.source} fixed curve must have degree {degree}")
    pts = construction.config.points
    low = first_below_multiplicity([curve], [p.coords for p in pts], mult)
    if low is not None:
        raise ValidationError("corrupted record", f"fixed curve not of multiplicity {mult} at {pts[low]}")
    return inv


class Classification(NamedTuple):
    """An involution's invariant and a note on how it was computed; the
    label is the invariant's source."""

    invariant: FixedCurveInvariant
    note: str


def rational_base_points(arg):
    """Rational base points of an involution with a center p, given as a raw
    map or as a de Jonquieres construction (DJData), whose pencil form is
    reused; every other map is refused.

    In the frame of the pencil form the components are (x u, c y + e, z u)
    with u = a y + b and c = -b, as projmaps.involutive requires; away from
    p they vanish together where a y + b and -b y + e do, at y = -b/a (or
    e/b where a = 0) above a root of det M = -b^2 - a e, that is of the
    branch form beta = -4 det M, which the pencil form keeps. Returns p and
    the points above the rational roots of beta, each kept only where every
    component vanishes (one Evaluator of the map).
    """
    if isinstance(arg, DJData):
        sigma, form = arg.map, arg.pencil
    elif isinstance(arg, RationalMap):
        sigma, form = arg, pencil_form(arg)
    else:
        raise _unknown(arg)
    if form is None or not involutive(sigma, form):
        raise ValidationError("not de Jonquieres", "the map is not an involution with a center")
    candidates = [form.center]
    pencil_values = Evaluator((form.a, form.b, form.e))
    for s0, t0 in bform_rational_roots(form.beta):
        av, bv, ev = pencil_values((s0, 0, t0))
        hv, yv = (av, -bv) if av else (bv, ev)
        if hv:
            candidates.append(ProjPoint(s0 * hv, yv, t0 * hv).apply_matrix(form.frame[1]))
    evaluate = Evaluator(sigma.components)
    found = {q for q in candidates if not any(evaluate(q.coords))}
    return sorted(found, key=lambda q: q.coords)


def _pencil_note(form) -> str:
    return (f"preserves the lines through {form.center}; the fixed curve is a double cover "
            f"of that pencil branched at {form.branch_count} points")


def classify_involution(arg) -> Classification:
    """Classify a construction (invariant_of) or a raw map.

    A construction's note names what was computed: the pencil form of a
    DJData, or the fixed curve check of invariant_of.
    A raw map other than the identity must pass projmaps.involutive on its
    pencil form (projmaps.pencil_form). One with a center is classified from
    that form: its normalized fixed curve has genus g = (odd-multiplicity
    roots of beta)/2 - 1, so it is DJ(g + 2), with g <= 0 the class of the
    linear involutions, DJ(2). Of the others, one that fixes no curve (a
    constant fixed_locus), like (yz : xz : xy), is conjugate to a linear
    involution (Bayle-Beauville): DJ(2). Degree 8 with a sextic fixed locus
    is a Geiser candidate and degree 17 with a nonic fixed locus a Bertini
    candidate (the map and fixed-curve degrees of DEL_PEZZO), labels
    assigned from those two degrees.
    """
    if not isinstance(arg, RationalMap):
        inv = invariant_of(arg)         # refuses anything but a construction
        if isinstance(arg, DJData):
            return Classification(inv, _pencil_note(arg.pencil))
        degree, mult = arg.family.fixed_curve
        return Classification(inv, (
            f"the fixed curve has degree {degree} and multiplicity at least {mult} "
            f"at each of the {len(arg.config.points)} base points"))
    sigma = arg
    if is_identity(sigma):
        raise ValidationError("not involutive", "the identity is not a nontrivial involution")
    form = pencil_form(sigma)
    if not involutive(sigma, form):
        raise ValidationError("not involutive", "the map composed with itself is not the identity")
    if form is not None:
        return Classification(_dj_invariant(form), _pencil_note(form))
    d = sigma.degree
    fixed = fixed_locus(sigma)
    if fixed.degree == 0:
        return Classification(invariant_for_kind("dj", 2), (
            "preserves no pencil of lines and fixes no curve (the fixed-point minors "
            "have a constant gcd), so it is conjugate to a linear involution"))
    for kind, dp in DEL_PEZZO.items():
        if (d, fixed.degree) == (dp.degree, dp.fixed_curve[0]):
            inv = invariant_for_kind(kind)
            return Classification(inv, (
                f"raw-map heuristic: degree {d} with a fixed curve of degree {fixed.degree}; "
                "rational fixed components not certified"))
    raise ValidationError(
        "unrecognized", "unrecognized involution: supply construction metadata"
    )
