"""Fixed loci of involutions and the conjugacy-class invariant.

The divisorial fixed locus of a plane involution is read off the minors of
the map against (x, y, z). The conjugacy invariant of an involution is its
normalized fixed curve: empty, a hyperelliptic curve of genus g >= 1 (an
elliptic curve counts as hyperelliptic by convention), the non-hyperelliptic
genus-3 curve of a Geiser involution, or the genus-4 curve on a singular
quadric of a Bertini involution. Hyperellipticity is assigned by
construction, never computed from equations.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .exactpoly import (
    BForm, HPoly, bform_gcd, bform_rational_roots, hpoly_gcd_many, hpoly_to_bform, resultant, values_at,
)
from .projmaps import (
    ProjPoint, RationalMap, frame_moving_to_center, identity_minors, is_identity, is_involution,
)

KIND_EMPTY = "empty"
KIND_HYPERELLIPTIC = "hyperelliptic"
KIND_GENUS3 = "non-hyperelliptic genus 3"
KIND_GENUS4 = "non-hyperelliptic genus 4 on a singular quadric"


@dataclass(frozen=True)
class FixedCurveInvariant:
    """Conjugacy-class invariant: kind tag, genus, source label."""

    kind: str
    genus: int | None
    source: str

    def key(self):
        """The part that must separate conjugacy classes."""
        return (self.kind, self.genus)

    def as_dict(self):
        return {"kind": self.kind, "genus": self.genus, "source": self.source}


def plane_genus(d: int, mults) -> int:
    """Genus of the normalization of a plane curve of degree d whose only
    singularities are ordinary points of the given multiplicities."""
    if d < 1:
        raise ValidationError("bad degree", "degree must be >= 1")
    mults = list(mults)
    if any(m < 1 for m in mults):
        raise ValidationError("bad multiplicity", "multiplicities must be >= 1")
    g = (d - 1) * (d - 2) // 2 - sum(m * (m - 1) // 2 for m in mults)
    if g < 0:
        raise ValidationError("inconsistent", f"formula gives negative genus {g}")
    return g


def fixed_locus(sigma: RationalMap) -> HPoly:
    """Divisorial fixed locus: gcd of the minors of ((x,y,z), components).

    A constant result means the involution fixes no curve. Isolated fixed
    points are not extracted. The identity is rejected (all minors vanish).
    """
    minors = [m for m in identity_minors(sigma.components) if not m.is_zero()]
    if not minors:
        raise ValidationError("identity map", "the identity fixes every point")
    return hpoly_gcd_many(minors)


def invariant_for_kind(kind: str, d: int | None = None) -> FixedCurveInvariant:
    """Invariant attached to a construction type, before cross-checks."""
    if kind == "dj":
        if d is None or d < 2:
            raise ValidationError("bad degree", "de Jonquieres needs a degree >= 2")
        if d == 2:
            return FixedCurveInvariant(KIND_EMPTY, None, "DJ(2)")
        return FixedCurveInvariant(KIND_HYPERELLIPTIC, d - 2, f"DJ({d})")
    if kind == "geiser":
        return FixedCurveInvariant(KIND_GENUS3, 3, "Geiser")
    if kind == "bertini":
        return FixedCurveInvariant(KIND_GENUS4, 4, "Bertini")
    raise ValidationError("unknown kind", f"no invariant for kind {kind!r}")


def invariant_of(record) -> FixedCurveInvariant:
    """Invariant of a constructed involution record, with cross-checks.

    The checks read the record's fixed curve: its degree for DJ(d), and for
    Geiser its degree and its double points at the 7 base points; a mismatch
    means the record is corrupted. A Bertini record carries no fixed curve
    to check.
    """
    kind = record.kind
    if kind == "dj":
        d = record.degree
        curve = record.fixed_curve
        if curve is None or curve.degree != d:
            raise ValidationError("corrupted record", "fixed curve degree does not match")
        return invariant_for_kind("dj", d)
    if kind == "geiser":
        curve = record.fixed_curve
        if curve is None or curve.degree != 6:
            raise ValidationError("corrupted record", "Geiser fixed curve must be a sextic")
        pts = record.config.points
        for p in pts:
            for v in range(3):
                if curve.partial(v).eval(p.coords) != 0:
                    raise ValidationError("corrupted record", f"sextic not double at {p}")
        return invariant_for_kind("geiser")
    if kind == "bertini":
        return invariant_for_kind("bertini")
    raise ValidationError("unknown kind", f"cannot derive invariant for {kind!r}")


@dataclass(frozen=True)
class Classification:
    label: str
    invariant: FixedCurveInvariant | None
    note: str


def _multiplicity_at(f: HPoly, substitution) -> int:
    """Multiplicity of a curve at a point, given the substitution matrix that
    rewrites the curve in a frame where the point sits at (0:1:0)."""
    moved = f.apply_matrix(substitution)
    return f.degree - moved.max_exponent(1)


def rational_base_points(sigma: RationalMap, limit: int = 10**12):
    """Rational base points of a map (bounded search, rational points only).

    Eliminates z between pairs of components, takes the gcd of the
    resultants, extracts its rational roots and solves above each; (0:0:1)
    is checked directly. Irrational base points are invisible here.
    """
    f1, f2, f3 = sigma.components
    found = set()
    if not any(values_at(sigma.components, (0, 0, 1))):
        found.add(ProjPoint(0, 0, 1))
    r12 = resultant(f1, f2, 2)
    r13 = resultant(f1, f3, 2)
    r23 = resultant(f2, f3, 2)
    gs = [hpoly_to_bform(r, 0, 1) for r in (r12, r13, r23) if not r.is_zero()]
    if not gs:
        return sorted(found, key=lambda p: p.coords)
    g = gs[0]
    for other in gs[1:]:
        if g.degree == 0:
            break
        g = bform_gcd(g, other)
    if g.degree > 0:
        for (s0, t0), _mult in bform_rational_roots(g, factor_limit=limit):
            specs = [f.specialize(2, (s0, t0)) for f in sigma.components]
            zroots = _common_rational_roots_univ(specs)
            for zv in zroots:
                pt = ProjPoint(s0, t0, zv)
                if not any(values_at(sigma.components, pt.coords)):
                    found.add(pt)
    return sorted(found, key=lambda p: p.coords)


def _common_rational_roots_univ(coeff_lists):
    """Common rational roots of several univariate polynomials (ascending
    coefficient lists, at least one nonzero)."""
    nonzero = [c for c in coeff_lists if any(v != 0 for v in c)]
    if not nonzero:
        return []
    g = None
    for coeffs in nonzero:
        deg = len(coeffs) - 1
        while deg > 0 and coeffs[deg] == 0:
            deg -= 1
        # ascending z-coefficients map to BForm coefficients directly (z = t/s)
        form = BForm(deg, coeffs[: deg + 1])
        g = form if g is None else bform_gcd(g, form)
        if g.degree == 0:
            return []
    out = []
    for (s0, t0), _m in bform_rational_roots(g):
        if s0 != 0:
            out.append(Fraction(t0, s0))
    return out


def classify_involution(arg) -> Classification:
    """Classify a constructed record (authoritative) or a raw map (heuristic).

    A raw map must pass the exact involution test (projmaps.is_involution)
    at any degree. Recognition for raw maps: degree d with a degree-d fixed
    locus carrying a rational point of multiplicity d-2 that is a base point
    of multiplicity d-1 is DJ(d); degree 8 with a sextic fixed locus is a
    Geiser candidate; degree 17 a Bertini candidate.
    """
    if hasattr(arg, "kind") and hasattr(arg, "invariant"):
        record = arg
        inv = record.invariant
        return Classification(inv.source, inv, "construction metadata")
    sigma: RationalMap = arg
    if is_identity(sigma):
        raise ValidationError("not involutive", "the identity is not a nontrivial involution")
    if not is_involution(sigma):
        raise ValidationError("not involutive", "the map composed with itself is not the identity")
    d = sigma.degree
    if d == 1:
        return Classification(
            "DJ(2)", invariant_for_kind("dj", 2),
            "linear involution: birationally equivalent to the quadratic de Jonquieres class",
        )
    fixed = fixed_locus(sigma)
    caveat = "; rational fixed components not certified"
    if fixed.degree == d:
        center = _find_dj_center(sigma, fixed)
        if center is not None:
            inv = invariant_for_kind("dj", d)
            return Classification(f"DJ({d})", inv, "raw-map heuristic" + caveat)
    if d == 8 and fixed.degree == 6:
        return Classification("Geiser", invariant_for_kind("geiser"),
                              "raw-map heuristic: degree 8 with fixed sextic" + caveat)
    if d == 17:
        return Classification("Bertini", invariant_for_kind("bertini"),
                              "raw-map heuristic: degree 17" + caveat)
    raise ValidationError(
        "unrecognized", "unrecognized involution: supply construction metadata"
    )


def _find_dj_center(sigma: RationalMap, fixed: HPoly):
    """Rational candidate center: multiplicity d-2 on the fixed curve and a
    multiplicity-(d-1) base point of the map."""
    d = sigma.degree
    try:
        candidates = rational_base_points(sigma)
    except ValidationError:
        return None
    for p in candidates:
        _m, minv = frame_moving_to_center(p)
        if _multiplicity_at(fixed, minv) != d - 2:
            continue
        comp_mult = min(_multiplicity_at(c, minv) for c in sigma.components)
        if comp_mult == d - 1:
            return p
    return None
