"""Fixed loci of involutions and the conjugacy-class invariant.

The divisorial fixed locus of a plane involution is read off the minors of
the map against (x, y, z). The conjugacy invariant of an involution is its
normalized fixed curve: empty, a hyperelliptic curve of genus g >= 1 (an
elliptic curve counts as hyperelliptic by convention), the non-hyperelliptic
genus-3 curve of a Geiser involution, or the genus-4 curve on a singular
quadric of a Bertini involution. Hyperellipticity is assigned by
construction, never computed from equations.

A de Jonquieres involution preserves the pencil of lines through its
center p, and its center and base points are read off that pencil: p is the
one point collinear with every x and sigma(x), and the other base points lie
over the rational roots of the discriminant of the fixed curve in the frame
where p = (0:1:0).
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import ValidationError
from .exactpoly import (
    HPoly, bform_gcd, bform_rational_roots, hpoly_gcd_many, hpoly_to_bform, kernel_basis, values_at,
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


def pencil_center(sigma: RationalMap):
    """The center of an involution that preserves every line through a
    point p, or None.

    p, x and sigma(x) are collinear for all x exactly when p is in the kernel
    of the matrix whose columns are the coefficient vectors of
    x cross sigma(x). That kernel is 1-dimensional for such a map: two
    centers would force sigma(x) = x.
    """
    m1, m2, m3 = identity_minors(sigma.components)
    cross = (m3, -m2, m1)
    monomials = sorted(set().union(*(c.terms for c in cross)))
    basis = kernel_basis([[c.terms.get(e, 0) for c in cross] for e in monomials], 3)
    return ProjPoint(*basis[0]) if len(basis) == 1 else None


def rational_base_points(sigma: RationalMap):
    """Rational base points of an involution with a center p (pencil_center).

    In a frame where p = (0:1:0) each component is y h_i + k_i with h_i, k_i
    binary forms in x, z. A base point other than p lies above a root of
    every h_i k_j - h_j k_i, at y = -k_i / h_i for an h_i not vanishing
    there; for a de Jonquieres map the gcd of these minors is the
    discriminant B^2 - 4 A C_d. Returns p and the points above the rational
    roots, each kept only where every component vanishes.
    """
    p = pencil_center(sigma)
    if p is None:
        raise ValidationError("no center", "the map preserves no pencil of lines")
    _m, minv = frame_moving_to_center(p)
    hk = []
    for c in sigma.components:
        by_y = c.apply_matrix(minv).coeffs_by_var(1)
        if len(by_y) > 2:
            raise ValidationError("not de Jonquieres", "a component is not linear in y at the center")
        h = by_y[1] if len(by_y) == 2 else HPoly.zero(c.degree - 1)
        hk.append((hpoly_to_bform(h, 0, 2), hpoly_to_bform(by_y[0], 0, 2)))
    g = None
    for (hi, ki), (hj, kj) in combinations(hk, 2):
        minor = hi * kj - hj * ki
        if not minor.is_zero():
            g = minor if g is None else bform_gcd(g, minor)
    candidates = [p]
    for s0, t0 in bform_rational_roots(g) if g is not None else []:
        for h, k in hk:
            hv = h.eval(s0, t0)
            if hv != 0:
                candidates.append(ProjPoint(s0 * hv, -k.eval(s0, t0), t0 * hv).apply_matrix(minv))
                break
    found = {q for q in candidates if not any(values_at(sigma.components, q.coords))}
    return sorted(found, key=lambda q: q.coords)


def classify_involution(arg) -> Classification:
    """Classify a constructed record (authoritative) or a raw map (heuristic).

    A raw map must pass the exact involution test (projmaps.is_involution)
    at any degree. Recognition for raw maps: a map of degree d that
    preserves every line through its center (pencil_center), with a
    degree-d fixed locus of multiplicity d-2 at the center and the center a
    base point of multiplicity d-1, is DJ(d); degree 8 with a sextic fixed
    locus is a Geiser candidate; degree 17 a Bertini candidate.
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
    """The center of sigma (pencil_center), if the fixed curve has
    multiplicity d-2 there and it is a base point of multiplicity d-1."""
    p = pencil_center(sigma)
    if p is None:
        return None
    d = sigma.degree
    _m, minv = frame_moving_to_center(p)
    if _multiplicity_at(fixed, minv) != d - 2:
        return None
    if min(_multiplicity_at(c, minv) for c in sigma.components) != d - 1:
        return None
    return p
