"""Projective points and frames, cross-ratio and harmonic conjugation, plane
rational maps with composition, projective identity and involution tests and
conjugation.

A point of the parameter line is a Fraction, or INF for the point at
infinity; internally everything is handled through the projective pair
(u : v), so no chart is privileged.
"""

from fractions import Fraction
from math import gcd as igcd

from .errors import IndeterminacyError, ValidationError
from .exactpoly import HPoly, adjugate3, hpoly_gcd_many, values_at


class _Infinity:
    """The point at infinity of a parameter line (projective (1:0))."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"


INF = _Infinity()


def _as_pair(t):
    """Parameter value -> projective pair (u, v) with t = u/v."""
    if t is INF:
        return (1, 0)
    t = Fraction(t)
    return (t.numerator, t.denominator)


def _from_pair(u, v):
    if v == 0:
        if u == 0:
            raise ValidationError("degenerate", "0:0 is not a parameter value")
        return INF
    return Fraction(u, v)


class ProjPoint:
    """Point of the projective plane, stored in canonical integer form:
    coprime coordinates, first nonzero coordinate positive."""

    __slots__ = ("coords",)

    def __init__(self, a, b, c):
        fa, fb, fc = Fraction(a), Fraction(b), Fraction(c)
        if fa == 0 and fb == 0 and fc == 0:
            raise ValidationError("zero point", "(0:0:0) is not a point")
        den = 1
        for f in (fa, fb, fc):
            den = den * f.denominator // igcd(den, f.denominator)
        ints = [int(f * den) for f in (fa, fb, fc)]
        g = 0
        for v in ints:
            g = igcd(g, abs(v))
        lead = next(v for v in ints if v != 0)
        if lead < 0:
            g = -g
        object.__setattr__(self, "coords", tuple(v // g for v in ints))

    def __setattr__(self, *args):
        raise AttributeError("ProjPoint is immutable")

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __str__(self):
        return "({}:{}:{})".format(*self.coords)

    def __repr__(self):
        return f"ProjPoint{self.coords}"

    def apply_matrix(self, m) -> "ProjPoint":
        a, b, c = self.coords
        return ProjPoint(
            m[0][0] * a + m[0][1] * b + m[0][2] * c,
            m[1][0] * a + m[1][1] * b + m[1][2] * c,
            m[2][0] * a + m[2][1] * b + m[2][2] * c,
        )


def frame_moving_to_center(p: ProjPoint):
    """Deterministic integer frame (M, Minv) with M @ p proportional to
    (0,1,0) and M @ Minv = det * I. Minv has p as its middle column and the
    two standard basis vectors away from p's pivot as the others."""
    pivot = next(i for i, c in enumerate(p.coords) if c != 0)
    others = [i for i in range(3) if i != pivot]
    cols = [None, list(p.coords), None]
    cols[0] = [1 if i == others[0] else 0 for i in range(3)]
    cols[2] = [1 if i == others[1] else 0 for i in range(3)]
    minv = tuple(tuple(cols[j][i] for j in range(3)) for i in range(3))
    m = adjugate3(minv)
    return m, minv


def collinear(p: ProjPoint, q: ProjPoint, r: ProjPoint) -> bool:
    m = (p.coords, q.coords, r.coords)
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    return det == 0


def cross_ratio(a, b, c, d):
    """Cross-ratio (a, b; c, d) of four parameters (Fractions or INF).

    Harmonic quadruples give -1. Requires at least three of the four points
    to be distinct; the result may itself be INF.
    """
    pts = [_as_pair(t) for t in (a, b, c, d)]
    distinct = []
    for u, v in pts:
        if not any(u * v2 - v * u2 == 0 for u2, v2 in distinct):
            distinct.append((u, v))
    if len(distinct) < 3:
        raise ValidationError("degenerate", "cross-ratio needs at least three distinct points")
    (ua, va), (ub, vb), (uc, vc), (ud, vd) = pts

    def det(p, q):
        return p[0] * q[1] - p[1] * q[0]

    num = det((uc, vc), (ua, va)) * det((ud, vd), (ub, vb))
    den = det((uc, vc), (ub, vb)) * det((ud, vd), (ua, va))
    return _from_pair(num, den)


def harmonic_conjugate(quadratic, t):
    """Fourth harmonic point of t with respect to the roots of a*u^2+b*u+c.

    Closed form t' = -(b t + 2 c) / (2 a t + b); together with t it separates
    the root pair harmonically (cross-ratio -1), and applying it twice gives
    t back. Requires a != 0 and a nonzero discriminant.
    """
    a, b, c = (Fraction(v) for v in quadratic)
    if a == 0:
        raise ValidationError("degenerate", "quadratic coefficient a must be nonzero")
    if b * b - 4 * a * c == 0:
        raise ValidationError("degenerate", "double root: harmonic conjugation undefined")
    u, v = _as_pair(t)
    return _from_pair(-(b * u + 2 * c * v), 2 * a * u + b * v)


class RationalMap:
    """Plane rational map given by a coprime triple of equal-degree forms.

    Construction normalizes: the common factor of the three components is
    divided out and the coefficients are scaled to a canonical joint integer
    form, so `degree` is the degree of the map in the usual sense.
    """

    __slots__ = ("components", "degree")

    def __init__(self, f1: HPoly, f2: HPoly, f3: HPoly, _normalized: bool = False):
        comps = (f1, f2, f3)
        if all(f.is_zero() for f in comps):
            raise ValidationError("zero map", "all three components vanish")
        degs = {f.degree for f in comps if not f.is_zero()}
        if len(degs) != 1:
            raise ValidationError("inhomogeneous", "components of different degrees")
        if not _normalized:
            g = hpoly_gcd_many([f for f in comps if not f.is_zero()])
            if g.degree > 0:
                comps = tuple(f.divexact(g) for f in comps)
            comps = _canon_triple(comps)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "degree", next(f.degree for f in comps if not f.is_zero()))

    def __setattr__(self, *args):
        raise AttributeError("RationalMap is immutable")

    @classmethod
    def identity(cls) -> "RationalMap":
        return cls(HPoly.variable(0), HPoly.variable(1), HPoly.variable(2), _normalized=True)

    @classmethod
    def linear(cls, m) -> "RationalMap":
        rows = [HPoly(1, {(1, 0, 0): r[0], (0, 1, 0): r[1], (0, 0, 1): r[2]}) for r in m]
        return cls(*rows)

    def __eq__(self, other):
        if not isinstance(other, RationalMap):
            return NotImplemented
        return self.components == other.components

    def __str__(self):
        return "({} : {} : {})".format(*self.components)

    __repr__ = __str__

    def eval(self, pt: ProjPoint):
        """Image of a point, or None at an indeterminacy (a base point)."""
        vals = values_at(self.components, pt.coords)
        if all(v == 0 for v in vals):
            return None
        return ProjPoint(*vals)

    def eval_strict(self, pt: ProjPoint) -> ProjPoint:
        img = self.eval(pt)
        if img is None:
            raise IndeterminacyError(f"map is indeterminate at {pt}")
        return img


def _canon_triple(comps):
    """Joint canonical scaling of a component triple (one scalar for all)."""
    den = 1
    for f in comps:
        for c in f.terms.values():
            if isinstance(c, Fraction):
                den = den * c.denominator // igcd(den, c.denominator)
    content = 0
    for f in comps:
        for c in f.terms.values():
            content = igcd(content, abs(int(c * den)) if isinstance(c, Fraction) else abs(c * den))
    first = next(f for f in comps if not f.is_zero())
    lead = first.terms[max(first.terms)]
    sign = 1 if lead > 0 else -1
    scale = Fraction(sign * content, den)
    return tuple(
        HPoly(f.degree, {e: _frac_div(c, scale) for e, c in f.terms.items()})
        for f in comps
    )


def _frac_div(c, scale):
    return Fraction(c) / scale


def identity_minors(comps):
    """The three 2x2 minors of ((x, y, z), (f1, f2, f3))."""
    f1, f2, f3 = comps
    x, y, z = (HPoly.variable(i) for i in range(3))
    return (x * f2 - y * f1, x * f3 - z * f1, y * f3 - z * f2)


def is_identity(f: RationalMap) -> bool:
    """Projective identity test: all minors against (x, y, z) vanish."""
    return all(m.is_zero() for m in identity_minors(f.components))


def compose(f: RationalMap, g: RationalMap) -> RationalMap:
    """f after g: substitute g's components into f, then normalize.

    The identity is recognized before the (potentially expensive) gcd
    normalization, through the minor test on the raw substitution.
    """
    raw = tuple(c.substitute(g.components) for c in f.components)
    if all(r.is_zero() for r in raw):
        raise ValidationError("zero map", "composition vanishes identically")
    if all(m.is_zero() for m in identity_minors(raw)):
        return RationalMap.identity()
    return RationalMap(*raw)


def compose_raw(f: RationalMap, g: RationalMap):
    """Substitution without normalization (for degree bookkeeping tests)."""
    return tuple(c.substitute(g.components) for c in f.components)


def is_involution(f: RationalMap) -> bool:
    """Exact test that f composed with itself is the identity.

    The minors of (x, y, z) against the components of f(f) are forms of
    degree D = d^2 + 1, so they vanish identically iff they vanish on the
    unisolvent grid {(i:j:1) : i + j <= D}. They are evaluated there in
    integers, with f(f)(p) = f(f(p)) taken without normalising f(p); the
    first nonzero minor ends the test. A composite that vanishes on the
    whole grid vanishes identically, and is not the identity.
    """
    top = f.degree ** 2 + 1
    composite_seen = False
    for i in range(top + 1):
        for j in range(top + 1 - i):
            a, b, c = values_at(f.components, values_at(f.components, (i, j, 1)))
            if i * b != j * a or i * c != a or j * c != b:
                return False
            composite_seen = composite_seen or bool(a or b or c)
    return composite_seen


def conjugate(sigma: RationalMap, phi: RationalMap, phi_inverse: RationalMap) -> RationalMap:
    """phi o sigma o phi_inverse; phi_inverse must be a two-sided inverse."""
    if not is_identity(compose(phi, phi_inverse)) or not is_identity(compose(phi_inverse, phi)):
        raise ValidationError("bad inverse", "phi_inverse is not a two-sided inverse of phi")
    return compose(phi, compose(sigma, phi_inverse))
