"""Constructors and evaluators for the three involution families.

* de Jonquieres of degree d: harmonic conjugation on the lines through a
  center p with respect to a degree-d curve C having an ordinary (d-2)-fold
  point at p and no other singularity. C(x + t p) is quadratic in t, so the
  map is x -> (D_p C)(x) x - 2 C(x) p, D_p the derivative along p; where
  p = (0:1:0) and C = A y^2 + B y + C_d (A, B, C_d binary in x, z) that is
  ( x(2Ay+B) : -(By+2C_d) : z(2Ay+B) ).
* Geiser and Bertini, the del Pezzo involutions of the table DEL_PEZZO:
  the deck involution of the map given by |-mK| on the blow-up of n general
  points, (n, m) = (7, 1) or (8, 2), a plane map of degree 8 or 17. x goes
  to the other common point of the members of |-mK| through x: the ninth
  base point of the pencil of cubics through the 7 points and x, or the
  residual point of the net of sextics singular at the 8 points through x.

Geiser and Bertini are evaluated by chord-tangent constructions on one
cubic, in integers (Bayle-Beauville, section 2). On a cubic f, third(P, Q)
is the third point of the line PQ (of the tangent when P = Q). By
Cayley-Bacharach the ninth base point of a cubic pencil through p1..p8 is
third(third(a, b), third(c, w)), with a, b, c, w the third points of the
chords p1p2, p3p4, p5p6, p7p8 on a member. Geiser takes p8 = x. Bertini
takes the pencil through its 8 points, whose ninth base point p9 is the
origin of the group law on each member, and sends x to -x on the member
through x: third(x, third(p9, p9)).

Each image is certified exactly before it is returned, by one certificate
on |-mK| for both (DelPezzoInvolution.certifies): the values of |-mK| at x
and at the image are proportional, with one more clause where the image is
x or a base point. A degenerate or uncertified construction gives way to
the next one in a fixed order. The certificate assumes general position: no
3 points collinear, no 6 on a conic, and for 8 points no cubic through all
of them singular at one, which make_point_config checks. Then no curve lies
in the base locus of the members through x, which has exactly one point
besides the configuration and x.

Geiser reads the values of |-K|, the net, off its three cubics. Bertini
reads the values of |-2K| off its cubic factors: c1, c2 spanning the pencil
through the 8 points and the nodal cubics C_0, C_7 (sextic_system). One
evaluation of 10 monomials gives the four cubics' values, their products
c1^2, c1 c2, c2^2, C_0 C_7 follow, and the integer change of basis
(D T, D) that the configuration keeps turns them into exactly the integers
that the four sextics give. A BertiniInvolution certifies the change of
basis coefficient for coefficient when it is built.

An optional closed form of the degree-8 Geiser map is built from the
pull-backs of the sides of the triangle p1p2p3 (the octics C_a C_b Q_ab,
C_a the member of the net singular at p_a) and one evaluated sample. It is
certified exactly from its homaloidal type (8; 3^7) and one projective
frame (DelPezzoInvolution.certify_map): octics with triple points at the 7
points are sections of sigma* H on the blow-up, a space of dimension 3, so
the fit is M o sigma for a 3x3 matrix M, and an M that fixes the four
points of a frame is a scalar.
All pseudo-random choices come from the package's seeded SplitMix64 streams.

validate_dj builds a de Jonquieres construction once, from one polar map:
a DJData of the pencil form its checks read, the fixed curve and that map
normalised. A DelPezzoInvolution keeps its configuration and fixed curve.
fixedcurve.invariant_of computes the invariant and label of either from
what it keeps, and this module does not import fixedcurve.
"""

from functools import cache, cached_property
from itertools import chain, combinations
from math import gcd as igcd, lcm
from operator import mul
from typing import NamedTuple

from .errors import ExtractionError, IndeterminacyError, ValidationError
from .exactpoly import (
    Evaluator,
    HPoly,
    adjugate3,
    bform_gcd,
    det3,
    first_below_multiplicity,
    forms_with_multiplicities,
    is_squarefree,
    kernel_basis,
    matrix_rank,
    monomials,
    multiplicity_conditions,
    multiplicity_values,
    partial_rows,
    primitive,
    span_basis,
    values_at,
)
from .projmaps import (
    PencilForm, ProjPoint, RationalMap, collinear, frame_moving_to_center, pencil_form_at,
)
from .rng import SplitMix64


# ---------------------------------------------------------------------------
# de Jonquieres data and validation
# ---------------------------------------------------------------------------

class DJData(NamedTuple):
    """A validated de Jonquieres construction (validate_dj): the pencil form
    of its polar map, with u = 2 A y + B and v = -B y - 2 C_d up to a nonzero
    scalar, where the fixed curve is A y^2 + B y + C_d in the frame of the
    center (0:1:0); the fixed curve, of degree d; and the map."""

    pencil: PencilForm
    fixed_curve: HPoly
    map: RationalMap

    d = property(lambda self: self.fixed_curve.degree)


def _polar_map(curve: HPoly, p: ProjPoint):
    """Components D_p C x_i - 2 C p_i, not normalised, of harmonic
    conjugation on the lines through p with respect to the curve C."""
    polar = sum((curve.partial(i) * c for i, c in enumerate(p.coords) if c),
                HPoly.zero(curve.degree - 1))
    return tuple(polar * HPoly.variable(i) - curve * (2 * c) for i, c in enumerate(p.coords))


def validate_dj(curve: HPoly, p: ProjPoint) -> DJData:
    """The de Jonquieres involution preserving the lines through p and
    fixing the curve pointwise, built from one polar map: the construction,
    or a refusal of the (curve, center) pair.

    Every check reads the pencil form of the polar map: with C = sum C_k y^k
    in the frame of p, u = sum k C_k y^(k-1) and v = sum (k - 2) C_k y^k up
    to a scalar. Checks, in order: degree >= 2; multiplicity at p exactly
    d-2 (v of y-degree <= 2 and A != 0); ordinarity (A squarefree); no line
    of the curve through p (gcd(A,B,Cd) constant); discriminant nonzero and
    squarefree, that is with as many branch points as its degree
    (PencilForm.branch_count). Together these make p the only singular
    point: a point q != p lies on a line through p, where the curve is
    A w^2 - Delta/(4A) with w = y + B/(2A) if A != 0 there, singular only
    over a double root of Delta; if A = 0 there, either dC/dy = B != 0 or
    no point of the curve but p lies on that line. The map is the same
    polar map, normalised (conjugated_map).
    """
    curve = curve.canonical()
    d = curve.degree
    if d < 2 or curve.is_zero():
        raise ValidationError("bad degree", "the curve must have degree >= 2")
    polar = _polar_map(curve, p)
    pencil = pencil_form_at(polar, p)
    top = len(pencil.v) - 1
    a = pencil.a                        # 2 A
    if top > 2 or a.is_zero():
        found = f"is {d - top}, expected" if top > 2 else "exceeds"
        raise ValidationError("multiplicity mismatch", f"multiplicity at the center {found} {d - 2}")

    if not is_squarefree(a):
        raise ValidationError(
            "non-ordinary", "the tangent cone at the center has repeated lines"
        )

    g = a
    for q in (pencil.b, pencil.e):      # B and -2 C_d
        if g.degree == 0:
            break
        if not q.is_zero():
            g = bform_gcd(g, q)
    if g.degree > 0:
        raise ValidationError(
            "line through center", "the curve contains a line through the center"
        )

    delta = pencil.beta                 # 4 (B^2 - 4 A C_d), up to a square
    if delta.is_zero():
        raise ValidationError("degenerate", "zero discriminant")
    if pencil.branch_count != delta.degree:
        raise ValidationError(
            "extra singularities", "discriminant is not squarefree"
        )
    return DJData(pencil, curve, conjugated_map(polar, d))


def conjugated_map(polar, d: int) -> RationalMap:
    """The map of a validated de Jonquieres instance of degree d: its polar
    map (_polar_map), normalised."""
    sigma = RationalMap(*polar)
    if sigma.degree != d:
        raise ValidationError("internal", "constructed map has the wrong degree")
    return sigma


def dj_from_conic(q: HPoly, p: ProjPoint) -> DJData:
    """Degree-2 specialization: harmonic conjugation with respect to a smooth
    conic, from a center off the conic."""
    q = q.canonical()
    if q.degree != 2:
        raise ValidationError("bad degree", "expected a conic")
    if q.eval(p.coords) == 0:
        raise ValidationError("center on conic", "the center must not lie on the conic")
    return validate_dj(q, p)


# ---------------------------------------------------------------------------
# point configurations
# ---------------------------------------------------------------------------

class DelPezzoType(NamedTuple):
    """|-mK| on the blow-up of n points, the forms of degree 3m with
    multiplicity m at the points, the degree of its deck involution, the
    family's label and the kind of its normalized fixed curve."""

    n: int
    m: int
    degree: int
    label: str
    curve: str

    @property
    def fixed_curve(self):
        """Degree of the fixed curve and its multiplicity at the points."""
        return 3 * (self.m + 1), self.m + 1

    @property
    def map_multiplicity(self) -> int:
        """Multiplicity of the involution's components at each point: the
        map acts on the blow-up by H -> degree H - 3m sum E_i (DEL_PEZZO),
        so its homaloidal type is (degree; (3m)^n), (8; 3^7) or (17; 6^8)."""
        return 3 * self.m

    @property
    def genus(self) -> int:
        """Genus of the fixed curve: a curve of degree D whose only
        singularities are n ordinary points of multiplicity m + 1, as in
        general position, has genus (D - 1)(D - 2)/2 - n m(m + 1)/2."""
        d, mult = self.fixed_curve
        return (d - 1) * (d - 2) // 2 - self.n * mult * (mult - 1) // 2


# Dolgachev, Classical Algebraic Geometry, ch. 8: on the blow-up S the map
# acts by H -> degree H - 3m sum E_i, the anti-reflection in K_S
DEL_PEZZO = {
    "geiser": DelPezzoType(7, 1, 8, "Geiser", "non-hyperelliptic genus 3"),
    "bertini": DelPezzoType(8, 2, 17, "Bertini", "non-hyperelliptic genus 4 on a singular quadric"),
}


class PointConfig(NamedTuple):
    """A configuration of a kind of DEL_PEZZO (make_point_config), with the
    bases solved once from its points: system, of |-mK| (the net of cubics
    through the 7 points, or the sextics singular at the 8), and cubics, of
    the cubics through the points (the net again, or the pencil c1, c2
    through the 8). For 8 points also the nodal cubics (C_0, C_7) and the
    change of basis (D T, D) of sextic_system, with D system = (D T)
    (c1^2, c1 c2, c2^2, C_0 C_7): |-2K| is evaluated through these four
    cubics (BertiniInvolution). Both are empty for 7 points. All are
    functions of the points, so two configurations are equal exactly when
    their points and kinds are."""

    points: tuple
    kind: str            # a key of DEL_PEZZO
    system: tuple
    cubics: tuple
    nodal: tuple
    change: tuple


def make_point_config(points, kind: str) -> PointConfig:
    """Validate the configuration of a kind of DEL_PEZZO: 7 points (Geiser)
    or 8 points (Bertini).

    The points must be in general position: pairwise distinct, no 3
    collinear, no 6 on a conic, and for 8 points no cubic through all of
    them singular at one. Then the blow-up is a del Pezzo surface of degree
    2 (resp. 1), no curve lies in the base locus of the members of |-mK|
    through any other point, and |-mK| has the expected dimension (3
    cubics, resp. 4 sextics). The first failing triple, six or point, in
    the order of combinations, is refused.

    Each condition is read from one kernel, exactly:

    * Six points lie on a conic exactly when the 6x6 minor R_S of the n x 6
      matrix R of conic conditions (one row per point) vanishes. If R has
      rank < 6, a conic passes through all n points and every minor
      vanishes; the relations among its rows, lambda R = 0, then number more
      than n - 6. Otherwise they span a space of dimension n - 6, and for a
      basis L of it (n - 6 rows), det R_S = c det L_T, T the complement of
      S and c != 0 the same for every S (Jacobi's complementary minor
      identity: complete R to an invertible A = [R X]; the last n - 6 rows
      of A^-1 annihilate R, so they are L up to an invertible change of
      basis, and det R_S = +-det A det (A^-1)_T). So the six points lie on
      a conic exactly when the (n - 6)-square minor L_T is singular: one
      entry for 7 points, a 2x2 determinant for 8.
    * The cubics through the points (cubic_system) are a net for 7 points
      and a pencil for 8: n points impose independent conditions on cubics
      unless 5 of them are collinear or 8 lie on a conic (Eisenbud-Green-
      Harris, Bull. AMS 33, 1996), which the checks above exclude.
    * A cubic through the 8 points singular at p_i is a member s c1 + t c2
      of the pencil they span with s grad c1(p_i) + t grad c2(p_i) = 0, so
      it exists exactly when the two gradients are parallel: their cross
      product vanishes.

    |-mK| is then the net itself for 7 points, and for 8 points the four
    sextics c1^2, c1 c2, c2^2 and C_0 C_7 of sextic_system, which uses that
    no cubic through the 8 points is singular at p_0, reduced to the
    kernel's basis, with the nodal pair and the change of basis.
    """
    if kind not in DEL_PEZZO:
        raise ValidationError("unknown kind", f"no point configuration for kind {kind!r}")
    dp = DEL_PEZZO[kind]
    pts = tuple(points)
    n = len(pts)
    if n != dp.n:
        raise ValidationError("bad count", f"{kind} needs {dp.n} points, got {n}")
    if len(set(pts)) != n:
        raise ValidationError("degenerate configuration", "points are not pairwise distinct")
    for t in combinations(range(n), 3):
        if collinear(*(pts[i] for i in t)):
            raise ValidationError("degenerate configuration", "points {}, {}, {} are collinear".format(*t))
    coords = [p.coords for p in pts]
    relations = kernel_basis(list(zip(*multiplicity_conditions(coords, 2, [1] * n))))
    for six in combinations(range(n), 6):
        rest = [i for i in range(n) if i not in six]
        if len(relations) > n - 6 or matrix_rank([[r[i] for i in rest] for r in relations]) < n - 6:
            raise ValidationError("degenerate configuration",
                                  "points {}, {}, {}, {}, {}, {} lie on a conic".format(*six))
    system = cubics = cubic_system(pts)
    nodal = change = ()
    if dp.m == 2:
        grads = multiplicity_values(cubics, coords, [2] * n)     # 3 rows per point
        for i in range(n):
            if not any(_cross(*zip(*grads[3 * i:3 * i + 3]))):
                raise ValidationError("degenerate configuration",
                                      f"a cubic through the points is singular at point {i}")
        system, nodal, change = sextic_system(pts, cubics)
    return PointConfig(pts, kind, tuple(system), tuple(cubics), nodal, change)


def cubic_system(points) -> list:
    """Deterministic basis of the cubics through the points: a net for 7
    points, a pencil for 8; refused unless it has 10 - n members."""
    n = len(points)
    return forms_with_multiplicities([p.coords for p in points], 3, [1] * n, 10 - n,
                                     "cubics through the points")


def sextic_system(points, cubics):
    """Deterministic basis of the sextics singular at the 8 points, |-2K|,
    from the pencil c1, c2 of cubics through them: the basis that
    forms_with_multiplicities solves from the 24 conditions on 28
    coefficients, built from four products instead. Returns the basis, the
    nodal pair (C_0, C_7) and the change of basis (D T, D) from the
    products to the basis (_change_of_basis).

    On the blow-up S of 8 points in general position (make_point_config),
    h0(-2K) = 4 by Riemann-Roch with K^2 = 1, and c1^2, c1 c2, c2^2 are three
    independent members. E = 3H - 2E_0 - E_1 - ... - E_6 is a (-1)-class,
    and the Bertini involution, -1 on the orthogonal of K, maps it to
    -2K - E = 3H - E_1 - ... - E_6 - 2E_7. Each class holds one curve: C_0,
    the cubic through p_1..p_6 singular at p_0, and C_7, through p_1..p_6
    singular at p_7. Their product is singular at all 8 points and is not in
    the span of the squares: every member of that span factors over the
    algebraic closure into two members of the pencil, C_0 is irreducible (a
    line component would hold 3 of the points, a conic component 6), so C_0
    would be a member of the pencil, a cubic through the 8 points singular
    at p_0, which make_point_config has refused. Four members of rank < 4
    are refused all the same.

    span_basis reduces the four to the normal form of kernel_basis, so the
    basis is the one the 24 x 28 kernel gives, coefficient for coefficient,
    and each vector is primitive in the monomial order: a canonical sextic.
    """
    coords = [p.coords for p in points]
    (c0,) = forms_with_multiplicities(coords[:7], 3, [2] + [1] * 6, 1,
                                      "cubics through points 1-6 singular at point 0")
    (c7,) = forms_with_multiplicities(coords[1:], 3, [1] * 6 + [2], 1,
                                      "cubics through points 1-6 singular at point 7")
    products = _sextic_products(*cubics, c0, c7)
    basis = span_basis(products)
    if len(basis) != 4:
        raise ValidationError("degenerate configuration",
                              f"sextics singular along the points form a system of dimension {len(basis)}, expected 4")
    monos = monomials(6)
    system = [HPoly._make(6, {e: c for e, c in zip(monos, v) if c}) for v in basis]
    return system, (c0, c7), _change_of_basis(products, basis)


@cache
def _cubic_products() -> tuple:
    """Triples (i, j, k): monomial i times monomial j of monomials(3) is
    monomial k of monomials(6)."""
    sextics = {e: k for k, e in enumerate(monomials(6))}
    cubics = monomials(3)
    return tuple((i, j, sextics[a + u, b + v, c + w])
                 for i, (a, b, c) in enumerate(cubics) for j, (u, v, w) in enumerate(cubics))


def _sextic_products(c1, c2, c0, c7) -> list:
    """Coefficient rows over monomials(6) of c1^2, c1 c2, c2^2 and C_0 C_7,
    from the cubics' coefficients over monomials(3) (_cubic_products)."""
    a, b, p, q = ([f.terms.get(e, 0) for e in monomials(3)] for f in (c1, c2, c0, c7))
    rows = [[0] * 28 for _ in range(4)]
    s11, s12, s22, s07 = rows
    for i, j, k in _cubic_products():
        s11[k] += a[i] * a[j]
        s12[k] += a[i] * b[j]
        s22[k] += b[i] * b[j]
        s07[k] += p[i] * q[j]
    return rows


def _change_of_basis(products, basis):
    """The integer change of basis (D T, D), D > 0, with D basis = (D T)
    products, for two bases of one space, coefficient rows, where each row
    of `basis` is alone nonzero at some column (its pivot, span_basis).

    On the pivot columns J, basis is diagonal, so a vector (t, w) with
    t products_J = w basis_J is fixed by w: the kernel of the 4 x 8 matrix
    [products_J^T | -basis_J^T] has its free columns at w, and its vector
    for w_i gives row i of T times the entry w_i. D is the lcm of those
    entries. The equation holds on every column because the rows of
    products span the space of basis."""
    n, pivot = len(basis), {}
    for j, column in enumerate(zip(*basis)):
        rows = [i for i, c in enumerate(column) if c]
        if len(rows) == 1:
            pivot.setdefault(rows[0], j)
    pivots = [pivot[i] for i in range(n)]
    kern = kernel_basis([[p[j] for p in products] + [-v[j] for v in basis] for j in pivots])
    d = lcm(*(vec[n + i] for i, vec in enumerate(kern)))
    return tuple(tuple(t * (d // vec[n + i]) for t in vec[:n]) for i, vec in enumerate(kern)), d


# the sides p1p2, p1p3, p2p3 of the triangle of the first three points
_SIDES = ((0, 1), (0, 2), (1, 2))


def octic_triple_system(config: PointConfig) -> list:
    """Basis of the octics with points of multiplicity >= 3 at the 7 points
    of a Geiser configuration: C_a C_b Q_ab for the sides ab of _SIDES,
    where C_a is the cubic through the points singular at p_a and Q_ab the
    conic through the five others. These are the pull-backs of the sides by
    the Geiser involution: on the blow-up, sigma* H = 8H - 3 sum E_i is the
    sum of sigma* E_a = C_a, sigma* E_b = C_b and sigma* (H - E_a - E_b) =
    Q_ab. C_a is the member of the net config.cubics whose gradient vanishes
    at p_a (_singular_member); Q_ab is the kernel of 5 conditions on conics.
    """
    coords = [p.coords for p in config.points]
    n = len(coords)
    cubics = [_singular_member(config.cubics, coords[a], a) for a in range(3)]
    octics = []
    for a, b in _SIDES:
        others = [p for i, p in enumerate(coords) if i not in (a, b)]
        (conic,) = forms_with_multiplicities(others, 2, [1] * (n - 2), 1, f"conics missing points {a}, {b}")
        octics.append(cubics[a] * cubics[b] * conic)
    return octics


def _singular_member(net, p, a: int) -> HPoly:
    """The member lambda . net of the net of cubics through the points that
    is singular at their point p = p_a, canonical: lambda is orthogonal to
    the three rows of the 3x3 matrix of the net's gradients at p. Euler's
    relation puts the gradients at p in the plane orthogonal to p, so the
    rank is at most 2; lambda, the cross product of the first two
    independent rows, is kept only if every row is orthogonal to it, the
    certificate of rank exactly 2 and of a unique member. Refused with
    "degenerate configuration" otherwise."""
    grads = multiplicity_values(net, [p], [2])
    first = next((r for r in grads if any(r)), None)
    lam = next((k for r in grads if any(k := _cross(first, r))), None) if first else None
    if lam is None or any(_dot(r, lam) for r in grads):
        raise ValidationError("degenerate configuration",
                              f"the net's gradients at point {a} do not have rank 2")
    return sum((c * k for c, k in zip(net, lam) if k), HPoly.zero(3)).canonical()


# ---------------------------------------------------------------------------
# chord-tangent arithmetic on plane cubics, in integers
# ---------------------------------------------------------------------------

# pencil members s f + t h, tried in turn: 13 distinct ratios, one more than
# the 12 singular members a cubic pencil with a smooth member can have
_MEMBERS = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (2, -1),
            (1, 3), (3, 1), (1, -3), (3, -1), (2, 3))


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


class _Cubic:
    """Integer plane cubic held as the rows of its three partial derivatives
    over the quadric monomials x^2, xy, xz, y^2, yz, z^2 (partial_rows), so
    that a gradient costs a few products."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = rows

    @classmethod
    def from_hpoly(cls, f: HPoly) -> "_Cubic":
        return cls(partial_rows(f, 1))

    @classmethod
    def combination(cls, coeffs, cubics) -> "_Cubic":
        rows = [[0] * 6 for _ in range(3)]
        for c, cb in zip(coeffs, cubics):
            if c:
                for row, src in zip(rows, cb.rows):
                    for i in range(6):
                        row[i] += c * src[i]
        return cls(rows)

    def grad(self, p):
        a, b, c = p
        q = (a * a, a * b, a * c, b * b, b * c, c * c)
        return tuple(r[0] * q[0] + r[1] * q[1] + r[2] * q[2] + r[3] * q[3] + r[4] * q[4] + r[5] * q[5]
                     for r in self.rows)

    def value(self, p) -> int:
        return _dot(self.grad(p), p) // 3          # Euler: grad f(p).p = 3 f(p)

    def third(self, p, q):
        """Third intersection of the line pq with the cubic, for p and q on
        it: R = (grad f(q).p) p - (grad f(p).q) q. For p = q, with D = grad
        f(p) x p on the tangent, R = f(D) p - (grad f(D).p) D. Returns a
        primitive integer triple, or None when p or q is singular or the
        line is a component of the cubic."""
        gp = self.grad(p)
        if not any(gp):
            return None
        if any(_cross(p, q)):
            gq = self.grad(q)
            if not any(gq):
                return None
            s, t, d = _dot(gq, p), _dot(gp, q), q
        else:
            d = _cross(gp, p)
            gd = self.grad(d)
            s, t = _dot(gd, d), 3 * _dot(gd, p)     # 3 f(D), 3 grad f(D).p
        r = (s * p[0] - t * d[0], s * p[1] - t * d[1], s * p[2] - t * d[2])
        g = igcd(*r)
        if g == 0:
            return None
        return (r[0] // g, r[1] // g, r[2] // g)


def _cayley_bacharach(cubic: _Cubic, base, x):
    """Ninth base point of a cubic pencil with base points base[0..6] and x,
    on one member through them: with a, b, c the third points of the chords
    p1p2, p3p4, p5p6 and w that of p7x, it is third(third(a, b), third(c, w)).
    (On a smooth member p1 + ... + p7 + x + q ~ 3H, and p + p' + third(p, p')
    ~ H for the hyperplane class H, so q ~ a + b + c + w - H.) Returns None,
    passed along the chain, when a step degenerates."""
    third = cubic.third
    a = third(base[0], base[1])
    b = a and third(base[2], base[3])
    c = b and third(base[4], base[5])
    w = c and third(base[6], x)
    e = w and third(a, b)
    g = e and third(c, w)
    return g and third(e, g)


def _in_span(u, v) -> bool:
    """Whether the integer vector v is a multiple of u, zero included."""
    n = len(u)
    return (any(u) or not any(v)) and all(u[i] * v[j] == u[j] * v[i]
                                          for i in range(n) for j in range(i + 1, n))


def _ninth_base_point(cubics, base, x: ProjPoint, cx, accept):
    """The ninth base point of the pencil of cubics through x in the span
    of `cubics`, whose values at x are cx, and whose other base points are
    the seven points `base` and x: the first candidate q, an integer triple,
    that accept(q) takes.

    On each member s f + t h in the order of _MEMBERS, with f, h the members
    of _perp_basis(cx), the seven rotations of the base points are tried in
    turn. On a smooth member no step degenerates, so one of the 13 members
    gives the point. Returns it and the number of constructions tried."""
    fc, hc = _perp_basis(cx)
    f, h = _Cubic.combination(fc, cubics), None
    pts = tuple(p.coords for p in base)
    attempts = 0
    for s, t in _MEMBERS:
        if t and h is None:
            h = _Cubic.combination(hc, cubics)       # most points are found on f
        member = f if not t else h if not s else _Cubic.combination((s, t), (f, h))
        for k in range(7):
            attempts += 1
            q = _cayley_bacharach(member, pts[k:] + pts[:k], x.coords)
            if q is not None and accept(q):
                return ProjPoint(*q), attempts
    raise ExtractionError(f"no certified ninth base point after {attempts} constructions")


def _perp_basis(values):
    """Integer basis of the vectors orthogonal to an integer vector: v_k e_i
    - v_i e_k for i != k, with k its first nonzero entry; the standard basis
    for the zero vector."""
    n = len(values)
    k = next((i for i, v in enumerate(values) if v), None)
    if k is None:
        return [[int(i == j) for j in range(n)] for i in range(n)]
    out = []
    for i in range(n):
        if i != k:
            vec = [0] * len(values)
            vec[i], vec[k] = values[k], -values[i]
            out.append(vec)
    return out


def _combinations(matrix, forms) -> list:
    """The forms sum_k matrix[i][k] forms[k], one per row of the matrix, for
    forms of one degree: each coefficient is one dot product of the row with
    the forms' coefficients at a monomial, with no intermediate form."""
    degree = forms[0].degree
    monos = monomials(degree)
    columns = [[f.terms.get(e, 0) for f in forms] for e in monos]
    out = []
    for row in matrix:
        terms = {}
        for e, col in zip(monos, columns):
            v = sum(map(mul, row, col))
            if v:
                terms[e] = v
        out.append(HPoly._make(degree, terms))
    return out


def _jacobian(f: HPoly, g: HPoly, h: HPoly) -> HPoly:
    """Determinant of the 3x3 matrix of partials of f, g, h, canonical."""
    return det3([[q.partial(v) for v in range(3)] for q in (f, g, h)]).canonical()


class EvalTrace(NamedTuple):
    """What one Geiser or Bertini evaluation did: the number of chord-tangent
    constructions tried until one was certified."""

    attempts: int


def _hyperplane_values(x: ProjPoint, vals):
    """vals, the values of the space at x, unless all vanish: then the
    members through x are not a hyperplane, and x is refused."""
    if not any(vals):
        raise ValidationError("system dimension wrong",
                              f"the members through {x} do not form a hyperplane of the system")
    return vals


class DelPezzoInvolution:
    """The deck involution of the map given by |-mK| on the blow-up of the
    points of a configuration in general position, for the kind of
    DEL_PEZZO that a subclass names. A subclass gives the chord-tangent
    construction (eval_detail) and the fixed curve."""

    kind = ""

    def __init__(self, config: PointConfig):
        self.family = DEL_PEZZO[self.kind]
        if config.kind != self.kind:
            raise ValidationError("bad config", f"expected a {self.kind} configuration of {self.family.n} points")
        self.config = config

    @property
    def space(self):
        """Basis of |-mK| (PointConfig.system)."""
        return self.config.system

    @cached_property
    def _cubics(self):
        """The cubics through the points (PointConfig.cubics), as _Cubic:
        the net of a Geiser configuration, the pencil of a Bertini one."""
        return [_Cubic.from_hpoly(c) for c in self.config.cubics]

    @cached_property
    def _at(self):
        """The space's one Evaluator, for its values at an integer triple."""
        return Evaluator(self.space)

    def _values(self, x: ProjPoint):
        """Values of the space at x, orthogonal to the members through x."""
        return _hyperplane_values(x, self._at(x.coords))

    def certifies(self, x, vx, y, vy) -> bool:
        """Certificate that y is the image of x, for integer triples x off
        the base points and y != 0 with values vx and vy of the space;
        homogeneous in y. If y is a base point, x lies on the member with
        multiplicity m + 1 at y, the curve contracted to y. Otherwise vy is
        a nonzero multiple of vx, and if also y = x, the gradients of the
        space at x have rank < 3. In general position the members through x
        meet in one more point, counted with multiplicity: the image.

        For Geiser, with f and h spanning the pencil through x, both clauses
        say that grad f and grad h are parallel at y (a double base point).
        At a base point: some member of the pencil is singular there. At x:
        a member g not through x has x . grad g(x) = 3 g(x) != 0 (Euler)
        while x . grad f(x) = x . grad h(x) = 0, so the net's gradients at x
        have rank one more than grad f(x) and grad h(x)."""
        if not any(vy):
            y = ProjPoint(*y)
            return y in self.config.points and matrix_rank(
                [vx] + multiplicity_values(self.space, [y.coords], [self.family.m + 1])) < len(self.space)
        if not _in_span(vx, vy):
            return False
        if any(_cross(x, y)):
            return True
        return matrix_rank(multiplicity_values(self.space, [x], [2])) < 3

    def eval(self, x: ProjPoint) -> ProjPoint:
        return self.eval_detail(x)[0]

    def certify_map(self, sigma: RationalMap, pairs):
        """Refuse sigma, with reason "interpolation failed" and a message
        naming the failed step, unless it is the involution. pairs yields
        points x and their images y from the evaluator; the first four whose
        images form a projective frame (_frame) are read.

        1. sigma has the family's degree d.
        2. Its components have multiplicity >= 3m at every point
           (map_multiplicity, by multiplicity_values). Then they lie in
           H^0(d H - 3m sum E_i) = H^0(sigma* H) on the blow-up, of
           dimension h^0(H) = 3, which the components of the involution
           span: sigma = M o (the involution) for a 3x3 matrix M.
        3. At each frame point x, sigma(x) is a nonzero multiple of y. So M
           has the four y as eigenvectors with nonzero eigenvalues; the
           fourth is a combination of the other three with no zero
           coefficient, which forces the eigenvalues equal: M is a scalar.
        """
        family, pts = self.family, self.config.points
        if sigma.degree != family.degree:
            raise ValidationError("interpolation failed", f"fitted map does not have degree {family.degree}")
        mult = family.map_multiplicity
        low = first_below_multiplicity(sigma.components, [p.coords for p in pts], mult)
        if low is not None:
            raise ValidationError("interpolation failed",
                                  f"fitted map has multiplicity < {mult} at the base point {pts[low]}")
        comps = Evaluator(sigma.components)
        for x, y in self._frame(pairs):
            v = comps(x.coords)
            if not any(v) or any(_cross(v, y.coords)):
                image = ProjPoint(*v) if any(v) else None
                raise ValidationError("interpolation failed",
                                      f"fitted map sends the frame point {x} to {image}, not to {y}")

    def _frame(self, pairs):
        """The first four pairs (x, y) whose images y form a projective
        frame: no y is a base point, and no three are collinear (det3)."""
        base, chosen = set(self.config.points), []
        for x, y in pairs:
            v = y.coords
            if (y in base or not all(any(_cross(u, v)) for u in chosen)
                    or not all(det3((u, w, v)) for u, w in combinations(chosen, 2))):
                continue
            yield x, y
            chosen.append(v)
            if len(chosen) == 4:
                return

    def _images(self, points):
        """Pairs (x, eval(x)) of the points whose evaluation succeeds."""
        for x in points:
            try:
                yield x, self.eval(x)
            except (ValidationError, ExtractionError):
                continue


class GeiserInvolution(DelPezzoInvolution):
    """Geiser involution attached to 7 points in general position."""

    kind = "geiser"

    @cached_property
    def fixed_curve(self) -> HPoly:
        """Jacobian of the net, a sextic."""
        j = _jacobian(*self.space)
        if j.is_zero():
            raise ValidationError("degenerate configuration", "Jacobian sextic vanishes")
        return j

    fixed_sextic = property(lambda self: self.fixed_curve)

    def eval_detail(self, x: ProjPoint):
        """Ninth base point of the pencil of cubics through the 7 points and
        x, the first candidate of _ninth_base_point that passes certifies,
        and the EvalTrace of its construction."""
        if x in self.config.points:
            raise IndeterminacyError(f"{x} is a base point of the involution")
        vx = self._values(x)
        image, attempts = _ninth_base_point(self._cubics, self.config.points, x, vx,
                                            lambda q: self.certifies(x.coords, vx, q, self._at(q)))
        return image, EvalTrace(attempts)

    @cached_property
    def interpolated_map(self) -> RationalMap:
        """Closed-form degree-8 map, built from one evaluated sample.

        The side l_k of the triangle p1p2p3 pulls back to l_k(sigma) =
        lambda_k P_k, with P_k the octics of octic_triple_system. So, with L
        the matrix of the l_k, sigma = adj(L) diag(lambda) P. At the first
        seeded x where no P_k vanishes, with y = sigma(x) from the evaluator,
        lambda_k is proportional to l_k(y) times the product of the other
        P_j(x). The result is certified exactly by certify_map, from its
        type (8; 3^7) and a frame of images: the sample, then seeded points
        evaluated until their images complete the frame. The fit is unique
        up to scale and normalised, so the points drawn do not change the
        map.
        """
        pts = self.config.points
        octics = octic_triple_system(self.config)
        lines = [_cross(pts[a].coords, pts[b].coords) for a, b in _SIDES]
        stream = SplitMix64(0x6A09E667F3BCC908)
        for x in self._candidates(stream, 1):
            px = values_at(octics, x.coords)
            if not all(px):
                continue
            try:
                y = self.eval(x)
            except (ValidationError, ExtractionError):
                continue
            break
        ly = [_dot(line, y.coords) for line in lines]
        if not all(ly):
            raise ValidationError("interpolation failed",
                                  f"the image {y} of {x} lies on a side of the triangle")
        scales = primitive([ly[k] * px[k - 1] * px[k - 2] for k in range(3)])
        sigma = RationalMap(*_combinations([[a * s for a, s in zip(row, scales)] for row in adjugate3(lines)],
                                           octics))
        self.certify_map(sigma, chain([(x, y)], self._images(self._candidates(stream, 3))))
        return sigma

    def _candidates(self, stream: SplitMix64, count: int):
        """Seeded points with coordinates in [-9, 9] other than the base
        points, from at most 200 * count draws."""
        base = {p.coords for p in self.config.points}
        for _ in range(200 * count):
            coords = tuple(stream.next_int(-9, 9) for _ in range(3))
            if coords != (0, 0, 0):
                x = ProjPoint(*coords)
                if x.coords not in base:
                    yield x
        raise ValidationError("sampling failed", "could not draw enough sample points")


class BertiniInvolution(DelPezzoInvolution):
    """Bertini involution attached to 8 points in general position."""

    kind = "bertini"

    def __init__(self, config: PointConfig):
        """Refuse the configuration, with reason "degenerate configuration",
        unless its change of basis (D T, D) gives its sextics from their
        cubic factors: D times each sextic of the space is (D T) (c1^2,
        c1 c2, c2^2, C_0 C_7), coefficient for coefficient. Then keep one
        Evaluator of the factors c1, c2, C_0, C_7 (PointConfig.cubics and
        nodal), over 10 monomials."""
        super().__init__(config)
        rows, d = config.change
        columns = list(zip(*_sextic_products(*config.cubics, *config.nodal)))
        system = [[s.terms.get(e, 0) for e in monomials(6)] for s in config.system]
        if not d or len(rows) != len(system) or any(
                [sum(map(mul, row, col)) for col in columns] != [d * c for c in sextic]
                for row, sextic in zip(rows, system)):
            raise ValidationError("degenerate configuration",
                                  "the sextics are not the change of basis of the products of the cubics")
        self._factors = Evaluator(config.cubics + config.nodal)

    @cached_property
    def ninth_point(self) -> ProjPoint:
        """Ninth base point p9 of the cubic pencil through the 8 points: the
        Geiser construction on that pencil, with p8 in the role of x (where
        both members vanish), taking a common zero of c1 and c2 that is not
        one of the 8. In general position p9 is a simple base point off the
        8: blown up, it is the base point of |-K| on the del Pezzo surface
        of degree 1, which lies on no (-1)-curve, the E_i among them."""
        c1, c2 = self._cubics
        pts = self.config.points
        return _ninth_base_point(
            self._cubics, pts[:7], pts[7], (0, 0),
            lambda q: not c1.value(q) and not c2.value(q) and ProjPoint(*q) not in pts)[0]

    @cached_property
    def fixed_curve(self) -> HPoly:
        """The curve fixed by the involution, of degree 9 with triple points
        at the 8 points: the Jacobian J(c1, c2, s) of c1, c2 spanning the
        cubic pencil and the first sextic s of the space where it is
        nonzero. J(c1, c2, .) is linear and vanishes on span{c1^2, c1 c2,
        c2^2}, a hyperplane of the space, so every such s gives the same
        nonic up to a scalar."""
        c1, c2 = self.config.cubics
        for s in self.space:
            j = _jacobian(c1, c2, s)
            if not j.is_zero():
                return j
        raise ValidationError("degenerate configuration", "Jacobian nonic vanishes")

    def _sextics(self, u):
        """Values of the space from the values u of its cubic factors
        (_factors): (D T) (u1^2, u1 u2, u2^2, u3 u4), divided by D exactly."""
        u1, u2, u3, u4 = u
        p1, p2, p3, p4 = u1 * u1, u1 * u2, u2 * u2, u3 * u4
        rows, d = self.config.change
        return [(a * p1 + b * p2 + c * p3 + e * p4) // d for a, b, c, e in rows]

    def _at(self, q):
        """Values of the space at an integer triple, from its cubic factors:
        exactly the integers that an Evaluator of the four sextics gives."""
        return self._sextics(self._factors(q))

    def eval_detail(self, x: ProjPoint):
        """Image of x under the Bertini involution, and the EvalTrace.

        On the member f of the cubic pencil through x the image is -x in the
        group law with origin p9, third(x, third(p9, p9)); at a singular
        point of f, where no chord is defined, x itself is the candidate.
        The first candidate that passes certifies is the image. The values
        of the space at x and the pencil coordinates c1(x), c2(x) come from
        one evaluation of the cubic factors."""
        if x in self.config.points:
            raise IndeterminacyError(f"{x} is a base point of the involution")
        u = self._factors(x.coords)
        vx = _hyperplane_values(x, self._sextics(u))
        u1, u2 = u[0], u[1]
        c1, c2 = self._cubics
        f = _Cubic.combination((u2, -u1), (c1, c2)) if u1 or u2 else c1
        p9 = self.ninth_point.coords
        o = f.third(p9, p9)
        y = o and f.third(x.coords, o)
        for attempts, candidate in enumerate((y, x.coords), start=1):
            if candidate is not None and self.certifies(x.coords, vx, candidate, self._at(candidate)):
                return ProjPoint(*candidate), EvalTrace(attempts)
        raise ExtractionError("no certified image: the chord construction degenerates at this point")


# ---------------------------------------------------------------------------
# seeded instance generation (deterministic test corpus)
# ---------------------------------------------------------------------------

CENTER_POOL = (
    (0, 1, 0),
    (1, 1, 1),
    (1, 0, 0),
    (0, 0, 1),
    (1, -1, 1),
    (2, 1, 1),
)


def _random_xz_form(stream: SplitMix64, degree: int) -> HPoly:
    terms = {}
    for i in range(degree + 1):
        c = stream.next_int(-5, 5)
        if c:
            terms[(i, 0, degree - i)] = c
    return HPoly(degree, terms)


def make_dj_instance(d: int, seed: int):
    """Deterministic seeded de Jonquieres instance (curve, center) of degree
    d that passes full validation; drawing continues until one does."""
    if d < 2:
        raise ValidationError("bad degree", "degree must be >= 2")
    stream = SplitMix64(seed ^ (0x9E3779B97F4A7C15 * d & (2**64 - 1)))
    for _ in range(400):
        center = ProjPoint(*CENTER_POOL[stream.next_below(len(CENTER_POOL))])
        a = _random_xz_form(stream, d - 2)
        b = _random_xz_form(stream, d - 1)
        cd = _random_xz_form(stream, d)
        if a.is_zero() or cd.is_zero():
            continue
        y = HPoly.variable(1)
        c_norm = (a * y * y) + (b * y) + cd
        m, _minv = frame_moving_to_center(center)
        curve = c_norm.apply_matrix(m).canonical()
        try:
            validate_dj(curve, center)
        except ValidationError:
            continue
        return curve, center
    raise ExtractionError(f"no valid degree-{d} instance found for this seed")
