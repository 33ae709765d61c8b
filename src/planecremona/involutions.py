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

Geiser is evaluated by its closed form, the degree-8 map of homaloidal
type (8; 3^7), built from the pull-backs of the sides of the triangle
p1p2p3 (the octics C_a C_b Q_ab) and one known image. The factors are read
off data shared by the three sides (_octic_factors): C_a is the member of
the net singular at p_a, from the net's gradient rows at p_a; Q_ab, the
conic through the five other points, is the member through the third
vertex p_c of the pencil of conics through points 3-6, which two of its
line pairs span because those points are not collinear, and which has
one member through p_c because p_c is not among its base points. An
evaluation reads the octics' values off the values of these factors, so
it builds no octic; the fitted map (interpolated_map) multiplies the same
factors out (octic_triple_system). The known
images need no evaluation: the involution contracts C_a to p_a, and a
point of C_a off the base points is the residual point of a line through
its node (_residual). The map is certified exactly from its type and the
contracted pairs (x_a, p_a) of the four points p_4..p_7 off the triangle,
whose images form a projective frame (DelPezzoInvolution.certify_map):
octics with triple points at the 7 points are sections of sigma* H on the
blow-up, a space of dimension 3, so the map is M o sigma for a 3x3 matrix
M, and an M that fixes the four points of a frame is a scalar.

Bertini is evaluated by chord-tangent constructions on one cubic, in
integers (Bayle-Beauville, section 2). On a cubic f, third(P, Q) is the
third point of the line PQ (of the tangent when P = Q). Its 8 points span
a pencil of cubics whose ninth base point p9 is the origin of the group
law on each member, and x goes to -x on the member through x: third(x,
third(p9, p9)). By Cayley-Bacharach p9 is third(third(a, b), third(c, w)),
with a, b, c, w the third points of the chords p1p2, p3p4, p5p6, p7p8 on a
member; chords serve only Bertini and p9.

Each image is certified exactly before it is returned, by one certificate
on |-mK| for both (DelPezzoInvolution.certifies): the values of |-mK| at x
and at the image are proportional, with one more clause where the image is
x or a base point. The certificate assumes general position: no 3 points
collinear, no 6 on a conic, and for 8 points no cubic through all of them
singular at one, which make_point_config checks. Then no curve lies in the
base locus of the members through x, which has exactly one point besides
the configuration and x.

Both read |-mK| off its cubic factors (DelPezzoInvolution), with one
evaluation of 10 monomials per point: |-K| is the net itself, and |-2K| is
taken in the basis c1^2, c1 c2, c2^2, C_0 C_7 (sextic_system), with c1, c2
spanning the pencil through the 8 points and C_0, C_7 the nodal cubics that
the involution exchanges. The fixed curve is a Jacobian of the same
factors.

validate_dj builds a de Jonquieres construction once: a DJData of the
pencil form its checks read, pencil_form_at of the polar map, the fixed
curve and that polar map normalised; a gcd is taken only to name a
refusal. A DelPezzoInvolution keeps its configuration and fixed curve.
fixedcurve.invariant_of computes the invariant and label of either from
what it keeps, and this module does not import fixedcurve.
"""

from functools import cached_property, reduce
from itertools import combinations
from math import gcd as igcd
from operator import mul
from typing import NamedTuple

from .errors import ExtractionError, IndeterminacyError, ValidationError
from .exactpoly import (
    Evaluator,
    HPoly,
    adjugate3,
    cross,
    det3,
    dot,
    first_below_multiplicity,
    forms_with_multiplicities,
    hpoly_gcd_many,
    is_squarefree,
    kernel_basis,
    matrix_rank,
    monomials,
    multiplicity_conditions,
    multiplicity_values,
    null_vector,
    partial_rows,
    primitive,
    values_at,
)
from .projmaps import PencilForm, ProjPoint, RationalMap, collinear, pencil_form_at


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
    """Components x_i D_p C - 2 p_i C, not normalised, of harmonic
    conjugation on the lines through p with respect to the curve C, with
    D_p C = sum p_v dC/dx_v, written term by term from C's terms."""
    polar = {}                          # D_p C
    for e, c in curve.terms.items():
        for v, pv in enumerate(p.coords):
            if pv and e[v]:
                f = e[:v] + (e[v] - 1,) + e[v + 1:]
                polar[f] = polar.get(f, 0) + pv * e[v] * c
    comps = []
    for i, pi in enumerate(p.coords):
        terms = {f[:i] + (f[i] + 1,) + f[i + 1:]: c for f, c in polar.items()}
        if pi:
            for e, c in curve.terms.items():
                terms[e] = terms.get(e, 0) - 2 * pi * c
        comps.append(HPoly._make(curve.degree, {e: c for e, c in terms.items() if c}))
    return tuple(comps)


def validate_dj(curve: HPoly, p: ProjPoint) -> DJData:
    """The de Jonquieres involution preserving the lines through p and
    fixing the curve pointwise: the construction, or a refusal of the
    (curve, center) pair.

    Every check reads pencil_form_at of the polar map (_polar_map): with
    C = sum C_k y^k in the frame of p, u = sum k C_k y^(k-1) and
    v = sum (k - 2) C_k y^k, both times s = det(minv) of the frame. Checks,
    in order: degree >= 2; multiplicity at p exactly d-2 (v of y-degree
    <= 2 and A != 0); ordinarity (A squarefree); Delta = B^2 - 4 A C_d
    nonzero and squarefree, that is with as many branch points as its
    degree (PencilForm.branch_count). Together these make p the only singular
    point: a point q != p lies on a line through p, where the curve is
    A w^2 - Delta/(4A) with w = y + B/(2A) if A != 0 there, singular only
    over a double root of Delta; if A = 0 there, either dC/dy = B != 0 or
    no point of the curve but p lies on that line. A line of the curve
    through p divides gcd(A, B, C_d), so its square divides Delta; the gcd
    is taken only in a discriminant refusal, to name it "line through
    center" first. The map is that polar map, normalised (conjugated_map).
    """
    curve = curve.canonical()
    d = curve.degree
    if d < 2 or curve.is_zero():
        raise ValidationError("bad degree", "the curve must have degree >= 2")
    polar = _polar_map(curve, p)
    pencil = pencil_form_at(polar, p)
    top = len(pencil.v) - 1
    a = pencil.a                        # 2 s A
    if top > 2 or a.is_zero():
        found = f"is {d - top}, expected" if top > 2 else "exceeds"
        raise ValidationError("multiplicity mismatch", f"multiplicity at the center {found} {d - 2}")

    if not is_squarefree(a):
        raise ValidationError(
            "non-ordinary", "the tangent cone at the center has repeated lines"
        )

    delta = pencil.beta                 # 4 s^2 (B^2 - 4 A C_d)
    if delta.is_zero() or pencil.branch_count != delta.degree:
        if hpoly_gcd_many((a, pencil.b, pencil.e)).degree > 0:    # 2 s A, s B and -2 s C_d
            raise ValidationError(
                "line through center", "the curve contains a line through the center"
            )
        if delta.is_zero():
            raise ValidationError("degenerate", "zero discriminant")
        raise ValidationError(
            "extra singularities", "discriminant is not squarefree"
        )
    return DJData(pencil, curve, conjugated_map(polar))


def conjugated_map(polar) -> RationalMap:
    """The map of a validated de Jonquieres instance: its polar map
    (_polar_map), scaled jointly with no gcd (RationalMap._from_coprime).

    The polar map of an instance that passed validate_dj is coprime. In the
    frame of p its components are (x u : v : z u), with u = 2 A y + B and
    v = -(B y + 2 C_d), so a common factor divides gcd(u, v). A factor free
    of y divides 2 A, B and 2 C_d, so its square divides
    Delta = B^2 - 4 A C_d, which a squarefree nonzero Delta excludes. A
    factor that involves y divides u, of y-degree 1 since A != 0, so it
    forces Res_y(u, v) = Delta = 0, which "zero discriminant" refuses.
    """
    return RationalMap._from_coprime(polar)


def dj_from_conic(q: HPoly, p: ProjPoint) -> DJData:
    """Degree-2 specialization: harmonic conjugation with respect to a smooth
    conic, from a center off the conic; validate_dj canonicalises it."""
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
    through the 8). For 8 points also the nodal cubics (C_0, C_7) of
    sextic_system, so that system is (c1^2, c1 c2, c2^2, C_0 C_7) and |-2K|
    is evaluated through these four cubics (DelPezzoInvolution); empty for 7
    points. All are functions of the points, so two configurations are
    equal exactly when their points and kinds are."""

    points: tuple
    kind: str            # a key of DEL_PEZZO
    system: tuple
    cubics: tuple
    nodal: tuple


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
    no cubic through the 8 points is singular at p_0, with the nodal pair.
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
    nodal = ()
    if dp.m == 2:
        grads = multiplicity_values(cubics, coords, [2] * n)     # 3 rows per point
        for i in range(n):
            if not any(cross(*zip(*grads[3 * i:3 * i + 3]))):
                raise ValidationError("degenerate configuration",
                                      f"a cubic through the points is singular at point {i}")
        system, nodal = sextic_system(pts, cubics)
    return PointConfig(pts, kind, tuple(system), tuple(cubics), nodal)


def cubic_system(points) -> list:
    """Deterministic basis of the cubics through the points: a net for 7
    points, a pencil for 8; refused unless it has 10 - n members."""
    n = len(points)
    return forms_with_multiplicities([p.coords for p in points], 3, [1] * n, 10 - n,
                                     "cubics through the points")


def sextic_system(points, cubics):
    """Basis of the sextics singular at the 8 points, |-2K|, from the pencil
    c1, c2 of cubics through them: c1^2, c1 c2, c2^2 and C_0 C_7, with the
    nodal pair (C_0, C_7).

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

    Any basis serves: the certificate (DelPezzoInvolution.certifies) asks
    only that the values at x and at the image be proportional and that
    some ranks fall, and the fixed curve is a Jacobian taken canonical.
    """
    coords = [p.coords for p in points]
    (c0,) = forms_with_multiplicities(coords[:7], 3, [2] + [1] * 6, 1,
                                      "cubics through points 1-6 singular at point 0")
    (c7,) = forms_with_multiplicities(coords[1:], 3, [1] * 6 + [2], 1,
                                      "cubics through points 1-6 singular at point 7")
    c1, c2 = cubics
    system = [c1 * c1, c1 * c2, c2 * c2, c0 * c7]
    rank = matrix_rank([[f.terms.get(e, 0) for e in monomials(6)] for f in system])
    if rank != 4:
        raise ValidationError("degenerate configuration",
                              f"sextics singular along the points form a system of dimension {rank}, expected 4")
    return system, (c0, c7)


# the sides p1p2, p1p3, p2p3 of the triangle of the first three points
_SIDES = ((0, 1), (0, 2), (1, 2))
# two line pairs through points 3-6, p3p4 + p5p6 and p3p5 + p4p6
_LINE_PAIRS = (((3, 4), (5, 6)), ((3, 5), (4, 6)))
# the coordinate forms x, y, z, which _combinations turns into lines
_VARIABLES = tuple(HPoly.variable(i) for i in range(3))


def octic_triple_system(config: PointConfig, factors) -> list:
    """Basis of the octics with points of multiplicity >= 3 at the 7 points
    of a Geiser configuration: C_a C_b Q_ab for the sides ab of _SIDES,
    where C_a is the cubic through the points singular at p_a and Q_ab the
    conic through the five others, each canonical. These are the pull-backs
    of the sides by the Geiser involution: on the blow-up, sigma* H = 8H -
    3 sum E_i is the sum of sigma* E_a = C_a, sigma* E_b = C_b and sigma*
    (H - E_a - E_b) = Q_ab. factors are the octics' factors as
    _octic_factors gives them, multiplied out here."""
    lams, lines, mix = factors
    cubics = [c.canonical() for c in _combinations(lams, config.cubics)]
    conics = _combinations(mix, [l * m for l, m in (_combinations(pair, _VARIABLES) for pair in lines)])
    return [cubics[a] * cubics[b] * q.canonical() for (a, b), q in zip(_SIDES, conics)]


def _octic_factors(config: PointConfig, net):
    """The factors of octic_triple_system as coefficients, (lams, lines,
    mix): C_a = lams[a] . config.cubics for a = 0, 1, 2, and Q_ab = mix[k] .
    (l m for l, m in lines) for the side k = ab of _SIDES, from data shared
    by the three sides.

    C_a is the member of the net whose gradient vanishes at p_a, read off
    the gradients of net, the net as _Cubic rows (_singular_coefficients).
    Q_ab passes through points 3-6 and the third vertex p_c of the
    triangle. The conics through points 3-6 are the pencil spanned by two
    of its line pairs, q1 = p3p4 + p5p6 and q2 = p3p5 + p4p6 (_LINE_PAIRS),
    which are proportional only when the four points are collinear, and
    Q_ab is its member through p_c, q2(p_c) q1 - q1(p_c) q2. p_c is not one
    of the pencil's four base points, so some member misses p_c and its
    member through p_c is unique. Refused with "degenerate configuration"
    otherwise, naming the points or the side.
    """
    coords = [p.coords for p in config.points]
    lams = [_singular_coefficients(net, coords[a], a) for a in range(3)]
    if len(set(coords[3:])) < 4:
        raise ValidationError("degenerate configuration", "repeated point")
    if not (det3(coords[3:6]) or det3(coords[3:5] + coords[6:])):
        raise ValidationError("degenerate configuration",
                              "conics through points 3-6 form a system of dimension 3, expected 2")
    lines = [[cross(coords[i], coords[j]) for i, j in pair] for pair in _LINE_PAIRS]
    mix = []
    for a, b in _SIDES:
        c = 3 - a - b
        v1, v2 = (dot(l, coords[c]) * dot(m, coords[c]) for l, m in lines)
        if not (v1 or v2):
            raise ValidationError("degenerate configuration",
                                  f"conics missing points {a}, {b}: every conic through points 3-6 "
                                  f"passes through point {c}")
        mix.append((v2, -v1))
    return lams, lines, mix


def _singular_coefficients(rows, p, a: int):
    """The coefficients lambda of the member lambda . net of the net of
    cubics through the points that is singular at their point p = p_a:
    lambda is orthogonal to the three rows of the 3x3 matrix of the net's
    gradients at p, read off rows, the net as _Cubic. Euler's relation puts
    the gradients at p in the plane orthogonal to p, so the rank is at most
    2; null_vector certifies rank exactly 2, and so a unique member. Refused
    with "degenerate configuration" otherwise."""
    lam = null_vector(list(zip(*(cubic.grad(p) for cubic in rows))))
    if lam is None:
        raise ValidationError("degenerate configuration",
                              f"the net's gradients at point {a} do not have rank 2")
    return lam


def _residual(cubic: "_Cubic", p, d):
    """The point other than p where the line pd meets a cubic C with a
    double point at p, primitive, or None when that line is a branch
    tangent at p. With g = grad C(d), C(s p + t d) = t^2 (s g.p + t C(d))
    and 3 C(d) = g.d (Euler), so the point is 3 (g.p) d - (g.d) p, which
    needs g.p != 0."""
    g = cubic.grad(d)
    gp = dot(g, p)
    if not gp:
        return None
    gd = dot(g, d)
    return primitive([3 * gp * u - gd * v for u, v in zip(d, p)])


# ---------------------------------------------------------------------------
# chord-tangent arithmetic on plane cubics, in integers
# ---------------------------------------------------------------------------

# pencil members s f + t h, tried in turn: 13 distinct ratios, one more than
# the 12 singular members a cubic pencil with a smooth member can have
_MEMBERS = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (2, -1),
            (1, 3), (3, 1), (1, -3), (3, -1), (2, 3))


class _Cubic:
    """Integer plane cubic held as the rows of its three partial derivatives
    over the quadric monomials x^2, xy, xz, y^2, yz, z^2 (partial_rows), so
    that a gradient costs a few products.

    grad and third are written out on purpose, on unpacked coordinates and
    without generators, cross or dot: they are most of the self time of a
    Geiser or Bertini evaluation."""

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
        aa, ab, ac, bb, bc, cc = a * a, a * b, a * c, b * b, b * c, c * c
        r, s, t = self.rows
        return (r[0] * aa + r[1] * ab + r[2] * ac + r[3] * bb + r[4] * bc + r[5] * cc,
                s[0] * aa + s[1] * ab + s[2] * ac + s[3] * bb + s[4] * bc + s[5] * cc,
                t[0] * aa + t[1] * ab + t[2] * ac + t[3] * bb + t[4] * bc + t[5] * cc)

    def value(self, p) -> int:
        return dot(self.grad(p), p) // 3          # Euler: grad f(p).p = 3 f(p)

    def third(self, p, q):
        """Third intersection of the line pq with the cubic, for p and q on
        it: R = (grad f(q).p) p - (grad f(p).q) q. For p = q, with D = grad
        f(p) x p on the tangent, R = f(D) p - (grad f(D).p) D. Returns a
        primitive integer triple, or None when p or q is singular or the
        line is a component of the cubic."""
        g0, g1, g2 = self.grad(p)
        if not (g0 or g1 or g2):
            return None
        p0, p1, p2 = p
        d0, d1, d2 = q                    # R = s p - t d: d is q on a chord, D on the tangent
        if p1 * d2 != p2 * d1 or p2 * d0 != p0 * d2 or p0 * d1 != p1 * d0:    # p x q != 0
            h0, h1, h2 = self.grad(q)
            if not (h0 or h1 or h2):
                return None
            s, t = h0 * p0 + h1 * p1 + h2 * p2, g0 * d0 + g1 * d1 + g2 * d2
        else:
            d0, d1, d2 = g1 * p2 - g2 * p1, g2 * p0 - g0 * p2, g0 * p1 - g1 * p0
            h0, h1, h2 = self.grad((d0, d1, d2))
            s = h0 * d0 + h1 * d1 + h2 * d2                   # 3 f(D)
            t = 3 * (h0 * p0 + h1 * p1 + h2 * p2)             # 3 grad f(D).p
        r0, r1, r2 = s * p0 - t * d0, s * p1 - t * d1, s * p2 - t * d2
        g = igcd(r0, r1, r2)
        if g == 0:
            return None
        return (r0 // g, r1 // g, r2 // g)


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
    """Whether the integer vector v, of length 3 or 4 as u, is a multiple of
    u, zero included: u is nonzero or v is zero, and u_i v_j = u_j v_i for
    every i < j. Written out, with no generator: DelPezzoInvolution.certifies
    calls it on every candidate of an evaluation."""
    if len(u) == 3:
        u0, u1, u2 = u
        v0, v1, v2 = v
        return ((u0 or u1 or u2 or not (v0 or v1 or v2))
                and u0 * v1 == u1 * v0 and u0 * v2 == u2 * v0 and u1 * v2 == u2 * v1)
    u0, u1, u2, u3 = u
    v0, v1, v2, v3 = v
    return ((u0 or u1 or u2 or u3 or not (v0 or v1 or v2 or v3))
            and u0 * v1 == u1 * v0 and u0 * v2 == u2 * v0 and u0 * v3 == u3 * v0
            and u1 * v2 == u2 * v1 and u1 * v3 == u3 * v1 and u2 * v3 == u3 * v2)


def _ninth_base_point(f: _Cubic, h: _Cubic, base, x: ProjPoint, accept) -> ProjPoint:
    """The ninth base point of the pencil of cubics spanned by f and h,
    whose other base points are the seven points `base` and x: the first
    candidate q, an integer triple, that accept(q) takes.

    On each member s f + t h in the order of _MEMBERS, the seven rotations
    of the base points are tried in turn. On a smooth member no step
    degenerates, so one of the 13 members gives the point."""
    pts = tuple(p.coords for p in base)
    for s, t in _MEMBERS:
        member = f if not t else h if not s else _Cubic.combination((s, t), (f, h))
        for k in range(7):
            q = _cayley_bacharach(member, pts[k:] + pts[:k], x.coords)
            if q is not None and accept(q):
                return ProjPoint(*q)
    raise ExtractionError(f"no certified ninth base point after {7 * len(_MEMBERS)} constructions")


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
    """What one Geiser or Bertini evaluation did: the number of candidate
    images tried until one was certified. Geiser has one, its closed form's
    value; Bertini two, the chord image and then x itself."""

    attempts: int


# the name of each family's fixed curve, by its degree, for the refusal of
# a vanishing Jacobian (DelPezzoInvolution.fixed_curve)
_CURVE_NAMES = {6: "sextic", 9: "nonic"}


class DelPezzoInvolution:
    """The deck involution of the map given by |-mK| on the blow-up of the
    points of a configuration in general position, for the kind of
    DEL_PEZZO that a subclass names. Everything is read off the cubic
    factors of the space, PointConfig.cubics + nodal: the net, or c1, c2,
    C_0, C_7. A subclass gives the values of the space from the values of
    its factors (_space_values) and its evaluator (eval_detail)."""

    kind = ""

    def __init__(self, config: PointConfig):
        self.family = DEL_PEZZO[self.kind]
        if config.kind != self.kind:
            raise ValidationError("bad config", f"expected a {self.kind} configuration of {self.family.n} points")
        self.config = config
        self._factors = Evaluator(config.cubics + config.nodal)

    @property
    def space(self):
        """Basis of |-mK| (PointConfig.system)."""
        return self.config.system

    @cached_property
    def _cubics(self):
        """The cubics through the points (PointConfig.cubics), as _Cubic:
        the net of a Geiser configuration, the pencil of a Bertini one."""
        return [_Cubic.from_hpoly(c) for c in self.config.cubics]

    def _at(self, q):
        """Values of the space at an integer triple, from one evaluation of
        its cubic factors."""
        return self._space_values(self._factors(q))

    def _through(self, x: ProjPoint):
        """(u, vx): the values u of the cubic factors at x and the values vx
        of the space, orthogonal to the members through x. x is refused if
        it is a base point, or if vx vanishes: then the members through x
        are not a hyperplane of the space."""
        if x in self.config.points:
            raise IndeterminacyError(f"{x} is a base point of the involution")
        u = self._factors(x.coords)
        vx = self._space_values(u)
        if not any(vx):
            raise ValidationError("system dimension wrong",
                                  f"the members through {x} do not form a hyperplane of the system")
        return u, vx

    @cached_property
    def fixed_curve(self) -> HPoly:
        """The curve fixed by the involution, of degree 3(m + 1) with points
        of multiplicity m + 1 at the points: the Jacobian J(c1, c2, g) of
        the first two cubic factors and the product g of the others. For
        Geiser that is J(c1, c2, c3), the Jacobian sextic of the net. For
        Bertini it is J(c1, c2, C_0 C_7): J(c1, c2, .) is linear and
        vanishes on span{c1^2, c1 c2, c2^2}, a hyperplane of |-2K|, so every
        other member gives the same nonic up to a scalar."""
        c1, c2, *rest = self.config.cubics + self.config.nodal
        j = _jacobian(c1, c2, reduce(mul, rest))
        if j.is_zero():
            name = _CURVE_NAMES[self.family.fixed_curve[0]]
            raise ValidationError("degenerate configuration", f"Jacobian {name} vanishes")
        return j

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
        if any(cross(x, y)):
            return True
        return matrix_rank(multiplicity_values(self.space, [x], [2])) < 3

    def certify_map(self, sigma: RationalMap, pairs):
        """Refuse sigma, with reason "interpolation failed" and a message
        naming the failed step, unless it is the involution. pairs yields
        points x and their certified images y, base points allowed; the
        first four whose images form a projective frame (_frame) are read,
        and fewer than four are refused.

        1. sigma has the family's degree d.
        2. Its components have multiplicity >= 3m at every point
           (map_multiplicity, by first_below_multiplicity). Then they lie in
           H^0(d H - 3m sum E_i) = H^0(sigma* H) on the blow-up, of
           dimension h^0(H) = 3, which the components of the involution
           span: sigma = M o (the involution) for a 3x3 matrix M.
        3. At each frame point x, sigma(x) is a nonzero multiple of y. The
           involution's components at x, off the base points, are a nonzero
           multiple of y, where y is a base point too: it contracts a curve
           through x to y. So M
           has the four y as eigenvectors with nonzero eigenvalues; the
           fourth is a combination of the other three with no zero
           coefficient, which forces the eigenvalues equal: M is a scalar.

        So a map that passes has components c (the involution's components)
        for a scalar c != 0. Those span sigma* |H| = |d H - 3m sum E_i|,
        which has no fixed part, so they are coprime: sigma needs no gcd,
        and a triple with a common factor fails step 2 or step 3.
        """
        family, pts = self.family, self.config.points
        if sigma.degree != family.degree:
            raise ValidationError("interpolation failed", f"fitted map does not have degree {family.degree}")
        mult = family.map_multiplicity
        low = first_below_multiplicity(sigma.components, [p.coords for p in pts], mult)
        if low is not None:
            raise ValidationError("interpolation failed",
                                  f"fitted map has multiplicity < {mult} at the base point {pts[low]}")
        frame = list(self._frame(pairs))
        if len(frame) < 4:
            raise ValidationError("interpolation failed", "the images hold no projective frame")
        comps = Evaluator(sigma.components)
        for x, y in frame:
            v = comps(x.coords)
            if not any(v) or any(cross(v, y.coords)):
                image = ProjPoint(*v) if any(v) else None
                raise ValidationError("interpolation failed",
                                      f"fitted map sends the frame point {x} to {image}, not to {y}")

    @staticmethod
    def _frame(pairs):
        """The first four pairs (x, y) whose images y form a projective
        frame: no two are equal and no three are collinear (det3)."""
        chosen = []
        for x, y in pairs:
            v = y.coords
            if (not all(any(cross(u, v)) for u in chosen)
                    or not all(det3((u, w, v)) for u, w in combinations(chosen, 2))):
                continue
            yield x, y
            chosen.append(v)
            if len(chosen) == 4:
                return


class GeiserInvolution(DelPezzoInvolution):
    """Geiser involution attached to 7 points in general position."""

    kind = "geiser"

    fixed_sextic = property(lambda self: self.fixed_curve)

    @staticmethod
    def _space_values(u):
        """The space is the net, its own cubic factors: their values u."""
        return u

    def eval_detail(self, x: ProjPoint):
        """Image of x under the closed form, certified by certifies, and
        EvalTrace(1). The closed form is evaluated through its factors
        (_octic_values, _value_matrix), so no octic is built: the first
        evaluation of a configuration adds four 3x3 kernels and one point
        of C_3 to the next ones' cost. A value that fails the certificate is
        refused with ExtractionError."""
        u, vx = self._through(x)
        px = self._octic_values(u, x.coords)
        v = [dot(row, px) for row in self._value_matrix]
        if any(v):
            y = ProjPoint(*v)
            if self.certifies(x.coords, vx, y.coords, self._at(y.coords)):
                return y, EvalTrace(1)
        raise ExtractionError(f"the closed form's value at {x} is not certified")

    @cached_property
    def _factored_octics(self):
        """The factors of the octics as coefficients (_octic_factors)."""
        return _octic_factors(self.config, self._cubics)

    def _octic_values(self, u, q):
        """The values at q of the octics C_a C_b Q_ab of octic_triple_system,
        each up to a scalar fixed by the configuration, from the values u of
        the net at q and of the four lines of _LINE_PAIRS."""
        lams, lines, mix = self._factored_octics
        c = [dot(lam, u) for lam in lams]
        w1, w2 = (dot(l, q) * dot(m, q) for l, m in lines)
        return [c[a] * c[b] * (m1 * w1 + m2 * w2) for (a, b), (m1, m2) in zip(_SIDES, mix)]

    @cached_property
    def _value_matrix(self):
        """The matrix adj(L) diag(lambda) of the closed form (_side_matrix)
        for the octics as _octic_values gives them."""
        x = self._first_contracted.coords
        return self._side_matrix(self._octic_values(self._factors(x), x))

    def _side_matrix(self, px):
        """adj(L) diag(lambda), with L the matrix of the sides l_k of the
        triangle p_0 p_1 p_2 and lambda read off the values px of octics P_k
        at the first contracted pair (x_3, p_3).

        The side l_k pulls back to l_k(sigma) = lambda_k P_k, so sigma =
        adj(L) diag(lambda) P, and at any x off the base points with image y
        where no P_k(x) vanishes, lambda_k is proportional to l_k(y) times
        the product of the other P_j(x). The pair (x_3, p_3) is such a
        point: p_3 lies on no side, and C_3 meets C_0, C_1, C_2 and each
        Q_ab only at base points, so no P_k(x_3) vanishes: C_3 . C_a = 9 is 2
        at each node and 1 at the five other points, and C_3 . Q_ab = 6 is 2
        at p_3 and 1 at the four other points of Q_ab."""
        pts = self.config.points
        lines = [cross(pts[a].coords, pts[b].coords) for a, b in _SIDES]
        ly = [dot(line, pts[3].coords) for line in lines]
        scales = primitive([ly[k] * px[k - 1] * px[k - 2] for k in range(3)])
        return [[a * s for a, s in zip(row, scales)] for row in adjugate3(lines)]

    @cached_property
    def contracted_pairs(self):
        """Pairs (x_a, p_a), a = 3..6, with x_a a point of C_a, the member
        of the net singular at p_a, off the base points (_contracted_point):
        the involution contracts C_a to p_a."""
        pts = self.config.points
        return [(self._first_contracted, pts[3])] + [(self._contracted_point(a), pts[a]) for a in range(4, 7)]

    @cached_property
    def _first_contracted(self) -> ProjPoint:
        """x_3, the point of the first contracted pair, which scales the
        closed form for both the evaluator and the fit."""
        return self._contracted_point(3)

    def _contracted_point(self, a: int) -> ProjPoint:
        """x_a of contracted_pairs: the residual point (_residual) of the
        line from p_a to a point d of the line x_k = 0, where p_a has its
        first nonzero coordinate k, so that the line misses p_a. At most 8
        lines through p_a are unusable, the two branch tangents and the six
        lines to the other base points, so one of 9 points d gives x_a.
        (x_a, p_a) passes the base-point clause of certifies, read off C_a
        = lambda . net (_singular_coefficients): C_a(x_a) = lambda . (the
        net at x_a) = 0, and C_a is the unique member singular at p_a. x_a
        is primitive as _residual gives it, so it is compared with the base
        points' coordinates as it is."""
        p = self.config.points[a].coords
        cubic = _Cubic.combination(_singular_coefficients(self._cubics, p, a), self._cubics)
        base = {q.coords for q in self.config.points}
        k = next(i for i, c in enumerate(p) if c)
        i, j = (i for i in range(3) if i != k)
        for t in range(9):
            d = [0, 0, 0]
            d[i], d[j] = 1, t
            x = _residual(cubic, p, d)
            if x is not None and tuple(x) not in base and not cubic.value(x):
                return ProjPoint(*x)
        raise ExtractionError(f"no point off the base points found on the cubic singular at point {a}")

    @cached_property
    def _raw(self) -> list:
        """The components of the degree-8 map, not normalised: adj(L)
        diag(lambda) P for the octics P of octic_triple_system, multiplied
        out from the factors the evaluator reads (_factored_octics), and
        scaled at x_3 (_side_matrix)."""
        octics = octic_triple_system(self.config, self._factored_octics)
        x = self._first_contracted.coords
        return _combinations(self._side_matrix(values_at(octics, x)), octics)

    @cached_property
    def interpolated_map(self) -> RationalMap:
        """The closed-form degree-8 map (_raw), scaled jointly and certified
        exactly by certify_map from its type (8; 3^7) and the frame of the
        four contracted pairs, p_3..p_6 being in general position. No gcd is
        taken (RationalMap._from_coprime): a map that certify_map accepts
        is the involution up to a scalar, so its components are coprime.
        The map is unique up to scale and normalised, so the pairs chosen do
        not change it."""
        sigma = RationalMap._from_coprime(self._raw)
        self.certify_map(sigma, self.contracted_pairs)
        return sigma


class BertiniInvolution(DelPezzoInvolution):
    """Bertini involution attached to 8 points in general position."""

    kind = "bertini"

    @cached_property
    def ninth_point(self) -> ProjPoint:
        """Ninth base point p9 of the cubic pencil c1, c2 through the 8
        points: the Cayley-Bacharach chain of _ninth_base_point on that
        pencil, with p8 in the role of x, taking a common zero of c1 and c2
        that is not one of the 8. In general position p9 is a simple base
        point off the 8: blown up, it is the base point of |-K| on the del
        Pezzo surface of degree 1, which lies on no (-1)-curve, the E_i
        among them."""
        c1, c2 = self._cubics
        pts = self.config.points
        return _ninth_base_point(
            c1, c2, pts[:7], pts[7],
            lambda q: not c1.value(q) and not c2.value(q) and ProjPoint(*q) not in pts)

    @staticmethod
    def _space_values(u):
        """Values of the space from the values u of its cubic factors c1,
        c2, C_0, C_7: u1^2, u1 u2, u2^2, u3 u4."""
        u1, u2, u3, u4 = u
        return [u1 * u1, u1 * u2, u2 * u2, u3 * u4]

    def eval_detail(self, x: ProjPoint):
        """Image of x under the Bertini involution, and the EvalTrace.

        On the member f of the cubic pencil through x the image is -x in the
        group law with origin p9, third(x, third(p9, p9)); at a singular
        point of f, where no chord is defined, x itself is the candidate.
        The first candidate that passes certifies is the image. The values
        of the space at x and the pencil coordinates c1(x), c2(x) come from
        one evaluation of the cubic factors."""
        u, vx = self._through(x)
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
