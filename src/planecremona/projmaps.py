"""Projective points and frames, plane rational maps with composition,
projective identity and involution tests, and the pencil normal form of a
map with a center.

A map with a center p preserves every line through p. In a frame where
p = (0:1:0) it is (x u : v : z u) with u and v polynomials in y over binary
forms in (x, z) (PencilForm); a de Jonquieres involution acts on each line
by the Moebius involution y -> v / u, harmonic conjugation with respect to
the two points of its fixed curve on that line.
"""

from functools import cached_property

from .errors import ValidationError
from .exactpoly import (
    Evaluator, HPoly, adjugate3, det3, hpoly_gcd_many, null_vector, odd_multiplicity_root_count,
    primitive, primitive_scale, shear_sum,
)


class ProjPoint:
    """Point of the projective plane, its coordinates stored primitive."""

    __slots__ = ("coords",)

    def __init__(self, a, b, c):
        coords = tuple(primitive((a, b, c)))
        if coords == (0, 0, 0):
            raise ValidationError("zero point", "(0:0:0) is not a point")
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *args):
        raise AttributeError("ProjPoint is immutable")

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

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
    two standard basis vectors away from p's pivot as the others, so it is
    a shear up to a renaming of the variables: with o0 < o1 the indices
    other than the pivot, Minv (x, y, z) puts x + p[o0] y at o0, p[pivot] y
    at the pivot and z + p[o1] y at o1, and f(Minv x) is HPoly.shear(Minv,
    1), or for a weighted sum of forms exactpoly.shear_sum."""
    pivot = next(i for i, c in enumerate(p.coords) if c != 0)
    others = [i for i in range(3) if i != pivot]
    cols = [None, list(p.coords), None]
    cols[0] = [1 if i == others[0] else 0 for i in range(3)]
    cols[2] = [1 if i == others[1] else 0 for i in range(3)]
    minv = tuple(tuple(cols[j][i] for j in range(3)) for i in range(3))
    m = adjugate3(minv)
    return m, minv


def collinear(p: ProjPoint, q: ProjPoint, r: ProjPoint) -> bool:
    return det3((p.coords, q.coords, r.coords)) == 0


class RationalMap:
    """Plane rational map given by a coprime triple of equal-degree forms.

    Construction normalizes: the common factor of the three components is
    divided out and their coefficients, taken component by component in the
    monomial order, are scaled jointly to a primitive vector, so `degree` is
    the degree of the map in the usual sense.

    _from_coprime skips the gcd and only scales jointly. Its caller
    guarantees that the triple is coprime, or refuses the map unless a
    certificate proves it coprime. It has two callers:
    GeiserInvolution.interpolated_map, whose certify_map proves it (steps 2
    and 3 of DelPezzoInvolution.certify_map), and involutions.conjugated_map,
    whose polar map validate_dj's checks prove coprime.
    """

    __slots__ = ("components", "degree")

    def __init__(self, f1: HPoly, f2: HPoly, f3: HPoly):
        comps = (f1, f2, f3)
        if all(f.is_zero() for f in comps):
            raise ValidationError("zero map", "all three components vanish")
        degs = {f.degree for f in comps if not f.is_zero()}
        if len(degs) != 1:
            raise ValidationError("inhomogeneous", "components of different degrees")
        g = hpoly_gcd_many(comps)
        if g.degree > 0:
            comps = tuple(f.divexact(g) for f in comps)
        comps = _canon_triple(comps)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "degree", next(f.degree for f in comps if not f.is_zero()))

    @classmethod
    def _from_coprime(cls, comps) -> "RationalMap":
        """The map of a coprime triple of forms of one degree, not all
        zero, scaled jointly (_canon_triple) with no gcd."""
        comps = _canon_triple(comps)
        self = object.__new__(cls)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "degree", next(f.degree for f in comps if not f.is_zero()))
        return self

    def __setattr__(self, *args):
        raise AttributeError("RationalMap is immutable")

    @classmethod
    def identity(cls) -> "RationalMap":
        """(x : y : z), built once: a map is immutable."""
        return _IDENTITY

    def __eq__(self, other):
        if not isinstance(other, RationalMap):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __str__(self):
        return "({} : {} : {})".format(*self.components)

    __repr__ = __str__


def _canon_triple(comps):
    """The components, not all zero, scaled by one scalar: primitive over
    their terms, taken in order, read with no sort as HPoly.canonical reads
    one form: the sign is that of the first nonzero component's largest
    term. The triple itself when the scale is 1; term order never reaches
    an output (HPoly.canonical)."""
    lead = next(f.terms for f in comps if f.terms)
    den, g = primitive_scale([c for f in comps for c in f.terms.values()], lead[max(lead)])
    return comps if den == g == 1 else tuple(f._rescaled(den, g) for f in comps)


_IDENTITY = RationalMap(HPoly.variable(0), HPoly.variable(1), HPoly.variable(2))


def identity_minors(comps):
    """The three 2x2 minors of ((x, y, z), (f1, f2, f3))."""
    f1, f2, f3 = comps
    x, y, z = (HPoly.variable(i) for i in range(3))
    return (x * f2 - y * f1, x * f3 - z * f1, y * f3 - z * f2)


def is_identity(f: RationalMap) -> bool:
    """Projective identity test. The minors against (x, y, z) vanish exactly
    when the components are h (x, y, z) for a form h, and RationalMap divides
    h out and scales canonically, so that is f == (x : y : z)."""
    return f == _IDENTITY


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


def is_involution(f: RationalMap) -> bool:
    """Exact test that f composed with itself is the identity: involutive
    on f's own pencil form."""
    return involutive(f, pencil_form(f))


def involutive(f: RationalMap, form) -> bool:
    """The one involution dispatch, given f's pencil form (pencil_form):
    the test of that form (PencilForm.is_involution) when f has a center,
    else the grid test (involution_on_grid). Every command that needs an
    involution decides it here, with the form it goes on to read."""
    return form.is_involution() if form is not None else involution_on_grid(f)


def involution_on_grid(f: RationalMap) -> bool:
    """Exact test that f composed with itself is the identity, for any map.

    The minors of (x, y, z) against the components of f(f) are forms of
    degree D = d^2 + 1, so they vanish identically iff they vanish on the
    unisolvent grid {(i:j:1) : i + j <= D}. They are evaluated there in
    integers, through one Evaluator of the components, with f(f)(p) =
    f(f(p)) taken without normalising f(p); the first nonzero minor ends the
    test. The composite of a normalised map does not vanish identically:
    coprime components of positive degree do not compose to zero, and a
    constant map composes to itself.
    """
    evaluate = Evaluator(f.components)
    top = f.degree ** 2 + 1
    for i in range(top + 1):
        for j in range(top + 1 - i):
            a, b, c = evaluate(evaluate((i, j, 1)))
            if i * b != j * a or i * c != a or j * c != b:
                return False
    return True


def pencil_center(sigma: RationalMap):
    """The point p collinear with every x and sigma(x), or None.

    That holds exactly when p . (x cross sigma(x)) vanishes identically:
    when p is orthogonal to the row of coefficients, in the three
    components, of every monomial of x cross sigma(x), rows read straight
    off the terms of sigma. Two such points force sigma(x) = x, so unless
    sigma is the identity (rank 0) the kernel is a point exactly when the
    rows have rank 2 (null_vector); rank <= 1 and rank 3 give None.
    """
    # component c of x cross sigma(x) is x_(c+1) f_(c+2) - x_(c+2) f_(c+1),
    # indices mod 3: f_w enters component w + 1 times x_(w+2) and component
    # w + 2 times -x_(w+1). x^i y^j z^k sits at n = s(s + 1)/2 + k, s = j + k,
    # in monomials of every degree (HPoly.__mul__): times x it stays at n,
    # times y (s + 1, k) moves it to n + s + 1, times z (s + 1, k + 1) to
    # n + s + 2, so times x_v to n + (v and s + v)
    d = sigma.degree
    cols = [[0] * ((d + 2) * (d + 3) // 2) for _ in range(3)]
    for w, f in enumerate(sigma.components):
        plus, minus = cols[(w + 1) % 3], cols[(w + 2) % 3]
        vp, vm = (w + 2) % 3, (w + 1) % 3
        for (_, j, k), c in f.terms.items():
            s = j + k
            n = s * (s + 1) // 2 + k
            plus[n + (vp and s + vp)] += c
            minus[n + (vm and s + vm)] -= c
    kernel = null_vector(list(zip(*cols)))
    return None if kernel is None else ProjPoint(*kernel)


class PencilForm:
    """A map sigma of degree d with a center p, in the frame (m, minv) of
    frame_moving_to_center(p), where p = (0:1:0):

        m sigma(minv x) = (x u : v : z u),

    with u = sum u[k] y^k and v = sum v[k] y^k, u[k] and v[k] binary forms,
    HPoly in (x, z), of degrees d - 1 - k and d - k (degree 0 for the zero
    u[1] of a linear map). u and v are padded to at least two terms, so
    that u = a y + b and v = c y + e when both are linear in y. On the line
    over (x : z) sigma acts by y -> v / u, for linear u and v by the Moebius
    matrix M = [[c, e], [a, b]], whose fixed points solve
    a y^2 + (b - c) y - e = 0. Proportional components give proportional
    (u, v).
    """

    def __init__(self, center: ProjPoint, frame: tuple, u: tuple, v: tuple):
        vars(self).update(center=center, frame=frame, u=u, v=v)

    def __setattr__(self, *args):
        raise AttributeError("PencilForm is immutable")

    def _key(self):
        return self.center, self.frame, self.u, self.v

    def __eq__(self, other):
        if not isinstance(other, PencilForm):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "PencilForm(center={!r}, frame={!r}, u={!r}, v={!r})".format(*self._key())

    @property
    def linear(self) -> bool:
        return len(self.u) == 2 and len(self.v) == 2

    a = property(lambda self: self.u[1])
    b = property(lambda self: self.u[0])
    c = property(lambda self: self.v[1])
    e = property(lambda self: self.v[0])

    @cached_property
    def beta(self) -> HPoly:
        """Branch form (b - c)^2 + 4 a e, the discriminant of the fixed
        points on each line; 4 (B^2 - 4 A C_d) for a de Jonquieres map."""
        diff = self.b - self.c
        return diff * diff + self.a * self.e * 4

    def is_involution(self) -> bool:
        """Whether sigma composed with itself is the identity.

        For coprime components u and v are coprime, so sigma has degree
        max(deg_y u, deg_y v) on a general line through p, and an involution needs degree 1. Then by
        Cayley-Hamilton M^2 = (b + c) M - det(M) I, so M^2 is scalar exactly
        when b + c = 0 or M is scalar; b + c = 0 and beta = -4 det(M) != 0
        rule out a scalar M, the identity, and an M of rank <= 1, whose map
        is not birational.
        """
        return self.linear and (self.b + self.c).is_zero() and not self.beta.is_zero()

    @cached_property
    def branch_count(self) -> int:
        """Number of distinct odd-multiplicity roots of beta: the branch
        points of the normalized fixed curve over the pencil of lines. It
        equals the degree of beta exactly when beta is squarefree."""
        return odd_multiplicity_root_count(self.beta)

    def genus(self) -> int:
        """Genus of the normalized fixed curve of an involution, the double
        cover of the pencil branched at branch_count points; -1 when that
        cover splits into two rational curves."""
        return self.branch_count // 2 - 1


def pencil_form(sigma: RationalMap):
    """The PencilForm of a nonconstant map with a center (pencil_center), or
    None."""
    if sigma.degree == 0:
        return None
    p = pencil_center(sigma)
    return pencil_form_at(sigma.components, p) if p is not None else None


def pencil_form_at(comps, p: ProjPoint) -> PencilForm:
    """The PencilForm of the components comps of a map with center p:
    pencil_form passes a RationalMap's coprime components, and any triple
    with center p, such as a polar map, is read the same way. The first two
    rows of m weight the components, and minv, a shear up to renaming
    (frame_moving_to_center), moves both weighted sums by Taylor shifts
    along y (shear_sum); the third row, z u, is never read. The two sums
    x u and v are split by powers of y in one pass over their terms, x's
    exponent lowered by one for u, and each list is cut, as a form's
    y-coefficients are, at its last nonzero entry and padded to two."""
    m, minv = frame_moving_to_center(p)
    d = max(f.degree for f in comps)
    xu, v = (shear_sum(d, comps, row, minv, 1) for row in m[:2])
    u_terms = [{} for _ in range(max(d, 2))]
    v_terms = [{} for _ in range(d + 1)]
    for (i, j, k), c in xu.terms.items():
        u_terms[j][i - 1, 0, k] = c
    for (i, j, k), c in v.terms.items():
        v_terms[j][i, 0, k] = c
    for t in (u_terms, v_terms):
        while len(t) > 2 and not t[-1]:
            t.pop()
    return PencilForm(p, (m, minv), tuple(HPoly._make(max(d - 1 - k, 0), t) for k, t in enumerate(u_terms)),
                      tuple(HPoly._make(d - k, t) for k, t in enumerate(v_terms)))
