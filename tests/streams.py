"""Seeded draws on a SplitMix64 stream, reference constructions and the
seeded de Jonquieres instances (make_dj_instance), that only the tests use.

SplitMix64 is the generator published by Steele, Lea and Flood (used as
the seeder of xoroshiro), so that every draw is reproducible from a single
64-bit seed and can be replicated in any language:

    state     <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z         <- state
    z         <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9  mod 2^64
    z         <- (z XOR (z >> 27)) * 0x94D049BB133111EB  mod 2^64
    output    <- z XOR (z >> 31)

`next_below(n)` is plain modular reduction (bias is irrelevant here, exact
reproducibility is not), and every derived helper documents its draw order.
"""

from planecremona.errors import ExtractionError, ValidationError
from planecremona.exactpoly import HPoly, adjugate3, values_at
from planecremona.involutions import validate_dj
from planecremona.projmaps import ProjPoint, RationalMap, compose, frame_moving_to_center, is_identity

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def next_below(self, n: int) -> int:
        """Uniform-ish draw from {0, ..., n-1}; one next_u64 call."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def next_int(self, lo: int, hi: int) -> int:
        """Draw from the inclusive range [lo, hi]; one next_u64 call."""
        return lo + self.next_below(hi - lo + 1)


def next_nonzero_int(stream: SplitMix64, lo: int, hi: int) -> int:
    """Draw from [lo, hi] \\ {0}; one draw per attempt."""
    while True:
        v = stream.next_int(lo, hi)
        if v != 0:
            return v


def unimodular_matrix(stream: SplitMix64) -> tuple[tuple[int, int, int], ...]:
    """Small random integer 3x3 matrix with determinant +-1.

    Built as P * L * U with a permutation P and unit-triangular L, U whose
    off-diagonal entries are drawn from [-3, 3] (draw order: permutation
    index, l10, l20, l21, u01, u02, u12). Determinant +-1 keeps inverses
    integral, so coordinate changes never introduce denominators.
    """
    perms = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    p = perms[stream.next_below(6)]
    l10, l20, l21 = (stream.next_int(-3, 3) for _ in range(3))
    u01, u02, u12 = (stream.next_int(-3, 3) for _ in range(3))
    lower = ((1, 0, 0), (l10, 1, 0), (l20, l21, 1))
    upper = ((1, u01, u02), (0, 1, u12), (0, 0, 1))
    lu = tuple(
        tuple(sum(lower[i][k] * upper[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )
    return tuple(lu[p[i]] for i in range(3))


def sample_points(seed: int, count: int, avoid=()):
    """Deterministic small-coordinate sample points avoiding a given set."""
    stream = SplitMix64(seed)
    avoid = set(avoid)
    out = []
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 400 * count:
            raise ExtractionError("could not draw enough sample points")
        coords = tuple(stream.next_int(-9, 9) for _ in range(3))
        if coords == (0, 0, 0):
            continue
        p = ProjPoint(*coords)
        if p in avoid or p in out:
            continue
        out.append(p)
    return out


def perp_basis(values):
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


def evaluated_pairs(inv, seed: int, count: int = 40):
    """Pairs (x, image of x) at sample_points(seed, count) off the base
    points of a Geiser or Bertini involution, each image evaluated
    (eval_detail) when the pair is read."""
    return ((x, inv.eval_detail(x)[0]) for x in sample_points(seed, count, avoid=inv.config.points))


def _row_forms(m):
    return [HPoly(1, {(1, 0, 0): r[0], (0, 1, 0): r[1], (0, 0, 1): r[2]}) for r in m]


def apply_matrix(f, m) -> HPoly:
    """f(m @ (x, y, z)): the linear forms of m's rows substituted for the
    variables."""
    return f.substitute(_row_forms(m))


def linear_map(m) -> RationalMap:
    """The linear map (m @ (x, y, z)) of a 3x3 matrix m."""
    return RationalMap(*_row_forms(m))


def image(sigma: RationalMap, p: ProjPoint):
    """sigma(p), or None at a base point of sigma."""
    vals = values_at(sigma.components, p.coords)
    return ProjPoint(*vals) if any(vals) else None


def frame_conjugate(comps, outer, inner):
    """Components of outer . f . inner for integer 3x3 matrices outer and
    inner and the component triple comps of f."""
    moved = [apply_matrix(c, inner) for c in comps]
    return [moved[0] * row[0] + moved[1] * row[1] + moved[2] * row[2] for row in outer]


def pencil_components(u, v):
    """The components (x u, v, z u) of a map in the frame of its center, for
    u and v given by their coefficients of y^0, y^1, ... (PencilForm.u, .v)."""
    y = HPoly.variable(1)
    u, v = (sum((f * y ** k for k, f in enumerate(forms)), HPoly.zero(0)) for forms in (u, v))
    return HPoly.variable(0) * u, v, HPoly.variable(2) * u


def conjugate(sigma, phi, phi_inverse):
    """phi o sigma o phi_inverse; phi_inverse must be a two-sided inverse."""
    if not is_identity(compose(phi, phi_inverse)) or not is_identity(compose(phi_inverse, phi)):
        raise ValidationError("bad inverse", "phi_inverse is not a two-sided inverse of phi")
    return compose(phi, compose(sigma, phi_inverse))


def linear_conjugator(stream: SplitMix64):
    """(A, A^-1) as linear maps, for A = unimodular_matrix(stream)."""
    a = unimodular_matrix(stream)
    return linear_map(a), linear_map(adjugate3(a))


def quadratic_conjugator(stream: SplitMix64):
    """(phi, phi^-1) for phi = A o s o B, with A then B drawn by
    unimodular_matrix and s = (yz : xz : xy), its own inverse: phi^-1 is
    B^-1 o s o A^-1."""
    (a, a_inv), (b, b_inv) = linear_conjugator(stream), linear_conjugator(stream)
    x, y, z = (HPoly.variable(i) for i in range(3))
    s = RationalMap(y * z, x * z, x * y)
    return compose(a, compose(s, b)), compose(b_inv, compose(s, a_inv))


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
        curve = apply_matrix(c_norm, m).canonical()
        try:
            validate_dj(curve, center)
        except ValidationError:
            continue
        return curve, center
    raise ExtractionError(f"no valid degree-{d} instance found for this seed")
