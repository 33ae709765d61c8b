"""Picard lattices of blow-ups with involution actions.

A blow-up lattice has basis (H, E_1, ..., E_n), diagonal intersection form
(+1, -1, ..., -1) and canonical class K = -3H + sum E_i, so K^2 = 9 - n.
The quadric P^1 x P^1 is carried as a separate rank-2 model with Gram matrix
[[0,1],[1,0]] and K = (-2,-2); it is recognized by its kind, "quadric".

Involutions are integer matrices M acting on column vectors, validated to
preserve the form, square to the identity and fix K. The minimality test is
the lattice translation of the blow-down criterion: every class E with
E^2 = E.K = -1 must satisfy ME != E and E.(ME) >= 1. On a Del Pezzo lattice
(n <= 8) every such class is the class of an actual exceptional curve, so
the test decides minimality of the geometric pair; that is this module's
validity domain.

The test reads E.(ME) off the eigenspaces V+ = ker(M - I) and
V- = ker(M + I). They are orthogonal, and E = E+ + E- with
E+- = (E +- ME)/2, so with E^2 = -1

    E.(ME) = E+^2 - E-^2 = 2 E+^2 + 1 = -1 - 2 E-^2.

K lies in V+, so V- lies in K's orthogonal, which is negative definite
for n <= 8 (K^2 = 9 - n > 0 on a form of signature (1, n)). Hence
E-^2 <= 0, with equality exactly when E- = 0, that is ME = E: E.(ME) >= -1
on every exceptional class, a fixed class is exactly E.(ME) = -1, and a
moved class fails exactly at E.(ME) = 0. E+^2 is a sum over an
orthogonal basis of V+ started from K: rank 1, K alone, for the
anti-reflection in K of the Geiser and Bertini cases.
"""

from functools import cached_property
from math import isqrt, lcm
from operator import mul
from typing import NamedTuple

from .errors import ValidationError
from .exactpoly import kernel_basis, primitive

LABEL_FIBRATION = "(i)/(ii) fibration"
LABEL_PLANE = "(iii)"
LABEL_QUADRIC = "(iv)"
LABEL_GEISER = "(v)"
LABEL_BERTINI = "(vi)"
LABEL_NON_MINIMAL = "non-minimal"


class PicLattice(NamedTuple):
    gram: tuple
    k: tuple
    kind: str              # "blowup" | "quadric"
    n: int | None = None   # number of blown-up points for blow-up lattices

    @property
    def rank(self) -> int:
        return len(self.k)

    def dot(self, u, v) -> int:
        return sum(map(mul, u, _mat_vec(self.gram, v)))

    def k_square(self) -> int:
        return self.dot(self.k, self.k)


def make_lattice(n: int) -> PicLattice:
    """Blow-up lattice of the plane at n points; K^2 = 9 - n."""
    if n < 0:
        raise ValidationError("bad rank", "n must be >= 0")
    gram = tuple(
        tuple((1 if i == 0 else -1) if i == j else 0 for j in range(n + 1))
        for i in range(n + 1)
    )
    k = tuple([-3] + [1] * n)
    return PicLattice(gram, k, "blowup", n)


def quadric_lattice() -> PicLattice:
    """Rank-2 hyperbolic model of the quadric surface; K = (-2,-2), K^2 = 8."""
    return PicLattice(((0, 1), (1, 0)), (-2, -2), "quadric")


def _mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _mat_vec(m, v):
    return tuple(sum(map(mul, row, v)) for row in m)


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _transpose(m):
    n = len(m)
    return tuple(tuple(m[j][i] for j in range(n)) for i in range(n))


class LatticeInvolution:
    """Integer matrix acting as an involutive isometry fixing K."""

    def __init__(self, lattice: PicLattice, matrix: tuple):
        r = lattice.rank
        if len(matrix) != r or any(len(row) != r for row in matrix):
            raise ValidationError("bad matrix", f"expected a {r}x{r} matrix")
        if any(not isinstance(v, int) for row in matrix for v in row):
            raise ValidationError("bad matrix", "entries must be integers")
        g = lattice.gram
        if _mat_mul(_transpose(matrix), _mat_mul(g, matrix)) != g:
            raise ValidationError("not an isometry", "M^T G M != G")
        if _mat_mul(matrix, matrix) != _identity(r):
            raise ValidationError("not an involution", "M^2 != I")
        if _mat_vec(matrix, lattice.k) != lattice.k:
            raise ValidationError("K not fixed", "M K != K")
        vars(self).update(lattice=lattice, matrix=matrix)

    def __setattr__(self, *args):
        raise AttributeError("LatticeInvolution is immutable")

    def _key(self):
        return self.lattice, self.matrix

    def __eq__(self, other):
        if not isinstance(other, LatticeInvolution):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "LatticeInvolution(lattice={!r}, matrix={!r})".format(*self._key())

    @cached_property
    def fixed_basis(self) -> tuple:
        """Primitive integer basis of the fixed sublattice ker(M - I)."""
        m = self.matrix
        r = len(m)
        return tuple(kernel_basis([[m[i][j] - (i == j) for j in range(r)] for i in range(r)]))


def reflection_through(lat: PicLattice, alpha) -> tuple:
    """Matrix of x -> x - 2 (a.x)/(a.a) a, for any a with a.a != 0.

    This is an involutive isometry over Q, integral exactly when a.a
    divides 2 (a.x) for every basis vector x, as for a.a = +-1 or +-2; any
    other alpha is refused. The roots, a.a = -2 such as E_i - E_j, give
    x + (a.x) a. It fixes K only when K is orthogonal to alpha, as for
    E_i - E_j; composing with global negation when K is proportional to
    alpha yields the involution used for the two Del Pezzo cases.
    """
    alpha = tuple(alpha)
    if len(alpha) != lat.rank:
        raise ValidationError(
            "bad reflection", f"alpha has {len(alpha)} entries, the lattice rank is {lat.rank}"
        )
    ga = _mat_vec(lat.gram, alpha)      # a.e_j for each basis vector e_j
    a2 = sum(map(mul, alpha, ga))
    if a2 == 0:
        raise ValidationError("bad reflection", "alpha.alpha = 0, no reflection")
    if any(2 * v % a2 for v in ga):
        raise ValidationError("bad reflection", "reflection is not integral")
    r = lat.rank
    return tuple(tuple((i == j) - 2 * ga[j] // a2 * alpha[i] for j in range(r)) for i in range(r))


def anti_reflection_in_k(lat: PicLattice) -> LatticeInvolution:
    """x -> -x + 2 (K.x)/K^2 K, the involution acting as -1 on K's orthogonal.

    Integral exactly in the Del Pezzo degree 1 and 2 cases (K^2 in {1, 2});
    its fixed sublattice is the integer span of K, of rank 1.
    """
    k2 = lat.k_square()
    if k2 not in (1, 2):
        raise ValidationError("bad degree", f"K^2 = {k2}, must be 1 or 2")
    refl = reflection_through(lat, lat.k)
    m = tuple(tuple(-refl[i][j] for j in range(lat.rank)) for i in range(lat.rank))
    return LatticeInvolution(lat, m)


def fixed_rank(inv: LatticeInvolution) -> int:
    """Rank of the fixed sublattice: kernel of M - I over the rationals."""
    return len(inv.fixed_basis)


# ---------------------------------------------------------------------------
# exceptional classes
# ---------------------------------------------------------------------------

def _degree_bounds(n: int):
    """Integer range of the H-degree a: Cauchy-Schwarz against the E-part
    gives (1-3a)^2 <= n (a^2+1); scan a safe window and keep what satisfies
    it."""
    lo, hi = 0, 0
    for a in range(-12, 25):
        if (1 - 3 * a) ** 2 <= n * (a * a + 1):
            lo = min(lo, a)
            hi = max(hi, a)
    return lo, hi


# degrees the oracle (exceptional_classes_bruteforce) adds on each side
_ORACLE_WIDEN = 2


def _tails(rem_sum: int, rem_sq: int, slots: int, top: int, prefix: tuple, out: list):
    """Non-increasing integer tails c, each entry at most top, with
    sum(c) = rem_sum and sum(c^2) = rem_sq."""
    if slots == 0:
        if rem_sum == 0 and rem_sq == 0:
            out.append(prefix)
        return
    # Cauchy-Schwarz feasibility for the remaining block
    if rem_sq < 0 or rem_sum * rem_sum > slots * rem_sq:
        return
    r = isqrt(rem_sq)
    # the first entry is the largest, so at least the mean
    for c in range(max(-r, -(-rem_sum // slots)), min(r, top) + 1):
        _tails(rem_sum - c, rem_sq - c * c, slots - 1, c, prefix + (c,), out)


def _orderings(values: tuple) -> list:
    """The distinct permutations of a non-decreasing tuple, in lexicographic
    order: each next one by the standard next-permutation step."""
    p = list(values)
    out = [values]
    n = len(p)
    while True:
        i = n - 2
        while i >= 0 and p[i] >= p[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = n - 1
        while p[j] <= p[i]:
            j -= 1
        p[i], p[j] = p[j], p[i]
        p[i + 1:] = p[:i:-1]
        out.append(tuple(p))


def _require_del_pezzo(lat: PicLattice) -> None:
    """Refuse a lattice whose exceptional classes are not listed: not a
    blow-up, or more than 8 points (beyond that the list is infinite)."""
    if lat.kind != "blowup":
        raise ValidationError("bad lattice", "exceptional classes need a blow-up lattice")
    if lat.n is None or lat.n > 8:
        raise ValidationError("unsupported rank", "n must be <= 8")


def exceptional_classes(lat: PicLattice):
    """All classes with E^2 = -1 and E.K = -1, deterministically ordered.

    Exhaustive search: for each H-degree a in the proven window, the
    non-increasing integer tails c with sum c_i = 1 - 3a and
    sum c_i^2 = a^2 + 1, each expanded into its distinct orderings. Only
    blow-up lattices with n <= 8 are supported (_require_del_pezzo).
    """
    _require_del_pezzo(lat)
    n = lat.n
    if n == 0:
        return []
    out: list = []
    lo, hi = _degree_bounds(n)
    for a in range(lo, hi + 1):
        tails: list = []
        _tails(1 - 3 * a, a * a + 1, n, isqrt(a * a + 1), (), tails)
        for tail in tails:
            out += [(a,) + c for c in _orderings(tail[::-1])]
    out.sort()
    return out


def exceptional_classes_bruteforce(lat: PicLattice):
    """Independent oracle: naive box search over a widened degree window.

    Pruning uses only elementary box bounds (each |c| <= isqrt(rem_sq),
    |rem_sum| <= slots * isqrt(rem_sq)), strictly weaker than the main
    enumeration's Cauchy-Schwarz cut, so the two searches are independent;
    the widened window certifies that the derived degree bounds lose
    nothing. It refuses what exceptional_classes refuses
    (_require_del_pezzo)."""
    _require_del_pezzo(lat)
    n = lat.n
    if n == 0:
        return []
    lo, hi = _degree_bounds(n)
    out = []

    def rec(a, target_sum, target_sq, slots, prefix):
        if slots == 0:
            if target_sum == 0 and target_sq == 0:
                out.append((a,) + tuple(prefix))
            return
        if target_sq < 0:
            return
        top = isqrt(target_sq)
        if abs(target_sum) > slots * top:
            return
        for c in range(-top, top + 1):
            rec(a, target_sum - c, target_sq - c * c, slots - 1, prefix + [c])

    for a in range(lo - _ORACLE_WIDEN, hi + _ORACLE_WIDEN + 1):
        rec(a, 1 - 3 * a, a * a + 1, n, [])
    out.sort()
    return out


class MinimalityResult(NamedTuple):
    minimal: bool
    witness: tuple | None = None
    image: tuple | None = None
    failure: str | None = None     # "fixed" | "disjoint"
    product: int | None = None

    def __bool__(self):
        return self.minimal

    def as_dict(self):
        """minimal, and for a non-minimal pair its witness, the witness'
        image and the failed condition."""
        d = {"minimal": self.minimal}
        if self.witness is not None:
            d.update(witness=list(self.witness), witness_image=list(self.image), failure=self.failure)
        return d


def _orthogonal_basis(lat: PicLattice, vectors) -> list:
    """Integer Gram-Schmidt: primitive, pairwise orthogonal vectors spanning
    the same space, the zero remainders of dependent vectors dropped. No
    remainder may be isotropic: the first vector is not, and the others are
    taken in a definite space."""
    basis = []
    for v in vectors:
        for b in basis:
            vb, bb = lat.dot(v, b), lat.dot(b, b)
            v = tuple(bb * x - vb * y for x, y in zip(v, b))
        if any(v):
            basis.append(tuple(primitive(v)))
    return basis


def is_minimal(lat: PicLattice, inv: LatticeInvolution) -> MinimalityResult:
    """Blow-down criterion on classes: minimal iff every exceptional class E
    has ME != E and E.(ME) >= 1; otherwise the first failing class, its
    image and the failed condition are returned.

    E.(ME) = 1 + 2 sum_i (E.b_i)^2 / b_i^2 over the orthogonal basis b of
    V+ = ker(M - I) with b_1 = K; see the module docstring. E.K = -1 on
    every class, so K's term is the constant 2 / K^2, and when V+ = <K>
    (the anti-reflections in K) every class gives 1 + 2 / K^2 > 0: the pair
    is minimal with no class listed. Otherwise the sum is taken in
    integers, each term weighted by D / b_i^2 for D the lcm of the
    |b_i^2|, and the division by D is exact. ME is formed only for the
    witness. The lattice is refused first as exceptional_classes refuses
    it (_require_del_pezzo), since K^2 = 0 at n = 9."""
    if lat.kind == "quadric":
        return MinimalityResult(True)
    _require_del_pezzo(lat)
    basis = _orthogonal_basis(lat, [lat.k, *inv.fixed_basis])
    if len(basis) == 1:
        return MinimalityResult(True)
    squares = [lat.dot(b, b) for b in basis]
    d = lcm(*squares)
    k_term = d + 2 * (d // squares[0])      # b_1 = +-K, so (E.b_1)^2 = 1
    forms = [(d // b2, _mat_vec(lat.gram, b)) for b2, b in zip(squares[1:], basis[1:])]
    for e in exceptional_classes(lat):
        prod = (k_term + 2 * sum(w * sum(map(mul, e, gb)) ** 2 for w, gb in forms)) // d
        if prod <= 0:
            failure = "fixed" if prod == -1 else "disjoint"
            return MinimalityResult(False, e, _mat_vec(inv.matrix, e), failure, prod)
    return MinimalityResult(True)


class PairClassification(NamedTuple):
    label: str
    minimal: MinimalityResult
    fixed_rank: int
    note: str = ""

    def as_dict(self):
        d = {"label": self.label, "fixed_rank": self.fixed_rank, **self.minimal.as_dict()}
        if self.note:
            d["note"] = self.note
        return d


def classify_pair(lat: PicLattice, inv: LatticeInvolution) -> PairClassification:
    """Structure label of a minimal pair, or non-minimal with witness.

    Fixed rank 1 splits by the lattice: the plane (n = 0), the quadric swap,
    Geiser (K^2 = 2) and Bertini (K^2 = 1). Fixed rank >= 2 is the
    conic-bundle range; whether the base involution is trivial is not a
    lattice question, so the two fibration cases stay merged.
    """
    mres = is_minimal(lat, inv)
    r = fixed_rank(inv)
    if not mres.minimal:
        return PairClassification(LABEL_NON_MINIMAL, mres, r)
    if r == 1:
        if lat.kind == "quadric":
            return PairClassification(LABEL_QUADRIC, mres, r)
        if lat.n == 0:
            return PairClassification(LABEL_PLANE, mres, r)
        k2 = lat.k_square()
        if k2 == 2:
            return PairClassification(LABEL_GEISER, mres, r)
        if k2 == 1:
            return PairClassification(LABEL_BERTINI, mres, r)
        raise ValidationError(
            "inconsistent input",
            f"fixed rank 1 with K^2 = {k2} has no integral involution",
        )
    return PairClassification(
        LABEL_FIBRATION, mres, r,
        note="base involution triviality is not decidable at lattice level",
    )
