"""Seeded draws that only the tests use, on the package's SplitMix64."""

from planecremona.errors import ExtractionError
from planecremona.projmaps import ProjPoint
from planecremona.rng import SplitMix64


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
