import itertools
import random
from pathlib import Path

import pytest

from planecremona.cli import parse_matrix_file
from planecremona.errors import ValidationError
from planecremona.exactpoly import kernel_basis
from planecremona.picard import (
    LatticeInvolution,
    MinimalityResult,
    _identity,
    _mat_mul,
    _mat_vec,
    _orthogonal_basis,
    anti_reflection_in_k,
    classify_pair,
    exceptional_classes,
    exceptional_classes_bruteforce,
    fixed_rank,
    is_minimal,
    make_lattice,
    quadric_lattice,
    reflection_through,
)

EXPECTED_COUNTS = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}

CREMONA_N3 = ((2, 1, 1, 1), (-1, 0, -1, -1), (-1, -1, 0, -1), (-1, -1, -1, 0))


def dj_lattice_involution(d):
    """Involution of the (2d-1)-point blow-up lattice, basis
    (H, E_0, E_1, ..., E_{2d-2}), modeling a degree-d de Jonquieres pair
    with center E_0: sigma H = dH - (d-1)E_0 - sum E_i,
    sigma E_0 = (d-1)H - (d-2)E_0 - sum E_i and sigma E_i = H - E_0 - E_i.
    Fibres H - E_0 are preserved, each simple base point swaps with its
    residual fibre component."""
    n = 2 * d - 1
    cols = [(d, 1 - d) + (-1,) * (n - 1), (d - 1, 2 - d) + (-1,) * (n - 1)]
    for i in range(n - 1):
        v = [1, -1] + [0] * (n - 1)
        v[2 + i] -= 1
        cols.append(tuple(v))
    lat = make_lattice(n)
    return lat, LatticeInvolution(lat, tuple(zip(*cols)))


def dj3_conic_bundle_involution():
    """The degree-3 pair on the 5-point blow-up lattice: the center's class
    goes to the conic through all five points."""
    return dj_lattice_involution(3)


# -- lattices -----------------------------------------------------------------------

def test_make_lattice_k_squares():
    assert make_lattice(0).k_square() == 9
    assert make_lattice(7).k_square() == 2
    assert make_lattice(8).k_square() == 1
    assert quadric_lattice().k_square() == 8
    assert all(c % 2 == 0 for c in quadric_lattice().k)


def test_intersection_form_signature_convention():
    lat = make_lattice(3)
    h = (1, 0, 0, 0)
    e1 = (0, 1, 0, 0)
    assert lat.dot(h, h) == 1
    assert lat.dot(e1, e1) == -1
    assert lat.dot(h, e1) == 0
    assert lat.dot(lat.k, e1) == -1


# -- reflections ----------------------------------------------------------------------

def test_reflection_negates_alpha_and_fixes_orthogonal():
    lat = make_lattice(7)
    alpha = lat.k  # K^2 = 2
    m = reflection_through(lat, alpha)
    assert _mat_vec(m, alpha) == tuple(-v for v in alpha)
    # orthogonal vector: E_1 - E_2
    v = (0, 1, -1, 0, 0, 0, 0, 0)
    assert lat.dot(alpha, v) == 0
    assert _mat_vec(m, v) == v
    assert _mat_mul(m, m) == _identity(8)


def test_reflection_in_a_root_swaps_e1_and_e2():
    lat = make_lattice(3)
    alpha = (0, 1, -1, 0)  # E_1 - E_2, square -2
    m = reflection_through(lat, alpha)
    e1, e2 = (0, 1, 0, 0), (0, 0, 1, 0)
    assert _mat_vec(m, e1) == e2 and _mat_vec(m, e2) == e1
    assert _mat_vec(m, lat.k) == lat.k
    assert _mat_mul(m, m) == _identity(4)
    basis = _identity(4)
    assert all(lat.dot(_mat_vec(m, u), _mat_vec(m, v)) == lat.dot(u, v)
               for u in basis for v in basis)


def test_reflection_refuses_isotropic_and_nonintegral_alpha():
    lat = make_lattice(3)
    with pytest.raises(ValidationError, match="alpha.alpha = 0"):
        reflection_through(lat, (1, 1, 0, 0))        # square 0
    with pytest.raises(ValidationError, match="not integral"):
        reflection_through(lat, (0, 1, 1, 1))        # square -3


@pytest.mark.parametrize("n", [7, 8])
def test_anti_reflection_properties(n):
    lat = make_lattice(n)
    inv = anti_reflection_in_k(lat)   # constructor validates all identities
    assert fixed_rank(inv) == 1
    basis = [tuple(v) for v in kernel_basis(
        [[inv.matrix[i][j] - (i == j) for j in range(lat.rank)] for i in range(lat.rank)])]
    assert len(basis) == 1
    b = basis[0]
    # fixed sublattice is exactly the span of K
    assert any(b == tuple(s * v for v in lat.k) or lat.k == tuple(s * v for v in b)
               for s in (1, -1))
    assert _mat_vec(inv.matrix, lat.k) == lat.k


def test_anti_reflection_sends_exceptionals_to_exceptionals():
    lat = make_lattice(7)
    inv = anti_reflection_in_k(lat)
    cls = exceptional_classes(lat)
    e1 = (0, 1, 0, 0, 0, 0, 0, 0)
    img = _mat_vec(inv.matrix, e1)
    assert lat.dot(img, img) == -1 and lat.dot(img, lat.k) == -1
    assert sorted(_mat_vec(inv.matrix, e) for e in cls) == cls


def test_anti_reflection_needs_low_degree():
    with pytest.raises(ValidationError):
        anti_reflection_in_k(make_lattice(5))


# -- exceptional classes ------------------------------------------------------------

@pytest.mark.parametrize("n", list(range(1, 9)))
def test_exceptional_class_counts(n):
    lat = make_lattice(n)
    cls = exceptional_classes(lat)
    assert len(cls) == EXPECTED_COUNTS[n]
    for e in cls:
        assert lat.dot(e, e) == -1
        assert lat.dot(e, lat.k) == -1


@pytest.mark.parametrize("n", list(range(0, 9)))
def test_exceptional_classes_confirmed_by_widened_oracle(n):
    lat = make_lattice(n)
    assert exceptional_classes_bruteforce(lat) == exceptional_classes(lat)


@pytest.mark.parametrize("lat, reason", [(make_lattice(9), "unsupported rank"),
                                         (quadric_lattice(), "bad lattice")], ids=["n9", "quadric"])
def test_the_oracle_refuses_what_the_enumeration_refuses(lat, reason):
    refusals = []
    for enumerate_classes in (exceptional_classes, exceptional_classes_bruteforce):
        with pytest.raises(ValidationError) as err:
            enumerate_classes(lat)
        refusals.append((err.value.reason, str(err.value)))
    assert refusals[0] == refusals[1] and refusals[0][0] == reason


def test_small_cases_by_hand():
    lat1 = make_lattice(1)
    assert exceptional_classes(lat1) == [(0, 1)]
    lat3 = make_lattice(3)
    cls = exceptional_classes(lat3)
    # 3 points and 3 lines
    assert (0, 1, 0, 0) in cls and (1, -1, -1, 0) in cls
    assert len(cls) == 6


def test_exceptional_classes_unavailable_beyond_eight():
    with pytest.raises(ValidationError):
        exceptional_classes(make_lattice(9))
    with pytest.raises(ValidationError):
        exceptional_classes(quadric_lattice())


# -- minimality and classification ----------------------------------------------------

def test_geiser_bertini_pairs_minimal_and_labeled():
    for n, label in ((7, "(v)"), (8, "(vi)")):
        lat = make_lattice(n)
        inv = anti_reflection_in_k(lat)
        res = is_minimal(lat, inv)
        assert res.minimal
        assert classify_pair(lat, inv).label == label


def test_f1_identity_not_minimal():
    lat = make_lattice(1)
    ident = LatticeInvolution(lat, ((1, 0), (0, 1)))
    res = is_minimal(lat, ident)
    assert not res.minimal
    assert res.witness == (0, 1) and res.failure == "fixed"
    assert classify_pair(lat, ident).label == "non-minimal"


def test_quadratic_dj_model_not_minimal():
    lat = make_lattice(3)
    inv = LatticeInvolution(lat, CREMONA_N3)
    res = is_minimal(lat, inv)
    assert not res.minimal
    assert res.failure == "disjoint" and res.product == 0
    # the witness maps to a disjoint exceptional class
    assert lat.dot(res.witness, res.image) == 0
    assert classify_pair(lat, inv).label == "non-minimal"


def test_quadric_swap_is_case_iv():
    lat = quadric_lattice()
    inv = LatticeInvolution(lat, ((0, 1), (1, 0)))      # the factor swap
    assert fixed_rank(inv) == 1
    assert classify_pair(lat, inv).label == "(iv)"


def test_plane_is_case_iii():
    lat = make_lattice(0)
    inv = LatticeInvolution(lat, ((1,),))
    assert classify_pair(lat, inv).label == "(iii)"


def test_dj3_model_is_minimal_fibration():
    lat, inv = dj3_conic_bundle_involution()
    assert is_minimal(lat, inv).minimal
    cls = classify_pair(lat, inv)
    assert cls.label == "(i)/(ii) fibration"
    assert cls.fixed_rank == 2


def test_classification_stable_under_basis_permutation():
    lat, inv = dj3_conic_bundle_involution()
    base_label = classify_pair(lat, inv).label
    for perm in itertools.permutations(range(4)):
        # permute E_1..E_4 (indices 2..5)
        idx = [0, 1] + [2 + p for p in perm]
        p_mat = tuple(tuple(1 if j == idx[i] else 0 for j in range(6)) for i in range(6))
        p_inv = tuple(tuple(1 if i == idx[j] else 0 for j in range(6)) for i in range(6))
        conj = _mat_mul(p_mat, _mat_mul(inv.matrix, p_inv))
        inv2 = LatticeInvolution(lat, conj)
        assert classify_pair(lat, inv2).label == base_label


# -- is_minimal against the loop it replaced ----------------------------------------

def _loop_is_minimal(lat, inv):
    """The minimality loop with one matrix-vector product and one Gram
    double sum per class, as is_minimal had it before it formed G M."""
    if lat.kind == "quadric":
        return MinimalityResult(True)
    m, g = inv.matrix, lat.gram
    r = lat.rank

    def dot(u, v):
        return sum(u[i] * g[i][j] * v[j] for i in range(r) for j in range(r))

    for e in exceptional_classes(lat):
        me = tuple(sum(m[i][j] * e[j] for j in range(r)) for i in range(r))
        if me == e:
            return MinimalityResult(False, e, me, "fixed", dot(e, me))
        prod = dot(e, me)
        if prod <= 0:
            return MinimalityResult(False, e, me, "disjoint", prod)
    return MinimalityResult(True)


def _naive_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n))


def _root(n, i, j):
    """E_i - E_j, 1-based, on the blow-up lattice of n points."""
    v = [0] * (n + 1)
    v[i], v[j] = 1, -1
    return tuple(v)


def _involutions(lat):
    """The identity, reflections in the roots E_i - E_j and products of
    commuting ones, and where it is integral the anti-reflection in K and
    its products with four of those reflections; all conjugated by
    permutations of the E_i. At n = 0 and 1 only the identity fixes K."""
    n = lat.n
    refl = [reflection_through(lat, _root(n, i, j)) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    mats = [_identity(n + 1), *refl]
    prod = refl[0] if refl else None
    for a in range(3, n, 2):
        # E_1 - E_2, E_3 - E_4, ... have disjoint supports, so they commute
        prod = _naive_mul(prod, reflection_through(lat, _root(n, a, a + 1)))
        mats.append(prod)
    if lat.k_square() in (1, 2):
        anti = anti_reflection_in_k(lat).matrix
        mats.append(anti)
        mats += [_naive_mul(anti, r) for r in refl[:4]]
    rnd = random.Random(9907028 + n)
    perms = [list(range(n)), list(range(n))[::-1]] + [rnd.sample(range(n), n) for _ in range(2)]
    out = []
    for perm in perms:
        idx = [0] + [1 + p for p in perm]
        p_mat = tuple(tuple(1 if j == idx[i] else 0 for j in range(n + 1)) for i in range(n + 1))
        p_inv = tuple(zip(*p_mat))
        out += [LatticeInvolution(lat, _naive_mul(p_mat, _naive_mul(mat, p_inv))) for mat in mats]
    return out


def test_is_minimal_equals_the_loop_it_replaced():
    outcomes = set()
    for n in range(0, 9):
        lat = make_lattice(n)
        for inv in _involutions(lat):
            res = is_minimal(lat, inv)
            assert res == _loop_is_minimal(lat, inv), (n, inv.matrix)
            outcomes.add(res.failure)
    outcomes.add(is_minimal(*dj3_conic_bundle_involution()).failure)
    assert outcomes == {None, "fixed", "disjoint"}


def test_a_fixed_line_of_k_is_minimal_without_listing_the_classes(monkeypatch):
    """V+ = <K> gives E.(ME) = 1 + 2/K^2 on every class, so is_minimal lists
    no class for the anti-reflections at n = 7 and 8; a V+ of rank >= 2, as
    for the degree-3 conic bundle, still lists them."""
    from planecremona import picard
    calls = []

    def counted(lat):
        calls.append(lat.n)
        return exceptional_classes(lat)

    monkeypatch.setattr(picard, "exceptional_classes", counted)
    for n in (7, 8):
        lat = make_lattice(n)
        assert is_minimal(lat, anti_reflection_in_k(lat)) == MinimalityResult(True)
    assert calls == []
    lat, inv = dj3_conic_bundle_involution()
    assert fixed_rank(inv) >= 2
    assert is_minimal(lat, inv) == _loop_is_minimal(lat, inv)
    assert calls == [5]


def test_minimality_beyond_eight_points_is_refused_as_the_classes_are():
    # K^2 = 0 at n = 9: the refusal comes before any sum over V+
    lat = make_lattice(9)
    with pytest.raises(ValidationError) as err:
        is_minimal(lat, LatticeInvolution(lat, _identity(10)))
    assert (err.value.reason, str(err.value)) == ("unsupported rank", "n must be <= 8")


@pytest.mark.parametrize("d", [2, 3, 4])
def test_is_minimal_equals_the_loop_on_de_jonquieres_pairs(d):
    lat, inv = dj_lattice_involution(d)
    res = is_minimal(lat, inv)
    assert res == _loop_is_minimal(lat, inv)
    assert res.minimal == (d > 2)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_de_jonquieres_matrix_files_hold_the_model(d):
    lat, inv = dj_lattice_involution(d)
    path = Path(__file__).parent / "data" / f"lattice{lat.n}_dj{d}.txt"
    assert parse_matrix_file(str(path)) == inv.matrix


def _fixed_orthogonal_basis(lat, inv):
    """The basis is_minimal sums over: V+ = ker(M - I), Gram-Schmidt from K."""
    return _orthogonal_basis(lat, [lat.k, *inv.fixed_basis])


def _assert_orthogonal_fixed_basis(lat, inv, basis):
    assert basis[0] == tuple(-v for v in lat.k)
    for i, b in enumerate(basis):
        assert _mat_vec(inv.matrix, b) == b
        assert lat.dot(b, b) != 0
        assert all(lat.dot(b, c) == 0 for c in basis[:i])


def test_anti_reflection_reads_the_fixed_line_of_k():
    for n in (7, 8):
        lat = make_lattice(n)
        inv = anti_reflection_in_k(lat)
        basis = _fixed_orthogonal_basis(lat, inv)
        assert basis == [tuple(-v for v in lat.k)]
        _assert_orthogonal_fixed_basis(lat, inv, basis)


def test_root_reflection_reads_k_and_the_roots_orthogonal_part():
    for n in range(2, 9):
        lat = make_lattice(n)
        root = _root(n, 1, 2)
        inv = LatticeInvolution(lat, reflection_through(lat, root))
        basis = _fixed_orthogonal_basis(lat, inv)
        assert len(basis) == n
        _assert_orthogonal_fixed_basis(lat, inv, basis)
        assert all(lat.dot(b, root) == 0 for b in basis)


def test_identity_reads_the_whole_lattice_and_fails_fixed_first():
    for n in range(1, 9):
        lat = make_lattice(n)
        ident = LatticeInvolution(lat, _identity(n + 1))
        basis = _fixed_orthogonal_basis(lat, ident)
        assert len(basis) == n + 1
        _assert_orthogonal_fixed_basis(lat, ident, basis)
        first = exceptional_classes(lat)[0]
        assert is_minimal(lat, ident) == MinimalityResult(False, first, first, "fixed", -1)


def test_involution_validation_rejects_bad_matrices():
    lat = make_lattice(1)
    with pytest.raises(ValidationError, match="isometry|involution|K"):
        LatticeInvolution(lat, ((1, 0), (0, -1)))       # not fixing K
    with pytest.raises(ValidationError):
        LatticeInvolution(lat, ((1, 1), (0, 1)))        # not an isometry
    with pytest.raises(ValidationError):
        LatticeInvolution(make_lattice(2), ((1, 0), (0, 1)))  # wrong size
