"""Seeded property tests of the Geiser and Bertini evaluators on random point
sets in general position. Linear systems and general position are computed
here with plain Fraction elimination, apart from the package."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import lcm

from hypothesis import HealthCheck, Phase, assume, given, settings, strategies as st

from planecremona.errors import ExtractionError, ValidationError
from planecremona.exactpoly import HPoly
from planecremona.involutions import (
    BertiniInvolution, GeiserInvolution, _Cubic, make_point_config,
)
from planecremona.projmaps import ProjPoint, RationalMap
from tests.streams import evaluated_pairs
from tests.test_geiser_bertini import reference_sextics


def seeded(examples):
    """Fixed examples with no shrink phase: a failure is reported as drawn,
    since shrinking an exact evaluation can run for minutes."""
    return settings(max_examples=examples, deadline=None, derandomize=True, database=None,
                    phases=[p for p in Phase if p is not Phase.shrink],
                    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])


def monomials(degree):
    return [(i, j, degree - i - j) for i in range(degree + 1) for j in range(degree + 1 - i)]


def monomial_value(e, p):
    return p[0] ** e[0] * p[1] ** e[1] * p[2] ** e[2]


def partial_value(e, var, p):
    if not e[var]:
        return 0
    lower = list(e)
    lower[var] -= 1
    return e[var] * monomial_value(lower, p)


def echelon(rows):
    """Reduced row echelon form over the rationals: (rows, pivot columns)."""
    m = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                q = m[i][c]
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def rank(rows):
    return len(echelon(rows)[1])


def kernel(rows):
    m, pivots = echelon(rows)
    ncols = len(rows[0])
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, pc in zip(m, pivots):
            vec[pc] = -row[free]
        basis.append(vec)
    return basis


def general_position(points):
    """No 3 collinear, no 6 on a conic, and for 8 points no cubic through
    all of them singular at one."""
    if any(rank([list(p) for p in t]) < 3 for t in combinations(points, 3)):
        return False
    conics = monomials(2)
    if any(rank([[monomial_value(e, p) for e in conics] for p in six]) < 6
           for six in combinations(points, 6)):
        return False
    if len(points) == 8:
        cubics = monomials(3)
        through = [[monomial_value(e, p) for e in cubics] for p in points]
        for p in points:
            if rank(through + [[partial_value(e, v, p) for e in cubics] for v in range(3)]) < 10:
                return False
    return True


def linear_system(points):
    """Monomials and coefficient vectors of a basis of the cubics through 7
    points, or of the sextics singular at 8."""
    if len(points) == 7:
        monos = monomials(3)
        rows = [[monomial_value(e, p) for e in monos] for p in points]
    else:
        monos = monomials(6)
        rows = [[partial_value(e, v, p) for e in monos] for p in points for v in range(3)]
    return monos, kernel(rows)


def values(system, x):
    monos, basis = system
    return [sum(c * monomial_value(e, x) for c, e in zip(vec, monos)) for vec in basis]


coords = st.tuples(*[st.integers(-6, 6)] * 3).filter(any)


def point_sets(n):
    return st.lists(coords.map(lambda c: ProjPoint(*c)), min_size=n, max_size=n,
                    unique=True).filter(lambda pts: general_position([p.coords for p in pts]))


def check_involution(inv, pts, x):
    assume(x not in pts)
    y = inv.eval_detail(x)[0]
    assume(y not in pts)            # x on a curve contracted to a base point
    assert inv.eval_detail(y)[0] == x
    # y lies on every member of the linear system through x
    system = linear_system([p.coords for p in pts])
    assert rank([values(system, x.coords), values(system, y.coords)]) == 1


@seeded(20)
@given(pts=point_sets(7), x=coords.map(lambda c: ProjPoint(*c)))
def test_geiser_involutive_and_on_pencil(pts, x):
    inv = GeiserInvolution(make_point_config(pts, "geiser"))
    check_involution(inv, pts, x)


@seeded(5)
@given(pts=point_sets(8), x=coords.map(lambda c: ProjPoint(*c)))
def test_bertini_involutive_and_on_net(pts, x):
    inv = BertiniInvolution(make_point_config(pts, "bertini"))
    check_involution(inv, pts, x)


def sextic_values(space, q):
    """Values of the sextics at an integer triple, term by term: the
    sextic-basis evaluator that the Bertini evaluator's cubic factors
    replace."""
    return [sum(c * monomial_value(e, q) for e, c in g.terms.items()) for g in space]


def eval_by_sextics(inv, x):
    """The Bertini construction of eval_detail with every value of the space
    read off its sextics term by term, and c1(x), c2(x) off the pencil's own
    terms: (image, attempts), or None when no candidate is certified."""
    vx = sextic_values(inv.space, x.coords)
    c1, c2 = (_Cubic.from_hpoly(c) for c in inv.config.cubics)
    u1, u2 = sextic_values(inv.config.cubics, x.coords)
    f = _Cubic.combination((u2, -u1), (c1, c2)) if u1 or u2 else c1
    p9 = inv.ninth_point.coords
    o = f.third(p9, p9)
    y = o and f.third(x.coords, o)
    for attempts, q in enumerate((y, x.coords), start=1):
        if q is not None and inv.certifies(x.coords, vx, q, sextic_values(inv.space, q)):
            return ProjPoint(*q), attempts
    return None


@seeded(12)
@given(pts=point_sets(8), xs=st.lists(coords.map(lambda c: ProjPoint(*c)), min_size=6, max_size=6))
def test_bertini_values_from_the_cubic_factors_are_the_sextics(pts, xs):
    """The space's values through c1, c2, C_0, C_7 are the values of its
    sextics c1^2, c1 c2, c2^2, C_0 C_7, integer for integer: at random
    points, at their images (large coordinates), at the 8 base points and
    at p9. And eval_detail gives the image and attempts of the same
    construction certified on the values of the kernel's basis."""
    inv = BertiniInvolution(make_point_config(pts, "bertini"))
    # the same configuration with |-2K| in the basis of the 24 x 28 kernel
    reference = BertiniInvolution(inv.config._replace(system=tuple(reference_sextics(pts))))
    targets = [x.coords for x in xs] + [p.coords for p in pts] + [inv.ninth_point.coords]
    for x in xs:
        if x in pts:
            continue
        expected = eval_by_sextics(reference, x)
        try:
            image, trace = inv.eval_detail(x)
        except ExtractionError:
            assert expected is None, x
            continue
        assert (image, trace.attempts) == expected, x
        targets.append(image.coords)
    for q in targets:
        assert inv._at(q) == sextic_values(inv.space, q) == [g.eval(q) for g in inv.space], q


def pencil_through(inv, x):
    """Two HPoly members spanning the pencil of net cubics through x."""
    vx = [g.eval(x.coords) for g in inv.space]
    return [sum((g * c for c, g in zip(vec, inv.space) if c), HPoly.zero(3)).canonical()
            for vec in kernel([vx])]


def pencil_certificate(f, h, base, x, y):
    """The ninth-base-point certificate in pencil form, the reference for
    the net-value form: f(y) = h(y) = 0, and where y is x or a base point,
    grad f and grad h are parallel there."""
    q = y.coords
    if f.eval(q) or h.eval(q):
        return False
    grads = [[g.partial(v).eval(q) for v in range(3)] for g in (f, h)]
    return not ((y == x or y in base) and rank(grads) == 2)


def net_certificate(inv, x, y, scale=1):
    """The shared certificate (certifies) on the net's values at x and at
    y, the latter given as the triple of y times scale."""
    q = [scale * v for v in y.coords]
    return inv.certifies(x.coords, [g.eval(x.coords) for g in inv.space], q,
                         [g.eval(q) for g in inv.space])


@seeded(20)
@given(pts=point_sets(7), x=coords.map(lambda c: ProjPoint(*c)))
def test_ninth_base_point_certificate(pts, x):
    """The certificate accepts the evaluator's image and refuses x, the base
    points and a point of one member only."""
    assume(x not in pts)
    inv = GeiserInvolution(make_point_config(pts, "geiser"))
    y = inv.eval_detail(x)[0]
    assert net_certificate(inv, x, y)
    if inv.fixed_sextic.eval(x.coords):
        # off the fixed sextic x is a simple base point of its pencil
        assert not net_certificate(inv, x, x)
    if y not in pts:
        # and so is every one of the seven points
        assert not any(net_certificate(inv, x, p) for p in pts)
    f, h = (_Cubic.from_hpoly(g) for g in pencil_through(inv, x))
    r = f.third(pts[0].coords, pts[1].coords)
    assume(r is not None)
    assert f.value(r) == 0
    assume(h.value(r))
    assert not net_certificate(inv, x, ProjPoint(*r))


def on_sextic(pts6, x, d):
    """A seventh point p7 such that x lies on the Jacobian sextic of the net
    through pts6 and p7, or None: the cubic C through pts6 singular at x is
    a member of that net when p7 lies on C, and p7 = C(d) x - A d is the third
    point of C on the line from x towards d, with A the second-order term of
    C(x + t d)."""
    monos = monomials(3)
    rows = [[monomial_value(e, p) for e in monos] for p in pts6]
    rows += [[partial_value(e, v, x) for e in monos] for v in range(3)]
    basis = kernel(rows)
    if len(basis) != 1:
        return None
    cubic = HPoly(3, {e: c for e, c in zip(monos, basis[0]) if c})
    a = cubic.eval(tuple(u + v for u, v in zip(x, d))) - cubic.eval(d)
    p7 = [cubic.eval(d) * u - a * v for u, v in zip(x, d)]
    return ProjPoint(*p7) if any(p7) else None


@st.composite
def pencil_cases(draw):
    """A 7-point set and a point x off it; for half of the cases x lies on
    the Jacobian sextic, by on_sextic."""
    small = coords.map(lambda c: ProjPoint(*c))
    if not draw(st.booleans()):
        return draw(point_sets(7)), draw(small)
    pts6 = draw(st.lists(small, min_size=6, max_size=6, unique=True))
    x, d = draw(small), draw(coords)
    assume(x not in pts6)
    p7 = on_sextic([p.coords for p in pts6], x.coords, d)
    assume(p7 is not None and p7 not in pts6 and p7 != x)
    pts = pts6 + [p7]
    assume(general_position([p.coords for p in pts]))
    return pts, x


@seeded(25)
@given(case=pencil_cases())
def test_net_certificate_agrees_with_the_pencil_form(case):
    """On the evaluator's image, x, the seven points and the third points of
    chords on two members, the net-value certificate gives the pencil
    form's answer, also on a multiple of the triple."""
    pts, x = case
    assume(x not in pts)
    inv = GeiserInvolution(make_point_config(pts, "geiser"))
    f, h = pencil_through(inv, x)
    y = inv.eval_detail(x)[0]
    if not inv.fixed_sextic.eval(x.coords):
        assert y == x
    thirds = [m.third(p.coords, q.coords) for m in map(_Cubic.from_hpoly, (f, h))
              for p, q in zip(pts + [x], pts[1:] + [x, pts[0]])]
    candidates = [y, x, *pts, *(ProjPoint(*r) for r in thirds if r is not None)]
    for q in candidates:
        expected = pencil_certificate(f, h, pts, x, q)
        assert net_certificate(inv, x, q) == expected == net_certificate(inv, x, q, -3), q
    assert pencil_certificate(f, h, pts, x, y)


def derivative_value(e, orders, p):
    """The partial derivative of the monomial e along the variables in
    orders, at p."""
    e = list(e)
    factor = 1
    for v in orders:
        factor *= e[v]
        e[v] -= 1
    return factor and factor * monomial_value(e, p)


def contracted_curve(points, a):
    """Monomials and coefficients of the member of |-mK|, m = n - 6, with
    multiplicity m + 1 at points[a]: the cubic C_a through the 7 points
    singular at p_a, or the sextic S_a singular at the 8 and triple at p_a."""
    m = len(points) - 6
    monos = monomials(3 * m)
    rows = [[derivative_value(e, orders, p) for e in monos]
            for i, p in enumerate(points)
            for orders in combinations_with_replacement(range(3), m if i == a else m - 1)]
    (vec,) = kernel(rows)
    return monos, vec


def contracted_point(points, a, q):
    """The point other than p_a and q where the line from p_a to q meets
    the member of contracted_curve(points, a), or None. That member has
    multiplicity m + 1 at p_a; with q a point off it (Geiser) or another
    base point (Bertini), f(p_a + t q) = t^(m+1) (c + c' t) once its terms
    beyond t^(m+2) vanish."""
    m = len(points) - 6
    p = points[a]
    coeffs = [Fraction(0)] * (3 * m + 1)
    for e, c in zip(*contracted_curve(points, a)):
        poly = [c]
        for i in range(3):
            for _ in range(e[i]):
                poly = [p[i] * u + q[i] * w for u, w in zip(poly + [0], [0] + poly)]
        coeffs = [u + w for u, w in zip(coeffs, poly)]
    assert not any(coeffs[:m + 1])
    if any(coeffs[m + 3:]):
        return None
    r = [coeffs[m + 2] * u - coeffs[m + 1] * w for u, w in zip(p, q)]
    den = lcm(*(v.denominator for v in r))
    return ProjPoint(*(int(v * den) for v in r)) if any(r) else None


def involution(pts):
    n = len(pts)
    kind, cls = ("geiser", GeiserInvolution) if n == 7 else ("bertini", BertiniInvolution)
    return cls(make_point_config(pts, kind))


@seeded(12)
@given(case=st.sampled_from((7, 8)).flatmap(
    lambda n: st.tuples(point_sets(n), st.integers(0, n - 1), coords)))
def test_certificate_on_the_contracted_curves(case):
    """For x on the curve contracted to p_a (C_a or S_a), the certificate
    takes p_a, also as a multiple of its triple, and refuses every other
    base point, and the evaluator returns p_a. Off the fixed curve it also
    refuses x itself."""
    pts, a, d = case
    base = [p.coords for p in pts]
    x = contracted_point(base, a, d if len(pts) == 7 else base[a - 1])
    assume(x is not None and x not in pts)
    inv = involution(pts)
    vx = [g.eval(x.coords) for g in inv.space]
    for b, p in enumerate(base):
        for q in (p, [-2 * v for v in p]):
            assert inv.certifies(x.coords, vx, q, [g.eval(q) for g in inv.space]) == (b == a), (b, q)
    assert inv.eval_detail(x)[0] == pts[a]
    if inv.fixed_curve.eval(x.coords):
        assert not inv.certifies(x.coords, vx, x.coords, vx)


@seeded(5)
@given(pts=point_sets(8))
def test_ninth_point_is_the_ninth_base_point_of_the_cubic_pencil(pts):
    p9 = BertiniInvolution(make_point_config(pts, "bertini")).ninth_point
    monos = monomials(3)
    pencil = kernel([[monomial_value(e, p.coords) for e in monos] for p in pts])
    assert len(pencil) == 2
    assert values((monos, pencil), p9.coords) == [0, 0]
    assert p9 not in pts


@seeded(3)
@given(pts=point_sets(7), seed=st.integers(0, 2**32))
def test_fit_check_refuses_a_wrong_map(pts, seed):
    inv = GeiserInvolution(make_point_config(pts, "geiser"))
    sigma = inv.interpolated_map
    inv.certify_map(sigma, evaluated_pairs(inv, seed))
    f1, f2, f3 = sigma.components
    try:
        inv.certify_map(RationalMap(f2, f1, f3), evaluated_pairs(inv, seed))
    except ValidationError as exc:
        assert exc.reason == "interpolation failed"
    else:
        raise AssertionError("a map with two components exchanged passed the fit check")


def planted_sets():
    """7 or 8 small points: random, with 6 planted on the conic xz = y^2, or
    (8 points) with 7 planted on the cubic y^2 z = x^3 + x^2 z and its node."""
    small = st.tuples(*[st.integers(-6, 6)] * 3).filter(any)
    params = st.lists(st.integers(-9, 9), min_size=7, max_size=7, unique=True)
    conic = params.map(lambda ts: [(t * t, t, 1) for t in ts[:6]])
    cubic = params.filter(lambda ts: 1 not in ts and -1 not in ts).map(
        lambda ts: [(0, 0, 1)] + [(t * t - 1, t * (t * t - 1), 1) for t in ts])
    return st.sampled_from((7, 8)).flatmap(lambda n: st.tuples(
        st.just(n), st.one_of(st.just([]), conic, cubic if n == 8 else conic),
        st.lists(small, min_size=n, max_size=n, unique_by=lambda c: ProjPoint(*c))))


@seeded(150)
@given(case=planted_sets())
def test_gate_accepts_exactly_the_sets_in_general_position(case):
    n, planted, rest = case
    pts = [ProjPoint(*c) for c in (planted + rest)[:n]]
    assume(len(set(pts)) == n)
    try:
        make_point_config(pts, "geiser" if n == 7 else "bertini")
        accepted = True
    except ValidationError as exc:
        assert exc.reason == "degenerate configuration"
        accepted = False
    assert accepted == general_position([p.coords for p in pts])
