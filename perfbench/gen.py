"""Seeded inputs for the benchmark, built without the package.

Everything here is plain integer and Fraction arithmetic, so a change to the
package's own validators or instance generators cannot change what is
measured. Polynomials are dicts {(i, j, k): coefficient} homogeneous in
(x, y, z); points are integer triples.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

# ---------------------------------------------------------------------------
# homogeneous polynomials
# ---------------------------------------------------------------------------


def monomials(deg):
    """Exponent triples of degree `deg`, largest first (the package's order)."""
    return sorted(((i, j, deg - i - j) for i in range(deg + 1) for j in range(deg + 1 - i)),
                  reverse=True)


def padd(f, g, c=1):
    out = dict(f)
    for e, v in g.items():
        s = out.get(e, 0) + c * v
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def pmul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def pscale(f, c):
    return {e: v * c for e, v in f.items()} if c else {}


def plinear(f, m):
    """f(m @ (x, y, z)) for an integer 3x3 matrix m."""
    lin = [{(1, 0, 0): m[i][0], (0, 1, 0): m[i][1], (0, 0, 1): m[i][2]} for i in range(3)]
    lin = [{e: c for e, c in l.items() if c} for l in lin]
    powers = []
    for i in range(3):
        top = max((e[i] for e in f), default=0)
        table = [{(0, 0, 0): 1}]
        for _ in range(top):
            table.append(pmul(table[-1], lin[i]))
        powers.append(table)
    out = {}
    for (i, j, k), c in f.items():
        out = padd(out, pmul(pmul(powers[0][i], powers[1][j]), powers[2][k]), c)
    return out


def peval(f, pt):
    a, b, c = pt
    return sum(v * a ** e[0] * b ** e[1] * c ** e[2] for e, v in f.items())


def pdiff(f, var):
    out = {}
    for e, c in f.items():
        if e[var]:
            ne = list(e)
            ne[var] -= 1
            out[tuple(ne)] = c * e[var]
    return out


def ptext(f):
    """Text in the CLI's polynomial grammar, terms largest first."""
    parts = []
    for e in sorted(f, reverse=True):
        c = f[e]
        mono = "*".join(v if n == 1 else f"{v}^{n}" for v, n in zip("xyz", e) if n)
        mag = abs(c)
        body = mono if (mag == 1 and mono) else (f"{mag}*{mono}" if mono else str(mag))
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return out + "".join(f" {s} {b}" for s, b in parts[1:])


def joint_primitive(comps):
    """Divide a triple by the content of all its coefficients; the first
    nonzero component's largest monomial gets a positive coefficient."""
    g = 0
    for f in comps:
        for c in f.values():
            g = gcd(g, c)
    first = next(f for f in comps if f)
    if first[max(first)] < 0:
        g = -g
    return [{e: c // g for e, c in f.items()} for f in comps]


# ---------------------------------------------------------------------------
# binary forms c[0] z^n + c[1] x z^(n-1) + ... + c[n] x^n, via f(x) = F(x, 1)
# ---------------------------------------------------------------------------


def _trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def ugcd(f, g):
    """Monic gcd of univariate polynomials (ascending coefficient lists)."""
    f, g = _trim(Fraction(c) for c in f), _trim(Fraction(c) for c in g)
    while g:
        while len(f) >= len(g):
            q = f[-1] / g[-1]
            shift = len(f) - len(g)
            for i, c in enumerate(g):
                f[shift + i] -= q * c
            f = _trim(f)
            if not f:
                break
        f, g = g, f
    return [c / f[-1] for c in f] if f else []


def bform_squarefree(c):
    """A nonzero binary form has no repeated projective root."""
    n = len(c) - 1
    f = _trim(c)
    if not f:
        return False
    if n - (len(f) - 1) > 1:       # root (1:0) of multiplicity >= 2
        return False
    deriv = [i * f[i] for i in range(1, len(f))]
    return len(f) <= 2 or len(ugcd(f, deriv)) == 1


def bform_coprime(forms):
    """The binary forms have no common projective root."""
    if all(f[-1] == 0 for f in forms):     # common root (1:0)
        return False
    g = None
    for f in forms:
        f = _trim(f)
        if not f:
            continue
        g = f if g is None else ugcd(g, f)
    return g is not None and len(g) == 1


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def rank(rows):
    m = [[Fraction(v) for v in r] for r in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                q = m[i][c] / m[r][c]
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def kernel(rows, ncols):
    """Basis of the right kernel of a rational matrix."""
    m = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                q = m[i][c]
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][free]
        basis.append(vec)
    return basis


def det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def adjugate3(m):
    return tuple(
        tuple(
            (m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
             - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3])
            for j in range(3))
        for i in range(3))


def _mono_value(e, p):
    return p[0] ** e[0] * p[1] ** e[1] * p[2] ** e[2]


def _partial_value(e, var, p):
    if not e[var]:
        return 0
    ne = list(e)
    ne[var] -= 1
    return e[var] * _mono_value(ne, p)


def linear_system(points, degree, singular=False):
    """Basis of the degree-`degree` forms through the points (singular there
    when asked), as polynomial dicts with integer coefficients."""
    monos = monomials(degree)
    if singular:
        rows = [[_partial_value(e, v, p) for e in monos] for p in points for v in range(3)]
    else:
        rows = [[_mono_value(e, p) for e in monos] for p in points]
    out = []
    for vec in kernel(rows, len(monos)):
        den = 1
        for c in vec:
            den = den * c.denominator // gcd(den, c.denominator)
        out.append({e: int(c * den) for e, c in zip(monos, vec) if c})
    return out


# ---------------------------------------------------------------------------
# configurations in general position (Bayle-Beauville, section 1)
# ---------------------------------------------------------------------------


def general_position(points):
    """No 3 collinear and no 6 on a conic; for 8 points also no cubic through
    all 8 that is singular at one of them."""
    if len(set(points)) != len(points):
        return False
    if any(det3(t) == 0 for t in combinations(points, 3)):
        return False
    conics = monomials(2)
    for six in combinations(points, 6):
        if rank([[_mono_value(e, p) for e in conics] for p in six]) < 6:
            return False
    if len(points) == 8:
        cubics = monomials(3)
        through = [[_mono_value(e, p) for e in cubics] for p in points]
        for p in points:
            sing = [[_partial_value(e, v, p) for e in cubics] for v in range(3)]
            if rank(through + sing) < 10:
                return False
    return True


def canonical_point(p):
    g = gcd(gcd(p[0], p[1]), p[2])
    p = tuple(v // g for v in p)
    return p if next(v for v in p if v) > 0 else tuple(-v for v in p)


def random_point(rnd, bound):
    while True:
        p = tuple(rnd.randint(-bound, bound) for _ in range(3))
        if p != (0, 0, 0):
            return canonical_point(p)


def point_config(rnd, n, bound=2):
    while True:
        pts = [random_point(rnd, bound) for _ in range(n)]
        if general_position(pts):
            return pts


def eval_points(rnd, count, avoid, bound=9):
    out = []
    while len(out) < count:
        p = random_point(rnd, bound)
        if p not in avoid:
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# de Jonquieres instances
# ---------------------------------------------------------------------------


def _xz_form(rnd, degree, bound):
    """Dense binary form in (x, z): every coefficient nonzero."""
    return [rnd.choice([c for c in range(-bound, bound + 1) if c]) for _ in range(degree + 1)]


def _form_poly(c):
    n = len(c) - 1
    return {(i, 0, n - i): v for i, v in enumerate(c) if v}


def _unimodular(rnd, center):
    """Integer matrix with determinant +-1 whose middle column is `center`."""
    while True:
        cols = [[rnd.randint(-2, 2) for _ in range(3)], list(center),
                [rnd.randint(-2, 2) for _ in range(3)]]
        m = tuple(tuple(cols[j][i] for j in range(3)) for i in range(3))
        if det3(m) in (1, -1) and all(cols[0]) and all(cols[2]):
            return m


def dj_instance(rnd, d, bound=3):
    """De Jonquieres data of degree d: C = A y^2 + B y + C_d in the frame where
    the center is (0:1:0), with A squarefree, gcd(A, B, C_d) = 1 and the
    discriminant B^2 - 4 A C_d squarefree of degree 2d - 2, moved to a center
    p by an integer frame. Returns curve, center and the closed-form map
    ( x(2Ay+B) : -(By+2C_d) : z(2Ay+B) ) in plane coordinates."""
    while True:
        a, b, c = _xz_form(rnd, d - 2, bound), _xz_form(rnd, d - 1, bound), _xz_form(rnd, d, bound)
        disc = [0] * (2 * d - 1)
        for i, u in enumerate(b):
            for j, v in enumerate(b):
                disc[i + j] += u * v
        for i, u in enumerate(a):
            for j, v in enumerate(c):
                disc[i + j] -= 4 * u * v
        if not (bform_squarefree(a) and bform_coprime([a, b, c]) and bform_squarefree(disc)):
            continue
        center = random_point(rnd, 2)
        minv = _unimodular(rnd, center)
        back = adjugate3(minv)       # proportional to the inverse frame
        A, B, C = _form_poly(a), _form_poly(b), _form_poly(c)
        y = {(0, 1, 0): 1}
        normal = padd(padd(pmul(A, pmul(y, y)), pmul(B, y)), C)
        curve = plinear(normal, back)
        u = padd(pscale(pmul(A, y), 2), B)
        inner = [pmul({(1, 0, 0): 1}, u), pscale(padd(pmul(B, y), C, 2), -1), pmul({(0, 0, 1): 1}, u)]
        inner = [plinear(f, back) for f in inner]
        outer = [padd(padd(pscale(inner[0], minv[i][0]), inner[1], minv[i][1]), inner[2], minv[i][2])
                 for i in range(3)]
        g = 0
        for cf in curve.values():
            g = gcd(g, cf)
        curve = {e: cf // g for e, cf in curve.items()}
        return curve, center, joint_primitive(outer)


def perturbed(sigma):
    """The same map with its first two components exchanged: a
    non-involution with the components, and so the content and gcd
    structure, of the original. (Adding a monomial instead made the gcd
    normalisation of the parsed map, big-integer work, cost up to 0.8 s; the
    other exchanges cost up to 1.5x more at d = 5.)"""
    return [sigma[1], sigma[0], sigma[2]]


def anti_reflection(n):
    """Matrix of v -> -v + 2 (v.K) / K^2 K on the blow-up lattice of the plane
    at n points (basis H, E_1..E_n, form diag(1, -1, ..., -1))."""
    k = [-3] + [1] * n
    form = [1] + [-1] * n
    k2 = 9 - n
    cols = []
    for j in range(n + 1):
        dot = form[j] * k[j]
        col = [(2 * dot * k[i]) // k2 - (1 if i == j else 0) for i in range(n + 1)]
        if any((2 * dot * k[i]) % k2 for i in range(n + 1)):
            raise ValueError("not integral")
        cols.append(col)
    return [[cols[j][i] for j in range(n + 1)] for i in range(n + 1)]
