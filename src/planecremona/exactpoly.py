"""Exact arithmetic substrate.

Rationals (stdlib Fraction), homogeneous polynomials in x, y, z (one type,
HPoly; binary forms are HPoly in (x, z)), gcds (restrict to lines, prove
coprime by one gcd of values, else interpolate and certify by division),
Sylvester resultants, fraction-free kernel computation and the linear
conditions for multiplicity at points (multiplicity_conditions,
multiplicity_values). Those read one cached table
per (degree, order) of the partial derivatives of that order, a falling
factorial and a target monomial for each monomial, and one table of powers
of each point's coordinates. Everything is exact; nothing here ever rounds. All
values are immutable after construction and all operations are pure
functions, so they can be shared freely between workers.

Conventions fixed once for the whole package:

* monomial order: graded lexicographic with x > y > z (for homogeneous
  polynomials this is lex on the exponent triples, largest first);
* one normal form, primitive(): denominators cleared, content divided
  out, first nonzero entry positive (the primitive part of von zur
  Gathen-Gerhard, Modern Computer Algebra, ch. 6), its scale read off one
  gcd (primitive_scale). A form's canonical() is primitive over its
  coefficients in the monomial order, with no sort; points, the joint
  scaling of a map's components, kernel vectors and rational roots are
  primitive vectors;
* coefficients are stored as int when the denominator is 1, else Fraction.

Only outside input is validated. HPoly(degree, terms) checks every exponent
triple and drops zero coefficients; the ring operations, partial,
coeffs_by_var, canonical, divexact, substitute and shear_sum (the kernel of
HPoly.shear) build their results with the trusted HPoly._make, whose caller
guarantees that the terms are homogeneous of the degree with nonzero
coefficients. _make normalises only coefficients that are not int, so a
Fraction with denominator 1 becomes an int and every HPoly, however built,
satisfies the convention above.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, count, repeat
from math import gcd as igcd, isqrt, lcm, perm
from operator import lshift, mul

from .errors import ValidationError

NVARS = 3
VAR_NAMES = ("x", "y", "z")


def _norm_coeff(c):
    """An int as it is; anything else converted exactly to a Fraction, and
    to an int when its denominator is 1 (faster arithmetic)."""
    if type(c) is int:
        return c
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def primitive(values) -> list:
    """The normal form of a vector of rationals up to a nonzero scalar:
    coprime integers whose first nonzero entry is positive. The zero vector
    is returned as zeros."""
    values = list(values)
    for lead in values:
        if lead:
            den, g = primitive_scale(values, lead)
            # divided even by 1: gcd takes bools too, and the entries must be plain ints
            return [v // g for v in values] if den == 1 else [v * den // g for v in values]
    return [0] * len(values)


def primitive_scale(values, lead) -> tuple:
    """(den, g) with v * den // g the entries of primitive(values), for a
    nonzero vector of ints and Fractions whose first nonzero entry is lead:
    den the lcm of the denominators, g the gcd of the values times den,
    signed as lead. The values are read twice."""
    try:
        den, g = 1, igcd(*values)
    except TypeError:                         # a Fraction
        den = lcm(*(v.denominator for v in values))
        g = igcd(*(v.numerator * (den // v.denominator) for v in values))
    return den, g if lead > 0 else -g


# ---------------------------------------------------------------------------
# homogeneous polynomials in x, y, z
# ---------------------------------------------------------------------------

class HPoly:
    """Homogeneous polynomial in (x, y, z) with exact rational coefficients.

    `terms` maps exponent triples (i, j, k) with i + j + k == degree to
    nonzero coefficients. The zero polynomial keeps its degree tag and an
    empty term map.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: dict | None = None):
        if degree < 0:
            raise ValidationError("bad degree", "degree must be >= 0")
        clean = {}
        if terms:
            for exps, c in terms.items():
                c = _norm_coeff(c)
                if c == 0:
                    continue
                if len(exps) != 3 or any(e < 0 for e in exps) or sum(exps) != degree:
                    raise ValidationError(
                        "inhomogeneous",
                        f"exponent triple {exps} does not sum to degree {degree}",
                    )
                clean[exps] = c
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *args):
        raise AttributeError("HPoly is immutable")

    @classmethod
    def _make(cls, degree: int, terms: dict) -> "HPoly":
        """Trusted constructor for arithmetic results, taking ownership of
        `terms`: the caller guarantees that every exponent triple sums to
        `degree` and that no coefficient is zero."""
        for e, c in terms.items():
            if type(c) is not int:
                terms[e] = _norm_coeff(c)
        self = object.__new__(cls)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", terms)
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, degree: int = 0) -> "HPoly":
        return cls(degree, {})

    @classmethod
    def constant(cls, c) -> "HPoly":
        return cls(0, {(0, 0, 0): c})

    @classmethod
    def variable(cls, index: int) -> "HPoly":
        exps = [0, 0, 0]
        exps[index] = 1
        return cls(1, {tuple(exps): 1})

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        """Terms in the global order (exponent triples descending lex)."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def max_exponent(self, var: int) -> int:
        """Largest exponent of one variable over all terms (0 for the zero poly)."""
        return max((e[var] for e in self.terms), default=0)

    def uses_var(self, var: int) -> bool:
        return any(e[var] > 0 for e in self.terms)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "HPoly") -> "HPoly":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValidationError("inhomogeneous", "degree mismatch in +")
        res = dict(self.terms)
        for e, c in other.terms.items():
            s = res.get(e, 0) + c
            if s == 0:
                res.pop(e, None)
            else:
                res[e] = s
        return HPoly._make(self.degree, res)

    def __neg__(self) -> "HPoly":
        return HPoly._make(self.degree, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "HPoly") -> "HPoly":
        return self + (-other)

    def __mul__(self, other) -> "HPoly":
        if not isinstance(other, HPoly):
            c = _norm_coeff(other)
            if c == 0:
                return HPoly.zero(self.degree)
            return HPoly._make(self.degree, {e: cc * c for e, cc in self.terms.items()})
        # monomials(d) lists x^i y^j z^k by i descending, then j descending,
        # so by s = j + k ascending and, within one s, by k ascending: the
        # s(s + 1)/2 monomials with j + k < s come first, and x^i y^j z^k
        # sits at s(s + 1)/2 + k. A product of terms adds the exponents, so
        # with s = s1 + s2 its index is s1(s1 + 1)/2 + k1 + s2(s2 + 1)/2 + k2
        # + s1 s2: the indices of the two factors plus s1 s2.
        degree = self.degree + other.degree
        acc = [0] * ((degree + 1) * (degree + 2) // 2)
        right = [((j + k) * (j + k + 1) // 2 + k, j + k, c) for (_, j, k), c in other.terms.items()]
        for (_, j, k), c1 in self.terms.items():
            s1 = j + k
            base = s1 * (s1 + 1) // 2 + k
            for i2, s2, c2 in right:
                acc[base + i2 + s1 * s2] += c1 * c2
        return HPoly._make(degree, {e: c for e, c in zip(monomials(degree), acc) if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "HPoly":
        if n < 0:
            raise ValueError("negative power")
        result = HPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, HPoly):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- evaluation and calculus ----------------------------------------------

    def eval(self, pt):
        """Value at a point: an int on integer data, else the exact Fraction."""
        return values_at((self,), pt)[0]

    def partial(self, var: int) -> "HPoly":
        """Formal partial derivative with respect to x, y or z."""
        deg = max(self.degree - 1, 0)
        res = {}
        for e, c in self.terms.items():
            if e[var] == 0:
                continue
            ne = list(e)
            ne[var] -= 1
            res[tuple(ne)] = c * e[var]
        return HPoly._make(deg, res)

    def substitute(self, comps) -> "HPoly":
        """Substitute a triple of equal-degree polynomials for (x, y, z)."""
        g1, g2, g3 = comps
        sub_deg = g1.degree
        if g2.degree != sub_deg or g3.degree != sub_deg:
            raise ValidationError("inhomogeneous", "substitution components differ in degree")
        d = self.degree
        pow1 = _power_table(g1, self.max_exponent(0))
        pow2 = _power_table(g2, self.max_exponent(1))
        pow3 = _power_table(g3, self.max_exponent(2))
        acc: dict = {}
        for (i, j, k), c in self.terms.items():
            tail = pow3[k].terms.items()
            head = pow2[j] if not i else pow1[i] if not j else pow1[i] * pow2[j]
            for (i1, j1, k1), c1 in head.terms.items():
                c1 *= c
                for (i2, j2, k2), c2 in tail:
                    e = (i1 + i2, j1 + j2, k1 + k2)
                    acc[e] = acc.get(e, 0) + c1 * c2
        return HPoly._make(d * sub_deg, {e: c for e, c in acc.items() if c})

    def shear(self, m, axis: int) -> "HPoly":
        """f(m x), the linear forms of m's rows substituted for the variables,
        for a matrix whose columns other than `axis` are distinct unit
        vectors, as the frames of frame_moving_to_center are: shear_sum of
        the one form."""
        return shear_sum(self.degree, (self,), (1,), m, axis)

    def coeffs_by_var(self, var: int):
        """Coefficient list [c_0, ..., c_m] with f = sum c_k * var^k.

        The c_k are HPoly in the other two variables (var-exponent zero),
        of degree self.degree - k; m is the actual degree in `var`.
        """
        m = self.max_exponent(var)
        buckets: list[dict] = [dict() for _ in range(m + 1)]
        for e, c in self.terms.items():
            ne = list(e)
            k = ne[var]
            ne[var] = 0
            buckets[k][tuple(ne)] = c
        return [HPoly._make(self.degree - k, b) for k, b in enumerate(buckets)]

    # -- canonical form --------------------------------------------------------

    def canonical(self) -> "HPoly":
        """primitive over the coefficients in the monomial order, read with
        no sort: the scale is primitive_scale of the coefficients, its sign
        that of the term first in the order, the largest exponent triple.
        The form itself when the scale is 1 (an HPoly is immutable). Term
        order never reaches an output: format_hpoly sorts, and == and hash
        ignore it."""
        terms = self.terms
        if not terms:
            return self
        den, g = primitive_scale(terms.values(), terms[max(terms)])
        return self if den == g == 1 else self._rescaled(den, g)

    def _rescaled(self, den: int, g: int) -> "HPoly":
        """The form times den / g, for a scale from primitive_scale."""
        return HPoly._make(self.degree, {e: c * den // g for e, c in self.terms.items()})

    def divexact(self, d: "HPoly") -> "HPoly":
        """Exact division; raises if d does not divide self."""
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return HPoly.zero(max(self.degree - d.degree, 0))
        rem = dict(self.terms)
        dlead = max(d.terms)
        dlc = d.terms[dlead]
        qdeg = self.degree - d.degree
        if qdeg < 0:
            raise ValidationError("not divisible", "degree too small")
        q: dict = {}
        while rem:
            rlead = max(rem)
            qe = tuple(rlead[i] - dlead[i] for i in range(3))
            if any(e < 0 for e in qe):
                raise ValidationError("not divisible", "leading monomial not divisible")
            qc = Fraction(rem[rlead]) / Fraction(dlc)
            q[qe] = qc
            for e, c in d.terms.items():
                t = (e[0] + qe[0], e[1] + qe[1], e[2] + qe[2])
                s = rem.get(t, 0) - qc * c
                if s == 0:
                    rem.pop(t, None)
                else:
                    rem[t] = s
        return HPoly._make(qdeg, q)

    def __str__(self) -> str:
        return format_hpoly(self)

    def __repr__(self) -> str:
        return f"HPoly({format_hpoly(self)})"


def _power_table(g: HPoly, top: int):
    """[1, g, g^2, ..., g^top], with no product by the constant 1."""
    table = [HPoly.constant(1), g][:top + 1]
    for _ in range(top - 1):
        table.append(table[-1] * g)
    return table


def shear_sum(d: int, forms, weights, m, axis: int) -> HPoly:
    """sum_i w_i f_i(m x), for forms f_i of degree d (a zero form may carry
    any degree), weights w_i and a matrix m whose columns other than `axis`
    are distinct unit vectors (HPoly.shear).

    With column j = e_k for j != axis and r the row left over, f(m x)
    renames x_k to x_j and scales x_r to m[r][axis] x_axis, then moves
    each x_j to x_j + m[k][axis] x_axis: one Taylor shift along x_axis
    per binary slice (_taylor_shift), O(d^3) products in all, with no
    power table and no product of forms. The shear is linear, so the sum
    is moved as one grid, filled from every form's terms.
    """
    j0, j1 = (j for j in range(3) if j != axis)
    k0, k1 = (next(i for i in range(3) if m[i][j]) for j in (j0, j1))
    r = 3 - k0 - k1
    s, t0, t1 = m[r][axis], m[k0][axis], m[k1][axis]
    # grid[n1][n0]: the coefficient of x_j0^n0 x_j1^n1 x_axis^(d - n0 - n1)
    grid = [[0] * (d + 1 - n1) for n1 in range(d + 1)]
    for f, w in zip(forms, weights):
        for e, c in f.terms.items() if w else ():
            grid[e[k1]][e[k0]] += c * w * s ** e[r]
    if t0:
        for row in grid:
            _taylor_shift(row, t0)
    terms = {}
    for n0 in range(d + 1):
        col = [grid[n1][n0] for n1 in range(d + 1 - n0)]
        if t1:
            _taylor_shift(col, t1)
        for n1, c in enumerate(col):
            if c:
                e = [d - n0 - n1] * 3
                e[j0], e[j1] = n0, n1
                terms[tuple(e)] = c
    return HPoly._make(d, terms)


def _taylor_shift(c: list, t) -> None:
    """In place, the coefficients of sum c[k] (w + t)^k from those of
    sum c[k] w^k, by Horner's scheme: n (n + 1) / 2 multiply-adds for n + 1
    coefficients (von zur Gathen-Gerhard, "Fast algorithms for Taylor shifts
    and certain difference equations", ISSAC 1997)."""
    n = len(c) - 1
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            if c[k + 1]:
                c[k] += t * c[k + 1]


class Evaluator:
    """The values of a fixed family of forms at any point.

    Each form is held as its coefficient row over the family's support, the
    monomials that occur in some form. A point costs one list of monomial
    values, from one table of powers of each coordinate, then one dot
    product per form. Integer forms at an integer point give ints; a
    Fraction anywhere gives the exact Fraction, except that a form whose
    terms are all ints at the point (the zero form, say) gives an int, as a
    term-by-term sum does.
    """

    __slots__ = ("top", "support", "rows")

    def __init__(self, forms):
        support, top = {}, 0
        for f in forms:
            support.update(f.terms)
            if f.degree > top:
                top = f.degree
        self.top = top
        keys = self.support = tuple(support)
        # a form whose monomials are the support in its order (a lone form,
        # say) has its values as its row
        self.rows = [list(f.terms.values()) if tuple(f.terms) == keys
                     else list(map(f.terms.get, keys, repeat(0))) for f in forms]

    def __call__(self, pt) -> list:
        mv = _monomial_values(pt, self.top, self.support)
        a, b, c = pt
        if type(a) is int and type(b) is int and type(c) is int:
            return [sum(map(mul, row, mv)) for row in self.rows]
        # a zero entry times a Fraction is a Fraction: sum the form's own terms
        return [sum(u * v for u, v in zip(row, mv) if u) for row in self.rows]


def _monomial_values(pt, top: int, exps) -> list:
    """Values at a point of the monomials with the exponent triples exps,
    none above top in a variable, from one table of powers per coordinate."""
    a, b, c = pt
    pa, pb, pc = [1], [1], [1]
    for _ in range(top):
        pa.append(pa[-1] * a)
        pb.append(pb[-1] * b)
        pc.append(pc[-1] * c)
    return [pa[i] * pb[j] * pc[k] for i, j, k in exps]


def values_at(forms, pt) -> list:
    """Values of several forms at one point (Evaluator), for a one-off call;
    evaluate a family at many points through one Evaluator."""
    return Evaluator(forms)(pt)


@cache
def monomials(degree: int) -> tuple:
    """Exponent triples of the given degree, in the global order (descending
    lex), built once per degree."""
    return tuple((i, j, degree - i - j) for i in range(degree, -1, -1) for j in range(degree - i, -1, -1))


@cache
def _partial_table(degree: int, order: int) -> tuple:
    """The partial derivatives of the order on forms of the degree: for each
    d^alpha, in the order of combinations_with_replacement, one pair per
    monomial x^e of monomials(degree), the falling factorial e!/(e - alpha)!
    and the index of x^(e - alpha) in monomials(degree - order); (0, 0)
    where alpha exceeds e, so every pair of an order above the degree."""
    target = {e: k for k, e in enumerate(monomials(degree - order))}
    table = []
    for var in combinations_with_replacement(range(3), order):
        i, j, k = (var.count(v) for v in range(3))
        table.append(tuple((perm(a, i) * perm(b, j) * perm(c, k), target[a - i, b - j, c - k])
                           if a >= i and b >= j and c >= k else (0, 0) for a, b, c in monomials(degree)))
    return tuple(table)


def multiplicity_conditions(points, degree: int, mults) -> list:
    """Linear conditions on the forms of the given degree to have
    multiplicity >= m at each point, a coordinate triple: one row per
    partial derivative of order m - 1 at the point, over monomials(degree),
    taken in the order of combinations_with_replacement (lower orders follow
    by Euler). Each entry is a factor of the one partial-derivative table of
    (degree, m - 1) times a monomial value from the point's one power
    table."""
    rows = []
    for pt, m in zip(points, mults):
        low = degree - m + 1
        mv = _monomial_values(pt, low, monomials(low))
        rows.extend([f and f * mv[k] for f, k in pairs] for pairs in _partial_table(degree, m - 1))
    return rows


def partial_rows(f: HPoly, order: int) -> list:
    """Coefficient rows over monomials(f.degree - order) of the partial
    derivatives of f of the order, in the order of
    combinations_with_replacement, read off the partial-derivative table."""
    low = f.degree - order
    size = (low + 1) * (low + 2) // 2 if low >= 0 else 0
    coeffs = [f.terms.get(e, 0) for e in monomials(f.degree)]
    rows = []
    for pairs in _partial_table(f.degree, order):
        row = [0] * size
        for (factor, k), c in zip(pairs, coeffs):
            if factor and c:
                row[k] = factor * c
        rows.append(row)
    return rows


def multiplicity_values(forms, points, mults) -> list:
    """The rows of multiplicity_conditions applied to forms of one degree:
    entry [r][i] is condition r evaluated on form i, the partial derivative
    of that row at its point. All vanish exactly when every form has
    multiplicity >= m at each point. The forms' partial_rows are built once
    per multiplicity; each point then costs one power table and one dot
    product per row and form, and the condition rows are never built."""
    degree = forms[0].degree
    partials, out = {}, []
    for pt, m in zip(points, mults):
        if m not in partials:
            partials[m] = list(zip(*(partial_rows(f, m - 1) for f in forms)))
        low = degree - m + 1
        mv = _monomial_values(pt, low, monomials(low))
        out.extend([sum(map(mul, row, mv)) for row in rows] for rows in partials[m])
    return out


def first_below_multiplicity(forms, points, m: int):
    """Index of the first point, an integer triple, at which some of the
    forms of one degree has multiplicity < m, or None.

    Forms with a Fraction coefficient are made integral first (primitive):
    a nonzero scalar does not change multiplicity. The partial derivatives
    of order m - 1 (partial_rows) are then read at all the points at once,
    by Kronecker substitution along the points: the values v_n[k] of the
    monomial k of degree e = degree - m + 1 at the points n are packed as
    the signed digits of one integer P_k = sum_n v_n[k] 2^(B n), so that
    one dot product of a partial's row r with P is sum_n (r . v_n) 2^(B n),
    the row's values at every point as digits. Each digit is at most
    max|r| sum_k max_n |v_n[k]| <= max|r| (s_x + s_y + s_z)^e in size, s_v
    the largest size of the coordinate v at the points, and B is chosen so
    that 2^(B - 1) exceeds that bound over all rows. A sum of signed digits
    all below 2^(B - 1) in size is 0 exactly when every digit is, since the
    top nonzero digit outweighs all lower ones together. Only when some
    packed sum is nonzero are the points read one at a time, to name the
    first."""
    forms = [f if all(type(c) is int for c in f.terms.values())
             else HPoly._make(f.degree, dict(zip(f.terms, primitive(f.terms.values())))) for f in forms]
    low = forms[0].degree - m + 1
    rows = [row for f in forms for row in partial_rows(f, m - 1)]
    n = len(points)
    coords = list(zip(*points)) or [()] * 3
    powers = []                         # powers[v][e]: coordinate v to the e at every point
    for col in coords:
        table = [(1,) * n]
        for _ in range(low):
            table.append(tuple(map(mul, table[-1], col)))
        powers.append(table)
    top = max((max(max(row), -min(row)) for row in rows if row), default=0)
    bound = top * sum(max(map(abs, col), default=0) for col in coords) ** max(low, 0)
    width = bound.bit_length() + 1
    shifts = range(0, width * n, width)
    pa, pb, pc = powers
    packed = [sum(map(lshift, map(mul, map(mul, pa[i], pb[j]), pc[k]), shifts)) for i, j, k in monomials(low)]
    if not any(sum(map(mul, row, packed)) for row in rows):
        return None
    for i, pt in enumerate(points):
        mv = _monomial_values(pt, low, monomials(low))
        if any(sum(map(mul, row, mv)) for row in rows):
            return i


def forms_with_multiplicities(points, degree: int, mults, expected: int, what: str) -> list:
    """Deterministic basis of the forms of the degree with multiplicity >= m
    at each point, the kernel of multiplicity_conditions, each form
    canonical as built (kernel vectors are primitive in the monomial order).
    Refused when a point repeats, or when the basis does not have `expected`
    members; `what` names the forms in that refusal."""
    pts = tuple(points)
    if len(set(pts)) != len(pts):
        raise ValidationError("degenerate configuration", "repeated point")
    kern = kernel_basis(multiplicity_conditions(pts, degree, mults))
    if len(kern) != expected:
        raise ValidationError("degenerate configuration",
                              f"{what} form a system of dimension {len(kern)}, expected {expected}")
    monos = monomials(degree)
    return [HPoly._make(degree, {e: c for e, c in zip(monos, v) if c}) for v in kern]


@cache
def _monomial_text(e: tuple) -> str:
    """The text of the monomial x^e, as x^2*y ("" for the constant), built
    once per exponent triple, like monomials once per degree."""
    return "*".join(VAR_NAMES[v] if e[v] == 1 else f"{VAR_NAMES[v]}^{e[v]}" for v in range(3) if e[v])


def format_hpoly(f: HPoly) -> str:
    """Canonical text form, re-parsable by the CLI grammar."""
    if f.is_zero():
        return "0"
    parts = []
    for e, c in f.sorted_terms():
        mono = _monomial_text(e)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        parts.append((" - " if c < 0 else " + ") + body)
    text = "".join(parts)
    return "-" + text[3:] if text[1] == "-" else text[3:]


# ---------------------------------------------------------------------------
# gcd: restrict to lines, interpolate, certify by division
# ---------------------------------------------------------------------------

def _on_line(f: HPoly, w0: int) -> list:
    """f(t, w0, 1), the restriction of f to the line through (1:0:0) and
    (0:w0:1), as the coefficient list in t (entry i at t^i, no trailing
    zeros; [] when f contains the line)."""
    out = [0] * (f.degree + 1)
    for (i, j, _), c in f.terms.items():
        out[i] += c * w0 ** j
    while out and not out[-1]:
        out.pop()
    return out


def _prs_gcd(a: list, b: list) -> list:
    """Gcd of two polynomials in t, coefficient lists as _on_line gives
    them, as a primitive integer list, by the primitive pseudo-remainder
    sequence (von zur Gathen-Gerhard, Modern Computer Algebra, ch. 6); []
    only for two zeros."""
    a, b = primitive(a), primitive(b)
    while b:
        lc, n = b[-1], len(b) - 1
        while len(a) > n:
            c, shift = a.pop(), len(a) - n
            a = [v * lc for v in a[:shift]] + [v * lc - c * w for v, w in zip(a[shift:], b)]
            while a and not a[-1]:
                a.pop()
        a, b = b, primitive(a)
    return a


def _interpolate(nodes, values) -> list:
    """Coefficients (entry m at w^m) of the polynomial of degree below
    len(nodes) that takes the values at the nodes: Newton divided
    differences, then the Newton form expanded by Horner."""
    c, n = list(values), len(nodes)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (nodes[i] - nodes[i - k])
    out = [c[-1]]
    for i in range(n - 2, -1, -1):
        out = [hi - lo * nodes[i] for lo, hi in zip(out + [0], [0] + out)]
        out[0] += c[i]
    return out


def _coprime_at_a_value(lists) -> bool:
    """True when one integer gcd of values proves the polynomials in t
    (coefficient lists as _on_line gives them; [] is zero, and not all are)
    coprime; False proves nothing.

    Each nonzero list r_i is made primitive. With a the first and
    xi = 2 max |a_i| + 2, the test is 2 gamma <= xi for gamma the gcd of the
    values r_i(xi), each by Horner. Proof: every root alpha of a has
    |alpha| < 1 + max |a_i / a_n| <= xi/2 (Cauchy), so a(xi) != 0 and
    gamma != 0. A primitive common factor g of positive degree divides every
    r_i in Z[t] (Gauss's lemma), so g(xi) divides gamma, and
    |g(xi)| >= prod |xi - alpha| > (xi/2)^deg g >= xi/2 over the roots of g,
    which are roots of a. So 2 gamma <= xi leaves no such g.
    """
    rs = [primitive(r) for r in lists if r]
    xi = 2 * max(map(abs, rs[0])) + 2
    values = []
    for r in rs:
        v = 0
        for c in reversed(r):
            v = v * xi + c
        values.append(v)
    return 2 * igcd(*values) <= xi


def hpoly_gcd_many(polys) -> HPoly:
    """Gcd of several forms, canonical; zero forms are dropped, and all zero
    is refused.

    Let h be the gcd. Some form is nonzero at q: q = (1:0:0) when some form
    has its x^d term, else the first point (1:a:b), 0 <= a, b <= deg f, at
    which the first form f is nonzero; h divides that form, so h(q) != 0.
    Each form g is sheared once to g(x, y + a x, z + b x) (HPoly.shear),
    which keeps its y-degree and moves q to (1:0:0). On each line through
    (1:0:0) and (0:w0:1) (_on_line) the sheared h restricts to degree
    deg h, its leading coefficient h(q), and divides the restriction of
    every sheared form, so coprime restrictions prove h = 1. On each line
    one integer gcd of their values tests that first (_coprime_at_a_value,
    with its proof); a line it does not settle goes through the
    pseudo-remainder sequence: the degree k of the gcd of all restrictions
    bounds deg h, and k = 0 proves h = 1. At the least k seen, the monic
    gcds on min(k, deg_y) + 1 lines, w0 = 17, -17, 18, ..., are
    interpolated in w0 into a candidate of degree k, sheared back to
    (x, y - a x, z - b x) (Brown, JACM 1971, with exact images in place of
    modular ones). If it divides every form it is h; if not, deg h < k, and
    only lines of lower degree are used from then on. Only finitely many
    lines give a degree above deg h.
    """
    forms = [p for p in polys if not p.is_zero()]
    if not forms:
        raise ValidationError("zero input", "gcd of zero polynomials")
    if len(forms) == 1:
        return forms[0].canonical()
    if any((g.degree, 0, 0) in g.terms for g in forms):
        a = b = 0
    else:
        f = forms[0]
        a, b = next((a, b) for a in range(f.degree + 1) for b in range(f.degree + 1)
                    if sum(c * a ** j * b ** k for (_, j, k), c in f.terms.items()))
    sheared = [g.shear(((1, 0, 0), (a, 1, 0), (b, 0, 1)), 0) for g in forms] if a or b else forms
    top = None                               # deg h < top, once a line is unsettled
    nodes, rows = [], []                     # lines of degree top - 1, monic gcds
    for w0 in (s * n for n in count(17) for s in (1, -1)):
        restrictions = [_on_line(g, w0) for g in sheared]
        if _coprime_at_a_value(restrictions):
            return HPoly.constant(1)
        if top is None:
            ydeg = min(g.max_exponent(1) for g in forms)
            top = min(g.degree for g in forms) + 1
        r = []
        for line in restrictions:
            r = _prs_gcd(r, line)
            if len(r) == 1:
                return HPoly.constant(1)
        k = len(r) - 1
        if k >= top:
            continue
        if k < top - 1:
            top, nodes, rows = k + 1, [], []
        nodes.append(w0)
        rows.append([Fraction(c, r[-1]) for c in r])
        if len(nodes) > min(k, ydeg):
            terms = {(k, 0, 0): 1}
            for j in range(k):
                for m, c in enumerate(_interpolate(nodes, [row[j] for row in rows])):
                    if c and m <= k - j:   # a term above degree k: the lines were unlucky
                        terms[(j, m, k - j - m)] = c
            h = HPoly._make(k, terms)
            if a or b:                      # (x, y - a x, z - b x)
                h = h.shear(((1, 0, 0), (-a, 1, 0), (-b, 0, 1)), 0)
            h = h.canonical()
            try:
                for g in forms:
                    g.divexact(h)
            except ValidationError:         # not divisible: deg h < k
                top, nodes, rows = k, [], []
            else:
                return h


def hpoly_gcd(f: HPoly, g: HPoly) -> HPoly:
    """Gcd of two forms, canonical: hpoly_gcd_many of the pair, which
    refuses two zero forms ("zero input")."""
    return hpoly_gcd_many((f, g))


# ---------------------------------------------------------------------------
# binary forms are HPoly in (x, z)
# ---------------------------------------------------------------------------

def _binary(q: HPoly) -> HPoly:
    """q, refused when it uses y: a binary form is an HPoly in (x, z)."""
    if q.uses_var(1):
        raise ValidationError("bad variables", "a binary form does not involve y")
    return q


def bform_gcd(f: HPoly, g: HPoly) -> HPoly:
    """Gcd of binary forms, canonical: hpoly_gcd, which for forms free of y
    reads one line (see hpoly_gcd_many)."""
    return hpoly_gcd(_binary(f), _binary(g))


def is_squarefree(q: HPoly) -> bool:
    """True iff the two partials of q are coprime. By Euler's identity
    d q = x dq/dx + z dq/dz, their gcd is gcd(q, dq/dx, dq/dz) for d >= 2."""
    if _binary(q).is_zero():
        raise ValidationError("zero input", "squarefree test of the zero form")
    if q.degree <= 1:
        return True
    return bform_gcd(q.partial(0), q.partial(2)).degree == 0


def odd_multiplicity_root_count(q: HPoly) -> int:
    """Number of distinct roots of odd multiplicity of a nonzero binary form,
    over an algebraic closure.

    Counts from Yun's squarefree decomposition (Yun, "On square-free
    decomposition algorithms", SYMSAC 1976): with g_0 = q and g_k the gcd of
    the two partials of g_(k-1), a root of multiplicity m divides g_k
    exactly max(m - k, 0) times, so deg g_(k-1) - deg g_k is the number of
    distinct roots of multiplicity >= k.
    """
    if _binary(q).is_zero():
        raise ValidationError("zero input", "roots of the zero form")
    at_least = []
    g = q
    while g.degree > 0:
        h = bform_gcd(g.partial(0), g.partial(2))
        at_least.append(g.degree - h.degree)
        g = h
    return sum(at_least[0::2]) - sum(at_least[1::2])


def bform_rational_roots(q: HPoly):
    """The distinct rational projective roots (x0:z0) of a binary form, sorted.

    The squarefree part of q, stripped of the roots (1:0) and (0:1), is
    f(u) = q(1, 0, u). Its roots are found modulo the first odd prime p not
    dividing lc(f) at which all of them are simple; only primes dividing
    disc(f) * lc(f) fail, so the search ends. Each is Newton-lifted modulo
    p^k until p^k > 2 (|lc| + max |f_i|), which bounds |lc * r| for every
    rational root r, and lc * r, read as a symmetric residue, is kept
    exactly when f(r) = 0 (von zur Gathen-Gerhard, Modern Computer Algebra,
    ch. 15). No size bound applies.
    """
    if _binary(q).is_zero():
        raise ValidationError("zero input", "roots of the zero form")
    q = q.canonical()
    if q.degree > 1:
        repeated = bform_gcd(q.partial(0), q.partial(2))
        if repeated.degree > 0:
            q = q.divexact(repeated).canonical()
    coeffs = [q.terms.get((q.degree - i, 0, i), 0) for i in range(q.degree + 1)]
    # z^vz and x^vx divide q: the roots (1:0) and (0:1)
    vz = next(i for i, c in enumerate(coeffs) if c)
    vx = next(i for i, c in enumerate(reversed(coeffs)) if c)
    roots = []
    if vz:
        roots.append((1, 0))
    if vx:
        roots.append((0, 1))
    f = coeffs[vz: q.degree + 1 - vx]   # f[i] multiplies u^i
    n = len(f) - 1
    if n > 0:
        lc = f[-1]
        df = [i * c for i, c in enumerate(f)][1:]
        p, residues = _simple_roots_mod_prime(f, df)
        modulus, bound = p, 2 * (abs(lc) + max(abs(c) for c in f))
        while modulus <= bound:
            modulus *= modulus
            residues = [
                (r - _horner(f, r, modulus) * pow(_horner(df, r, modulus), -1, modulus)) % modulus
                for r in residues
            ]
        for r in residues:
            num = lc * r % modulus
            if num > modulus // 2:
                num -= modulus
            if sum(c * num ** i * lc ** (n - i) for i, c in enumerate(f)) == 0:
                roots.append(tuple(primitive((lc, num))))
    return sorted(roots)


def _horner(f, r, modulus):
    v = 0
    for c in reversed(f):
        v = (v * r + c) % modulus
    return v


def _simple_roots_mod_prime(f, df):
    """(p, roots of f mod p) for the first odd prime p not dividing the
    leading coefficient at which every root of f mod p is simple."""
    p = 3
    while True:
        if f[-1] % p and all(p % k for k in range(3, isqrt(p) + 1, 2)):
            residues = [r for r in range(p) if _horner(f, r, p) == 0]
            if all(_horner(df, r, p) for r in residues):
                return p, residues
        p += 2


# ---------------------------------------------------------------------------
# Sylvester resultants (Bareiss determinant over HPoly entries)
# ---------------------------------------------------------------------------

def _bareiss_det(mat) -> HPoly:
    """Fraction-free determinant of a square matrix of HPoly entries."""
    n = len(mat)
    m = [row[:] for row in mat]
    sign = 1
    prev = HPoly.constant(1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot = next((r for r in range(k + 1, n) if not m[r][k].is_zero()), None)
            if pivot is None:
                return HPoly.zero(0)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num.divexact(prev) if not num.is_zero() else HPoly.zero(0)
            m[i][k] = HPoly.zero(0)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def resultant(f: HPoly, g: HPoly, var: int) -> HPoly:
    """Sylvester resultant eliminating one variable.

    Coefficients are taken in the other two variables at the actual degrees
    in `var`; the result vanishes at values of those two iff the pair with
    them substituted has a common root (or both leading coefficients vanish).
    A factor of degree 0 in `var` gives the usual res(f, g) = f^deg(g).
    """
    if f.is_zero() or g.is_zero():
        raise ValidationError("zero input", "resultant of the zero polynomial")
    fc = f.coeffs_by_var(var)[::-1]
    gc = g.coeffs_by_var(var)[::-1]
    m, n = len(fc) - 1, len(gc) - 1
    if m == 0:
        return fc[0] ** n
    if n == 0:
        return gc[0] ** m
    zero = HPoly.zero(0)
    rows = [[zero] * i + fc + [zero] * (n - 1 - i) for i in range(n)]
    rows += [[zero] * i + gc + [zero] * (m - 1 - i) for i in range(m)]
    return _bareiss_det(rows)


# ---------------------------------------------------------------------------
# exact linear algebra: fraction-free elimination, kernel bases
# ---------------------------------------------------------------------------

def _bareiss_echelon(rows):
    """Fraction-free (Bareiss) row echelon form of an integer matrix.

    Deterministic pivoting: scan columns left to right, take the first row
    with a nonzero entry. Returns (echelon_rows, pivot_columns).
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def matrix_rank(rows) -> int:
    if not rows:
        return 0
    _, pivots = _bareiss_echelon([primitive(row) for row in rows])
    return len(pivots)


def kernel_basis(rows):
    """Exact basis of the right kernel via fraction-free elimination.

    Returns primitive integer vectors, one per free column, ordered by free
    column index. The basis is deterministic because pivoting is.
    """
    if not rows:
        raise ValidationError("bad input", "empty matrix")
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValidationError("bad input", "ragged matrix")
    rows_e, pivots = _bareiss_echelon([primitive(row) for row in rows])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        # integer back-substitution: before solving row r for its pivot
        # entry, scale the vector so that the division is exact
        vec = [0] * ncols
        vec[fc] = 1
        for r in range(len(pivots) - 1, -1, -1):
            pc, row = pivots[r], rows_e[r]
            s = sum(row[j] * vec[j] for j in range(pc + 1, ncols) if vec[j])
            g = igcd(s, row[pc])
            k = row[pc] // g
            if k != 1:
                vec = [v * k for v in vec]
            vec[pc] = -s // g
        basis.append(tuple(primitive(vec)))
    return basis


def dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def null_vector(rows):
    """The integer vector orthogonal to every row of a matrix with three
    columns and rank exactly 2, or None for any other rank. rows may be any
    iterable that can be read twice.

    The kernel of a rank-2 matrix is spanned by the cross product of any two
    independent rows. That of the first two is kept only if every row is
    orthogonal to it, the certificate of rank 2: at rank 3 some row is not.
    Rank 0 and rank 1 have no two independent rows."""
    first = next((r for r in rows if any(r)), None)
    if first is None:
        return None
    k = next((k for r in rows if any(k := cross(first, r))), None)
    if k is None or any(dot(r, k) for r in rows):
        return None
    return k


def det3(m):
    """Determinant of a 3x3 matrix over any commutative ring, by cofactors
    along the first row."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def adjugate3(m):
    """Adjugate of a 3x3 integer matrix: m @ adj = det * I."""
    return (
        (
            m[1][1] * m[2][2] - m[1][2] * m[2][1],
            m[0][2] * m[2][1] - m[0][1] * m[2][2],
            m[0][1] * m[1][2] - m[0][2] * m[1][1],
        ),
        (
            m[1][2] * m[2][0] - m[1][0] * m[2][2],
            m[0][0] * m[2][2] - m[0][2] * m[2][0],
            m[0][2] * m[1][0] - m[0][0] * m[1][2],
        ),
        (
            m[1][0] * m[2][1] - m[1][1] * m[2][0],
            m[0][1] * m[2][0] - m[0][0] * m[2][1],
            m[0][0] * m[1][1] - m[0][1] * m[1][0],
        ),
    )
