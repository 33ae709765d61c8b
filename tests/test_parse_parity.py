"""The polynomial parser against the character scanner it replaced.

cli._parse_form reads a whole term with one pattern and derives every
syntax error from where that match stopped. _scanner_parse below is the
earlier parser, which read one character at a time; on every string, valid
or not, both must give the same HPoly, or the same ValidationError reason and
message, position included.
"""

import re
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from planecremona.cli import _factor_run, _parse_form
from planecremona.errors import ValidationError
from planecremona.exactpoly import HPoly

# -- the character scanner, as the CLI had it ------------------------------------------

_WHITESPACE = re.compile(r"\s*")
_DIGITS = re.compile(r"[0-9]+")


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise ValidationError("syntax error", f"{message} at position {self.pos}: {self.text!r}")

    def skip_ws(self):
        self.pos = _WHITESPACE.match(self.text, self.pos).end()

    def peek(self):
        self.skip_ws()
        return self.text[self.pos:self.pos + 1]

    def take_digits(self, what="a number"):
        m = _DIGITS.match(self.text, self.pos)
        if m is None:
            self.error(f"expected {what}")
        self.pos = m.end()
        return int(m.group())

    def take_number(self):
        self.skip_ws()
        num = self.take_digits()
        if self.peek() == "/":
            self.pos += 1
            den = self.take_digits("a denominator")
            if den == 0:
                self.error("zero denominator")
            return Fraction(num, den)
        return num


def _scanner_parse(text):
    sc = _Scanner(text)
    var_index = {"x": 0, "y": 1, "z": 2}
    terms = []
    first = True
    while True:
        ch = sc.peek()
        if ch == "":
            break
        sign = 1
        if ch in "+-":
            sign = -1 if ch == "-" else 1
            sc.pos += 1
            ch = sc.peek()
        elif not first:
            sc.error("expected '+' or '-' between terms")
        if ch == "":
            sc.error("dangling sign")
        coeff = 1
        saw_num = "0" <= ch <= "9"
        if saw_num:
            coeff = sc.take_number()
            if sc.peek() == "*":
                sc.pos += 1
                if sc.peek() not in var_index and not "0" <= sc.peek() <= "9":
                    sc.error("dangling '*'")
        exps = [0, 0, 0]
        saw_var = False
        while True:
            ch = sc.peek()
            if ch in var_index:
                saw_var = True
                v = var_index[ch]
                sc.pos += 1
                e = 1
                if sc.peek() == "^":
                    sc.pos += 1
                    sc.skip_ws()
                    e = sc.take_digits()
                exps[v] += e
                if sc.peek() == "*":
                    sc.pos += 1
                    if sc.peek() not in var_index and not "0" <= sc.peek() <= "9":
                        sc.error("dangling '*'")
                continue
            break
        if not saw_var and not saw_num and ch != "":
            sc.error("expected a term")
        terms.append((sign * coeff, tuple(exps)))
        first = False
    if not terms:
        raise ValidationError("syntax error", "empty polynomial")
    if len(terms) == 1 and terms[0][0] == 0:
        return HPoly.zero(0)
    degrees = {sum(e) for c, e in terms if c != 0}
    if len(degrees) > 1:
        raise ValidationError(
            "inhomogeneous", f"terms of different total degrees {sorted(degrees)}"
        )
    acc = {}
    for c, e in terms:
        acc[e] = acc.get(e, 0) + c
    degree = degrees.pop() if degrees else 0
    return HPoly(degree, {e: c for e, c in acc.items() if c != 0})


# -- comparison ------------------------------------------------------------------------

def _outcome(parse, text):
    """("ok", degree, terms with their types) or ("error", reason, message)."""
    try:
        f = parse(text)
    except ValidationError as exc:
        return ("error", exc.reason, str(exc))
    return ("ok", f.degree, sorted((e, c, type(c).__name__) for e, c in f.terms.items()))


def _same_as_scanner(text):
    assert _outcome(_parse_form, text) == _outcome(_scanner_parse, text), text


# -- strings ---------------------------------------------------------------------------

SPACE = st.sampled_from(["", "", "", " ", "  ", "\t", " "])


@st.composite
def _term(draw, degree):
    """One term of the degree, written with random spacing, an optional
    coefficient a or a/b, optional '*' and optional '^1'."""
    sp = lambda: draw(SPACE)  # noqa: E731
    parts = []
    if degree == 0:
        return str(draw(st.sampled_from([0, 1, 2, 3, 17, 40])))
    if draw(st.booleans()):
        coeff = str(draw(st.integers(0, 40)))
        if draw(st.booleans()):
            coeff += sp() + "/" + str(draw(st.integers(1, 12)))
        parts.append(coeff + (sp() + "*" if draw(st.booleans()) else ""))
    cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=2, max_size=2)))
    exps = [cuts[0], cuts[1] - cuts[0], degree - cuts[1]]
    order = draw(st.permutations([0, 1, 2]))
    factors = []
    for v in order:
        e = exps[v]
        if e == 0:
            continue
        text = "xyz"[v]
        if e > 1 or draw(st.booleans()):
            text += sp() + "^" + sp() + str(e)
        factors.append(text)
    sep = draw(st.sampled_from(["", "*", " ", " * "]))
    body = sep.join(factors)
    return sp().join(parts + ([body] if body else []))


@st.composite
def valid_polys(draw):
    degree = draw(st.integers(0, 5))
    n = draw(st.integers(1, 5))
    out = draw(SPACE)
    if draw(st.booleans()):
        out += draw(st.sampled_from(["+", "-"])) + draw(SPACE)
    out += draw(_term(degree))
    for _ in range(n - 1):
        out += draw(SPACE) + draw(st.sampled_from(["+", "-"])) + draw(SPACE) + draw(_term(degree))
    return out + draw(SPACE)


CORRUPTIONS = ["+", "-", "*", "^", "/", "/0", "/ 3", "²", "３", " ", "1", "2 ", "x", "q", "^2", "**"]


@st.composite
def corrupted_polys(draw):
    """A valid string with one corruption: a dangling or doubled token,
    a zero denominator, a superscript or full-width digit, a lost operator,
    an inhomogeneous term, or an empty text."""
    text = draw(valid_polys())
    kind = draw(st.integers(0, 4))
    if kind == 0:
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from(CORRUPTIONS)) + text[at:]
    if kind == 1:
        return text + draw(SPACE) + draw(st.sampled_from(["+", "-", "*", "^", "/0", "x^"])) + draw(SPACE)
    if kind == 2:
        # the operator between two terms dropped
        return re.sub(r"(?<=\S)\s*[+-]\s*(?=\S)", " ", text, count=1)
    if kind == 3:
        return text + " + " + draw(_term(draw(st.integers(0, 6))))
    return draw(st.sampled_from(["", " ", "\t", "+", "-", "*", "0", "1", "1/0"]))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(valid_polys())
def test_valid_polynomials_parse_as_the_scanner_parsed_them(text):
    assert _outcome(_parse_form, text)[0] == "ok"
    _same_as_scanner(text)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(corrupted_polys())
def test_corrupted_polynomials_fail_as_the_scanner_failed(text):
    _same_as_scanner(text)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet="xyz0123456789+-*/^ \t²３q", max_size=14))
def test_any_text_over_the_grammar_alphabet_matches_the_scanner(text):
    _same_as_scanner(text)


def test_every_error_message_is_met():
    cases = {
        "x +": "dangling sign at position 3",
        "x 2 +x": "expected '+' or '-' between terms at position 2",
        "x* ": "dangling '*' at position 3",
        "1/0 x": "zero denominator at position 3",
        "1/ 2 x": "expected a denominator at position 2",
        "x^ y": "expected a number at position 3",
        "+q": "expected a term at position 1",
        "  ": "empty polynomial",
        "x + y^2": "terms of different total degrees [1, 2]",
        "x²": "expected '+' or '-' between terms at position 1",
        "３x": "expected a term at position 0",
    }
    for text, message in cases.items():
        got = _outcome(_parse_form, text)
        assert got == _outcome(_scanner_parse, text)
        assert got[0] == "error" and message in got[2], (text, got)


def test_a_bare_coefficient_is_a_term_and_needs_no_star():
    # a term that read a number is a term, 1 included; a '*' after a
    # coefficient with no variable after it dangles, as one after x does
    for text, value in {"1 + 2": 3, "2/2 + 3": 4, "2 + 1": 3, " 1 ": 1, "-1 - 1/2": Fraction(-3, 2)}.items():
        assert _parse_form(text) == HPoly.constant(value), text
        _same_as_scanner(text)
    for text, pos in {"2*": 2, "1*": 2, "2* + 3": 3, "1/2 *\t": 6, "3 * ^2": 4}.items():
        got = _outcome(_parse_form, text)
        assert got == ("error", "syntax error", f"dangling '*' at position {pos}: {text!r}"), text
        _same_as_scanner(text)


# -- the memoised run of factors -------------------------------------------------------

def test_a_bad_run_is_refused_at_its_own_position_wherever_it_recurs():
    """_factor_run keeps the offset of a bad '^' relative to its run, so
    one cached run refused in several places names each place."""
    _factor_run.cache_clear()
    cases = {
        "x^*y + y^2": 2,        # the run x^*y at 0
        "x^2 + x^*y": 8,        # at 6 of another text
        "  x^*y": 4,            # at 2
        "y ^": 3,               # the run y ^ at 0
        "x*y + y ^": 9,         # at 6
        "x*y - 2 y ^": 11,      # at 8
    }
    for text, pos in cases.items():
        got = _outcome(_parse_form, text)
        assert got == ("error", "syntax error", f"expected a number at position {pos}: {text!r}"), text
        _same_as_scanner(text)
    assert _factor_run.cache_info().hits >= 3


def test_runs_that_differ_only_by_whitespace_give_the_same_exponents():
    for a, b in (("x ^ 2 * y", "x^2*y"), ("x y^ 3", "x*y^3"), ("z \t*x", "z*x")):
        assert _factor_run(a)[0] == _factor_run(b)[0]
        assert _parse_form(f"{a} + 2 {b}") == _parse_form(f"3 {b}")
        _same_as_scanner(f"{a} + 2 {b}")


def test_a_cached_run_before_a_dangling_star_is_still_refused():
    """Whether a '*' dangles depends on the text after the run, which the
    memo does not see: a run cached where it did not dangle still dangles
    where nothing follows it, and the empty run of a bare coefficient
    still dangles after a coefficient's '*'."""
    _factor_run.cache_clear()
    for text, message in (
        ("x*y*3", "expected '+' or '-' between terms at position 4"),
        ("x*y* + z^2", "dangling '*' at position 5"),
        ("2 + 3", None),
        ("2 + 3*", "dangling '*' at position 6"),
        ("x^2*y + z^3", None),
        ("x^2*y* + z^3", "dangling '*' at position 7"),
    ):
        got = _outcome(_parse_form, text)
        assert (got[0] == "ok") if message is None else (got[0] == "error" and message in got[2]), (text, got)
        _same_as_scanner(text)
    assert _factor_run.cache_info().hits >= 2
