"""Parse and format Laurent polynomial expressions.

Grammar (whitespace insensitive, multiplication always explicit between
variables):

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := number 'i'? | 'i' | var ('^' int)? | '(' expr ')'
    var    := 'z' decimal-digit
    int    := ('+'|'-')? digit+
    number := digits ['.' digits] [('e'|'E') ['+'|'-'] digits]

``1.5*i`` and ``1.5i`` both denote the imaginary constant; ``z1z2`` is
rejected (write ``z1*z2``), since gluing names would be ambiguous with
multi-digit indices.  Complex literals are written in parentheses,
``(1+3i)*z1*z2``.  Exponents may be negative: ``z1^-1``.
"""

from __future__ import annotations

import re

from .errors import EmptyInput, PolySyntaxError, UnknownVariable
from .laurent import LaurentPoly, _collect

_TOKEN = re.compile(r"""
    (?P<space>\s+)
  | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<var>z\d) | (?P<imag>i)
  | (?P<caret>\^) | (?P<star>\*) | (?P<plus>\+) | (?P<minus>-) | (?P<lparen>\() | (?P<rparen>\))
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


class ExprToken:
    """One lexical token with its half-open span in the input string."""

    __slots__ = ("kind", "lexeme", "span")

    def __init__(self, kind, lexeme, span):
        self.kind = kind
        self.lexeme = lexeme
        self.span = span

    def __repr__(self):
        return f"ExprToken({self.kind}, {self.lexeme!r}, {self.span})"


def tokenize(text):
    """Split an expression into tokens.

    Token kinds: number, imag, var, caret, star, plus, minus, lparen,
    rparen.  Spans are non-overlapping, increasing, and cover every
    non-whitespace character; anything unrecognized raises
    PolySyntaxError with its span.
    """
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        if kind == "bad":
            ch, i = m.group(), m.start()
            what = ("expected digit after 'z'" if ch == "z" else
                    "malformed number" if ch == "." or ch.isdigit() else
                    f"unexpected character {ch!r}")
            raise PolySyntaxError(f"{what} at {i}", span=(i, i + 1))
        out.append(ExprToken(kind, m.group(), m.span()))
    return out


class _Parser:
    """Recursive descent; polynomials are term dicts {exponent: complex} until parse_poly."""

    def __init__(self, tokens, nvars, text):
        self.toks = tokens + [ExprToken("end", "", (len(text), len(text)))]
        self.pos = 0
        self.nvars = nvars
        self.unit = (0,) * nvars

    def accept(self, *kinds):
        """Consume and return the next token if its kind is one of kinds; else None."""
        t = self.toks[self.pos]
        if t.kind in kinds:
            self.pos += 1
            return t
        return None

    def fail(self, what):
        t = self.toks[self.pos]
        got = "end of input" if t.kind == "end" else repr(t.lexeme)
        return PolySyntaxError(f"{what}, got {got}", span=t.span)

    def product(self, p, q):
        return _collect({}, ((tuple(x + y for x, y in zip(a1, a2)), b1 * b2)
                             for a1, b1 in p.items() for a2, b2 in q.items()))

    def expr(self):
        t = self.accept("plus", "minus")
        sign = -1.0 if t and t.kind == "minus" else 1.0
        acc = self.product(self.term(), {self.unit: complex(sign)})
        while t := self.accept("plus", "minus"):
            nxt = self.term()
            _collect(acc, nxt.items() if t.kind == "plus" else ((a, -b) for a, b in nxt.items()))
        return acc

    def term(self):
        acc = self.factor()
        while self.accept("star"):
            q = self.factor()
            # a constant multiplies straight in, so the first sum (and its Overflow) is on the
            # exponents that the term ends up with
            acc = ({a: b * q[self.unit] for a, b in acc.items()} if q.keys() == {self.unit}
                   else self.product(acc, q))
        return acc

    def factor(self):
        if t := self.accept("number"):
            value = float(t.lexeme)
            return {self.unit: complex(0.0, value) if self.accept("imag") else complex(value)}
        if self.accept("imag"):
            return {self.unit: 1j}
        if t := self.accept("var"):
            idx = int(t.lexeme[1])
            if idx < 1 or idx > self.nvars:
                raise UnknownVariable(f"variable {t.lexeme} outside z1..z{self.nvars}",
                                      span=t.span)
            alpha = [0] * self.nvars
            alpha[idx - 1] = self.integer() if self.accept("caret") else 1
            return {tuple(alpha): 1 + 0j}
        if self.accept("lparen"):
            inner = self.expr()
            if not self.accept("rparen"):
                raise self.fail("expected rparen")
            return inner
        raise self.fail("expected a factor")

    def integer(self):
        t = self.accept("plus", "minus")
        sign = -1 if t and t.kind == "minus" else 1
        t = self.accept("number")
        if t and t.lexeme.isdecimal():
            return sign * int(t.lexeme)
        if t:
            self.pos -= 1  # the error names the non-integer number itself
        raise self.fail("expected an integer exponent")


def parse_poly(text, nvars):
    """Parse an expression into an expanded LaurentPoly.

    Raises
    ------
    EmptyInput
        For blank input.
    PolySyntaxError, UnknownVariable
        With the offending span.
    Overflow
        If an exponent of the expanded result lies outside +-MAX_DEGREE.
    """
    toks = tokenize(text)
    if not toks:
        raise EmptyInput("empty expression", span=(0, 0))
    p = _Parser(toks, nvars, text)
    terms = p.expr()
    if not p.accept("end"):
        raise p.fail("unexpected trailing input")
    return LaurentPoly(nvars, terms)


def _fmt_num(x):
    """Shortest decimal that round-trips; integers drop the trailing .0."""
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _fmt_monomial(alpha):
    parts = []
    for j, a in enumerate(alpha):
        if a == 0:
            continue
        parts.append(f"z{j+1}" if a == 1 else f"z{j+1}^{a}")
    return "*".join(parts)


def format_poly(f):
    """Render f so that parse_poly(format_poly(f), f.nvars) has f's terms exactly.

    Terms are ordered by total degree, then variable order; coefficients
    print in shortest round-trip form (``2*z1^2``, ``1.5*i*z2``,
    ``(1+3i)*z1*z2``).
    """
    if not f.terms:
        return "0"
    keys = sorted(f.terms, key=lambda a: (sum(a), tuple(-x for x in a)))
    pieces = []
    for alpha in keys:
        c = f.terms[alpha]
        mono = _fmt_monomial(alpha)
        if c.imag == 0.0:
            sign = "-" if c.real < 0 else "+"
            mag = abs(c.real)
            if mono:
                body = mono if mag == 1.0 else f"{_fmt_num(mag)}*{mono}"
            else:
                body = _fmt_num(mag)
        elif c.real == 0.0:
            sign = "-" if c.imag < 0 else "+"
            mag = abs(c.imag)
            head = "i" if mag == 1.0 else f"{_fmt_num(mag)}*i"
            body = f"{head}*{mono}" if mono else head
        else:
            sign = "+"
            re_s = _fmt_num(c.real)
            im_mag = _fmt_num(abs(c.imag))
            im_s = ("-" if c.imag < 0 else "+") + (im_mag + "i" if im_mag != "1" else "i")
            lit = f"({re_s}{im_s})"
            body = f"{lit}*{mono}" if mono else lit
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = first_body if first_sign == "+" else f"-{first_body}"
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out
