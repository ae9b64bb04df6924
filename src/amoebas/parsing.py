"""Parse and format Laurent polynomial expressions.

Grammar (whitespace insensitive, multiplication always explicit between
variables):

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := number 'i'? | 'i' | var ('^' int)? | '(' expr ')'
    var    := 'z' digit
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

_NUMBER = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_INT = re.compile(r"\d+$")


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
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "i":
            out.append(ExprToken("imag", "i", (i, i + 1)))
            i += 1
            continue
        if ch == "z":
            if i + 1 < n and text[i + 1].isdigit():
                out.append(ExprToken("var", text[i:i + 2], (i, i + 2)))
                i += 2
                continue
            raise PolySyntaxError(f"expected digit after 'z' at {i}", span=(i, i + 1))
        if ch.isdigit() or ch == ".":
            m = _NUMBER.match(text, i)
            if not m:
                raise PolySyntaxError(f"malformed number at {i}", span=(i, i + 1))
            out.append(ExprToken("number", m.group(0), (i, m.end())))
            i = m.end()
            continue
        simple = {"^": "caret", "*": "star", "+": "plus", "-": "minus",
                  "(": "lparen", ")": "rparen"}
        if ch in simple:
            out.append(ExprToken(simple[ch], ch, (i, i + 1)))
            i += 1
            continue
        raise PolySyntaxError(f"unexpected character {ch!r} at {i}", span=(i, i + 1))
    return out


class _Parser:
    """Recursive descent; polynomials are term dicts {exponent: complex} until parse_poly."""

    def __init__(self, tokens, nvars, text):
        self.toks = tokens
        self.pos = 0
        self.nvars = nvars
        self.text = text
        self.unit = (0,) * nvars

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        if t is not None:
            self.pos += 1
        return t

    def expect(self, kind):
        t = self.peek()
        if t is None or t.kind != kind:
            raise self.fail(f"expected {kind}")
        return self.take()

    def fail(self, what):
        t = self.peek()
        if t is None:
            end = len(self.text)
            return PolySyntaxError(f"{what}, got end of input", span=(end, end))
        return PolySyntaxError(f"{what}, got {t.lexeme!r}", span=t.span)

    def product(self, p, q):
        return _collect({}, ((tuple(x + y for x, y in zip(a1, a2)), b1 * b2)
                             for a1, b1 in p.items() for a2, b2 in q.items()))

    def expr(self):
        sign = 1.0
        t = self.peek()
        if t is not None and t.kind in ("plus", "minus"):
            self.take()
            sign = -1.0 if t.kind == "minus" else 1.0
        acc = self.product(self.term(), {self.unit: complex(sign)})
        while True:
            t = self.peek()
            if t is None or t.kind not in ("plus", "minus"):
                return acc
            self.take()
            nxt = self.term()
            _collect(acc, nxt.items() if t.kind == "plus" else ((a, -b) for a, b in nxt.items()))

    def term(self):
        acc = self.factor()
        while True:
            t = self.peek()
            if t is None or t.kind != "star":
                return acc
            self.take()
            q = self.factor()
            # a constant multiplies straight in, so the first sum (and its Overflow) is on the
            # exponents that the term ends up with
            acc = ({a: b * q[self.unit] for a, b in acc.items()} if q.keys() == {self.unit}
                   else self.product(acc, q))

    def factor(self):
        t = self.peek()
        if t is None:
            raise self.fail("expected a factor")
        if t.kind == "number":
            self.take()
            value = float(t.lexeme)
            nxt = self.peek()
            if nxt is not None and nxt.kind == "imag":
                self.take()
                return {self.unit: complex(0.0, value)}
            return {self.unit: complex(value)}
        if t.kind == "imag":
            self.take()
            return {self.unit: 1j}
        if t.kind == "var":
            self.take()
            idx = int(t.lexeme[1])
            if idx < 1 or idx > self.nvars:
                raise UnknownVariable(
                    f"variable {t.lexeme} outside z1..z{self.nvars}", span=t.span
                )
            expo = 1
            nxt = self.peek()
            if nxt is not None and nxt.kind == "caret":
                self.take()
                expo = self.integer()
            alpha = [0] * self.nvars
            alpha[idx - 1] = expo
            return {tuple(alpha): 1 + 0j}
        if t.kind == "lparen":
            self.take()
            inner = self.expr()
            self.expect("rparen")
            return inner
        raise self.fail("expected a factor")

    def integer(self):
        sign = 1
        t = self.peek()
        if t is not None and t.kind in ("plus", "minus"):
            self.take()
            sign = -1 if t.kind == "minus" else 1
        t = self.peek()
        if t is None or t.kind != "number" or not _INT.match(t.lexeme):
            raise self.fail("expected an integer exponent")
        self.take()
        return sign * int(t.lexeme)


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
    if p.peek() is not None:
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
