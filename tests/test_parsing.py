"""Expression grammar: tokens, parse errors with spans, format round-trips."""

import cmath
import math
import random
import re

import pytest

from amoebas import LaurentPoly, ParseError, evaluate, format_poly, parse_poly
from amoebas.errors import EmptyInput, Overflow, PolySyntaxError, UnknownVariable
from amoebas.parsing import tokenize


def test_basic_polynomial():
    f = parse_poly("z1^3 + z2^3 - 4*z1*z2 + 1", 2)
    assert dict(f.terms) == {
        (3, 0): 1 + 0j,
        (0, 3): 1 + 0j,
        (1, 1): -4 + 0j,
        (0, 0): 1 + 0j,
    }


def test_negative_exponents_and_leading_sign():
    f = parse_poly("-2*z1^2 - 2*z1*z2^2 + 1.5i*z1^-1*z2^-1 - 1.2", 2)
    assert f.terms[(2, 0)] == -2
    assert f.terms[(1, 2)] == -2
    assert f.terms[(-1, -1)] == 1.5j
    assert f.terms[(0, 0)] == pytest.approx(-1.2)


def test_complex_literal_forms():
    assert parse_poly("(2+3i)*z1", 1).terms[(1,)] == 2 + 3j
    assert parse_poly("(2-3i)*z1", 1).terms[(1,)] == 2 - 3j
    assert parse_poly("3i*z1", 1).terms[(1,)] == 3j
    assert parse_poly("i*z1", 1).terms[(1,)] == 1j
    assert parse_poly("(1e-2+0.5i)", 1).terms[(0,)] == pytest.approx(0.01 + 0.5j)


def test_exponent_ceiling_applies_to_the_expanded_result():
    with pytest.raises(Overflow):
        parse_poly("z1^1000001", 2)
    with pytest.raises(Overflow):
        parse_poly("1 + z2^-1000001", 2)
    # an intermediate product beyond the ceiling may come back into range
    assert parse_poly("z1^1000001*z1^-1", 2).terms == {(10**6, 0): 1 + 0j}


@pytest.mark.parametrize("text, alpha", [
    ("1e999*z1 + 1", (1, 0)),  # the literal overflows
    ("1e200*1e200*z1 + 1", (1, 0)),  # the product of two constants overflows on z1
    ("1e999 - 1e999 + z1", (0, 0)),  # inf - inf would be nan
    ("1e308*z1 + 1e308*z1 + 1", (1, 0)),  # the sum of like terms overflows
    ("1.5e308*z1 + 1.5e308*i*z1 + 1", (1, 0)),  # finite parts, but the modulus overflows
    ("1e200*1e200 + z1", (0, 0)),  # the constant product is the constant term
])
def test_non_finite_coefficient_is_rejected_not_dropped(text, alpha):
    with pytest.raises(Overflow, match=f"exponent {re.escape(str(alpha))} overflows"):
        parse_poly(text, 2)


def test_like_terms_collect_and_cancel():
    f = parse_poly("z1 + z1 + 2*z1", 1)
    assert f.terms[(1,)] == 4
    g = parse_poly("z1 - z1", 1)
    assert g.terms == {}


def test_implicit_multiplication_rejected():
    with pytest.raises(PolySyntaxError):
        parse_poly("z1z2", 2)
    with pytest.raises(PolySyntaxError):
        parse_poly("2z1", 1)


def test_unknown_variable_reports_span():
    with pytest.raises(UnknownVariable) as info:
        parse_poly("z1 + z5", 2)
    err = info.value
    assert err.span is not None
    lo, hi = err.span
    assert "z1 + z5"[lo:hi] == "z5"


def test_syntax_error_span_points_at_offender():
    with pytest.raises(PolySyntaxError) as info:
        parse_poly("z1 + * z2", 2)
    lo, hi = info.value.span
    assert "z1 + * z2"[lo:hi] == "*"


@pytest.mark.parametrize("text, message, span", [
    ("1 + z", "expected digit after 'z' at 4", (4, 5)),
    ("2*za", "expected digit after 'z' at 2", (2, 3)),
    ("z1 + .", "malformed number at 5", (5, 6)),
    ("z1 $ 2", "unexpected character '$' at 3", (3, 4)),
    ("z²+1", "expected digit after 'z' at 0", (0, 1)),  # a digit, but not a decimal one
    ("1 + ²", "malformed number at 4", (4, 5)),
])
def test_tokenizer_errors_name_the_offender_and_its_span(text, message, span):
    with pytest.raises(PolySyntaxError) as info:
        tokenize(text)
    assert str(info.value) == message and info.value.span == span


def test_missing_closing_parenthesis_is_reported_at_the_end():
    with pytest.raises(PolySyntaxError) as info:
        parse_poly("(z1 + 2", 2)
    assert str(info.value) == "expected rparen, got end of input"
    assert info.value.span == (7, 7)


def test_empty_input():
    with pytest.raises(EmptyInput):
        parse_poly("", 2)
    with pytest.raises(EmptyInput):
        parse_poly("   ", 2)


def test_parse_error_is_common_base():
    for bad in ("", "z9", "1 +", "z1^"):
        with pytest.raises(ParseError):
            parse_poly(bad, 2)


def test_tokenize_kinds():
    toks = [t.kind for t in tokenize("2.5*z1^-3 + i")]
    assert toks == ["number", "star", "var", "caret", "minus", "number", "plus", "imag"]


def test_exponent_must_be_integer():
    with pytest.raises(PolySyntaxError):
        parse_poly("z1^1.5", 1)


def test_format_then_parse_is_exact():
    f = LaurentPoly(2, {(2, 0): 2.0, (1, 1): 1 + 3j, (0, 1): 4j, (0, 0): 1.0})
    again = parse_poly(format_poly(f), 2)
    assert dict(again.terms) == dict(f.terms)


def test_random_round_trips():
    # format -> parse must reproduce terms exactly (bit-for-bit on the
    # coefficients, which format_poly renders with repr precision)
    rng = random.Random(99)
    for _ in range(500):
        nvars = rng.choice((1, 2, 3))
        terms = {}
        for _ in range(rng.randint(1, 6)):
            alpha = tuple(rng.randint(-4, 4) for _ in range(nvars))
            kind = rng.random()
            if kind < 0.4:
                c = complex(rng.choice((-3, -1, 1, 2, 5)), 0)
            elif kind < 0.7:
                c = complex(rng.uniform(-10, 10), 0)
            else:
                c = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            terms[alpha] = c
        f = LaurentPoly(nvars, terms)
        if not f.terms:
            continue
        text = format_poly(f)
        g = parse_poly(text, nvars)
        assert dict(g.terms) == dict(f.terms), text


_LITERALS = ("1", "2", "0.5", "3.25", "1e-2", "7.5e1", ".25")


def _expression(rng, nvars, depth=0):
    """A random expression as (text, the same in Python, the Python of its bound M).

    M reads every '-' as '+', every i as 1 and every zk as 1, so on the
    unit torus it bounds the modulus of every intermediate result.
    """
    text = py = mag = ""
    for k in range(rng.randint(1, 4)):
        sign = rng.choice(("+", "-")) if k else rng.choice(("", "+", "-"))
        factors = [_factor(rng, nvars, depth) for _ in range(rng.randint(1, 3))]
        text += f" {sign} " + "*".join(f[0] for f in factors)
        py += f" {sign} " + "*".join(f[1] for f in factors)
        mag += " + " + "*".join(f[2] for f in factors)
    return text, py, mag


def _factor(rng, nvars, depth):
    kind = rng.randrange(4 if depth < 2 else 3)
    if kind == 0:
        lit = rng.choice(_LITERALS)
        imag = rng.random() < 0.5
        return lit + "i" * imag, lit + "j" * imag, lit
    if kind == 1:
        var = f"z{rng.randint(1, nvars)}"
        power = rng.choice(("", "^-3", "^-2", "^-1", "^0", "^1", "^2", "^3", "^+2"))
        return var + power, var + power.replace("^", "**"), "1"
    if kind == 2:
        return "i", "1j", "1"
    text, py, mag = _expression(rng, nvars, depth + 1)
    return f"({text})", f"({py})", f"({mag})"


def test_parse_means_what_python_reads_in_the_same_text():
    # an evaluator that shares no code with the parser: Python itself, on
    # the text with ^ as **, a trailing i as j and zk as the k-th coordinate
    rng = random.Random(2013)
    for _ in range(500):
        nvars = rng.randint(1, 3)
        text, py, mag = _expression(rng, nvars)
        z = [cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) for _ in range(nvars)]
        names = {f"z{k + 1}": v for k, v in enumerate(z)}
        want = eval(py, {"__builtins__": {}}, names)
        bound = eval(mag, {"__builtins__": {}})
        assert abs(evaluate(parse_poly(text, nvars), z) - want) <= 1e-12 * bound, text
