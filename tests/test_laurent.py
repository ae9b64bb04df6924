"""Laurent polynomial container, parser arithmetic, dense layout, and torus restriction."""

import math
import random

import numpy as np
import pytest

from amoebas import (
    LaurentPoly,
    Overflow,
    ZeroCoordinate,
    classify,
    evaluate,
    fiber_restrict,
    linear_classify,
    lopsided,
    newton_polytope,
    order,
    parse_poly,
    trace_contour,
)
from amoebas.fiber import _eval_bi
from amoebas.laurent import _dense


@pytest.mark.parametrize("call, says", [
    (lambda: LaurentPoly(0, {}), "need at least one variable"),
    (lambda: LaurentPoly(2, {(1, 2, 3): 1.0}), "wrong arity"),
    (lambda: evaluate(parse_poly("1 + z1 + z2", 2), (1.0,)), "point has wrong arity"),
    (lambda: newton_polytope(parse_poly("0", 2)), "no Newton polytope"),
    (lambda: newton_polytope(parse_poly("1 + z1 + z2 + z3", 3)), "n <= 2"),
    (lambda: trace_contour(parse_poly("1 + z1 + z2", 2), 0), "at least one slice"),
], ids=["no-variables", "exponent-arity", "point-arity", "zero-polytope", "three-variable-polytope",
        "no-slices"])
def test_malformed_arguments_are_value_errors(call, says):
    with pytest.raises(ValueError, match=says):
        call()


def test_terms_are_normalized_and_hashable_exponents():
    f = LaurentPoly(2, {(1, 0): 1.0, (0, 0): 0.0})
    assert (0, 0) not in f.terms  # exact zeros dropped
    assert f.terms[(1, 0)] == 1 + 0j


def test_evaluate_worked_example():
    f = LaurentPoly(2, {(2, 0): 2.0, (1, 1): 1 + 3j, (0, 1): 4j, (0, 0): 1.0})
    assert evaluate(f, (1.0, 1.0)) == pytest.approx(4 + 7j)
    # z1 = 2, z2 = -1: 2*4 + (1+3i)*(-2) + 4i*(-1) + 1 = 7 - 10i
    assert evaluate(f, (2.0, -1.0)) == pytest.approx(7 - 10j)


def test_evaluate_rejects_zero_coordinate_with_negative_exponent():
    f = LaurentPoly(2, {(-1, 0): 1.0, (0, 0): 1.0})
    with pytest.raises(ZeroCoordinate):
        evaluate(f, (0.0, 1.0))


def test_evaluate_zero_coordinate_ok_without_negative_exponents():
    f = LaurentPoly(2, {(2, 1): 3.0, (0, 0): 1.0})
    assert evaluate(f, (0.0, 5.0)) == pytest.approx(1.0)


def test_evaluate_order_independence():
    # Kahan-compensated accumulation over a fixed term order makes the sum
    # reproducible no matter how the terms dict was built
    items = [((3, 1), 1e-16), ((0, 0), 1.0), ((1, 2), -1e-16), ((2, 2), 1e8)]
    f1 = LaurentPoly(2, dict(items))
    f2 = LaurentPoly(2, dict(reversed(items)))
    z = (1.0000001, 0.9999999)
    assert evaluate(f1, z) == evaluate(f2, z)


def test_sums_keep_a_tiny_coefficient():
    # terms of different exponents are never compared with one another
    f = parse_poly("1 + z1 + 1e-15*z2", 2)
    assert f.terms[(0, 1)] == 1e-15
    assert parse_poly("2*z1*(1 + z1 + 1e-15*z2)", 2).terms[(1, 1)] == 2e-15


def test_sums_drop_cancellation_residue():
    # 0.1 + 0.2 - 0.3 leaves 5.6e-17, rounding residue of a cancellation
    text = "1 + 0.1*z1 + 0.2*z1 - 0.3*z1 + z2"
    assert set(parse_poly(text, 2).terms) == {(0, 0), (0, 1)}
    assert parse_poly(f"({text}) - ({text})", 2).terms == {}
    g = parse_poly("(z1 + 1)*(z1 - 1)", 1)
    assert set(g.terms) == {(0,), (2,)}


def test_products_and_sums_are_bit_exact():
    # the parser forms each coefficient as prev + term in source order; a
    # signed zero left by a product is taken to +0 by its first sum
    f = parse_poly("-(1.5i)*z1 + 0.1*z2 + 0.2*z2 + 0.3*z2", 2)
    assert f.terms[(1, 0)] == complex(0.0, -1.5)
    assert math.copysign(1.0, f.terms[(1, 0)].real) == 1.0
    assert f.terms[(0, 1)] == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)


def test_fiber_restrict_normalizes_largest_modulus_to_one():
    f = LaurentPoly(2, {(1, 0): 1.0, (0, 0): 0.5})
    b, log_scale = fiber_restrict(f, (math.log(2.0), 0.0))
    assert log_scale == pytest.approx(math.log(2.0))
    assert b.shape == (2, 1)
    assert b[1, 0] == pytest.approx(1.0)
    assert b[0, 0] == pytest.approx(0.25)


def test_fiber_restrict_survives_huge_w():
    # e^(alpha.w) overflows a float for w1 = 1000; normalization in log
    # space keeps the dominant coefficient at 1 and prunes terms that are
    # numerically invisible next to it
    f = LaurentPoly(2, {(3, 0): 1.0, (0, 0): 1.0})
    b, log_scale = fiber_restrict(f, (1000.0, 0.0))
    assert log_scale == pytest.approx(3000.0)
    # the constant, of relative size e^-3000, is pruned: z1^3 alone is left
    assert b.shape == (1, 1)
    assert abs(b[0, 0]) == pytest.approx(1.0)


def test_fiber_restrict_overflow_guard():
    f = LaurentPoly(2, {(10**6, 0): 1.0, (0, 0): 1.0})
    with pytest.raises(Overflow):
        fiber_restrict(f, (1e303, 0.0))
    with pytest.raises(Overflow):
        fiber_restrict(f, (float("inf"), 0.0))


@pytest.mark.parametrize("w", [(0.0,), (0.0, -9.0, 3.0)], ids=["short", "long"])
@pytest.mark.parametrize("query", [lopsided, order, linear_classify, fiber_restrict, classify],
                         ids=lambda q: q.__name__)
def test_every_point_query_rejects_a_point_of_the_wrong_length(query, w):
    # zip would truncate the point and answer for another one
    with pytest.raises(ValueError, match="wrong arity"):
        query(parse_poly("1 + z1 + 100*z2", 2), w)


# Monomial clearing (multiplying by z^beta so every exponent starts at 0)
# happens as laurent._dense fills its coefficient array.

def test_monomial_clear_shifts_to_origin():
    b = _dense({(-1, 2): 1 + 0j, (3, -2): 2 + 0j}.items(), 2)
    expected = np.zeros((5, 5), dtype=complex)
    expected[0, 4], expected[4, 0] = 1.0, 2.0
    assert np.array_equal(b, expected)


def test_monomial_clear_identity_when_already_cleared():
    b = _dense({(0, 0): 1 + 0j, (2, 1): -1 + 0j}.items(), 2)
    assert np.array_equal(b, [[1.0, 0.0], [0.0, 0.0], [0.0, -1.0]])
    assert np.array_equal(_dense({(2,): 3j, (4,): 1j}.items(), 1), [3j, 0, 1j])
    assert np.array_equal(_dense([], 2), [[0j]])


def test_newton_polytope_quadrilateral():
    f = LaurentPoly(2, {(2, 0): 2.0, (1, 1): 1 + 3j, (0, 1): 4j, (0, 0): 1.0})
    np_ = newton_polytope(f)
    assert set(np_.vertices) == {(0, 0), (2, 0), (1, 1), (0, 1)}
    assert np_.normalized_volume == 3


def test_newton_polytope_drops_interior_points():
    # (1, 1) is the centroid of the big triangle and must not be a vertex
    f = LaurentPoly(2, {(3, 0): 1.0, (0, 3): 1.0, (0, 0): 1.0, (1, 1): -4.0})
    np_ = newton_polytope(f)
    assert set(np_.vertices) == {(0, 0), (3, 0), (0, 3)}
    assert np_.normalized_volume == 9


def test_newton_polytope_segment_and_point():
    seg = newton_polytope(LaurentPoly(2, {(0, 0): 1.0, (2, 2): 1.0}))
    assert seg.normalized_volume == 0
    pt = newton_polytope(LaurentPoly(2, {(4, 1): 2.0}))
    assert pt.vertices == ((4, 1),)
    assert pt.normalized_volume == 0


def test_newton_polytope_in_one_variable():
    np_ = newton_polytope(parse_poly("z1^-2 + 3*z1^5", 1))
    assert np_.vertices == ((-2,), (5,))
    assert np_.normalized_volume == 7


def test_restriction_agrees_with_direct_evaluation():
    rng = random.Random(2024)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(2, 6)):
            a = (rng.randint(-3, 3), rng.randint(-3, 3))
            terms[a] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        f = LaurentPoly(2, terms)
        w = (rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        b, log_scale = fiber_restrict(f, w)
        # nothing is pruned here, so b[0, 0] stands for t^lo
        lo = [f.degree_span(j)[0] for j in (0, 1)]
        assert b.shape == tuple(f.degree_span(j)[1] - lo[j] + 1 for j in (0, 1))
        phi = (rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        t = (complex(math.cos(phi[0]), math.sin(phi[0])),
             complex(math.cos(phi[1]), math.sin(phi[1])))
        z = (math.exp(w[0]) * t[0], math.exp(w[1]) * t[1])
        lhs = evaluate(f, z)
        rhs = math.exp(log_scale) * t[0] ** lo[0] * t[1] ** lo[1] * _eval_bi(b, *t)[0]
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
