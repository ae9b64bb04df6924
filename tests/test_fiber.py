"""Fiber-torus membership, classification, order, and lopsidedness."""

import cmath
import collections
import functools
import math
import random
import tracemalloc

import numpy as np
import pytest

import amoebas.fiber
import amoebas.numeric
from amoebas import (
    DegenerateFiber,
    IdenticallyZero,
    InconsistentOrder,
    LaurentPoly,
    NoConvergence,
    Overflow,
    amoeba_grids,
    classify,
    classify_contour,
    contour_slice,
    evaluate,
    fiber_restrict,
    fiber_solutions,
    lopsided,
    order,
    parse_poly,
    trace_contour,
)
from amoebas.fiber import CRITICAL_TOL, UNIT_BAND, _eval_bi, _score
from amoebas.laurent import _dense
from amoebas.numeric import RootCluster, roots, sylvester_resultant

from oracles import brute_member, eval_at_phases, torus_min_modulus

TAU = 2.0 * math.pi


def angdist(a, b):
    d = abs(a - b) % TAU
    return min(d, TAU - d)


# --------------------------------------------------------------------------
# hand-checked fibers
# --------------------------------------------------------------------------

def test_linear_boundary_tangency():
    # 1 + z1 + z2 at the symmetric boundary point e^w1 + e^w2 = 1:
    # single solution at phi = (pi, pi), a double tangency
    f = parse_poly("1 + z1 + z2", 2)
    w = (math.log(0.5), math.log(0.5))
    sols = fiber_solutions(f, w)
    assert len(sols) == 1
    s = sols[0]
    assert angdist(s.phi[0], math.pi) < 1e-7
    assert angdist(s.phi[1], math.pi) < 1e-7
    assert s.multiplicity == 2
    assert s.critical
    assert classify(f, w).tag == "Boundary"


def test_linear_interior_two_transversal_solutions():
    f = parse_poly("1 + z1 + z2", 2)
    w = (math.log(0.8), math.log(0.7))
    sols = fiber_solutions(f, w)
    assert len(sols) == 2
    assert all(not s.critical for s in sols)
    # conjugate pair
    assert angdist(sols[0].phi[0], TAU - sols[1].phi[0]) < 1e-9
    assert angdist(sols[0].phi[1], TAU - sols[1].phi[1]) < 1e-9
    assert classify(f, w).tag == "Interior"


def test_linear_complement_empty_fiber():
    f = parse_poly("1 + z1 + z2", 2)
    assert fiber_solutions(f, (math.log(0.2), math.log(0.3))) == []
    assert classify(f, (math.log(0.2), math.log(0.3))).tag == "Complement"


def test_cubic_special_point_census():
    # z1^3 + z2^3 + z1*z2 + 1 over the origin: nine solutions at angle
    # multiples of pi/3, each a tangential double point, so the origin is
    # an (extended) boundary point; the Gauss directions split, hence the
    # singular-contour caveat
    f = parse_poly("z1^3 + z2^3 + z1*z2 + 1", 2)
    pc = classify(f, (0.0, 0.0))
    assert pc.tag == "Boundary"
    assert pc.caveat is True
    assert len(pc.solutions) == 9
    step = math.pi / 3.0
    expected = {(1, 5), (3, 3), (5, 1), (0, 3), (2, 1), (4, 5), (3, 0), (1, 2), (5, 4)}
    got = set()
    for s in pc.solutions:
        a = round(s.phi[0] / step) % 6
        b = round(s.phi[1] / step) % 6
        assert angdist(s.phi[0], a * step) < 1e-6
        assert angdist(s.phi[1], b * step) < 1e-6
        assert s.multiplicity == 2
        assert s.critical
        got.add((a, b))
    assert got == expected
    # every solution really lies on the variety
    terms = list(f.terms.items())
    for s in pc.solutions:
        assert abs(eval_at_phases(terms, (0.0, 0.0), s.phi)) < 1e-8


def test_cubic_nearby_complement():
    f = parse_poly("z1^3 + z2^3 + 1.3*z1*z2 + 1", 2)
    pc = classify(f, (0.0, 0.0))
    assert pc.tag == "Complement"
    assert pc.solutions == ()


# f = z1^3 + z2^3 + c*z1*z2 + 1 has its order-(1, 1) complement component
# exactly when c lies outside the deltoid c(t) = -(2e^{it} + e^{-2it});
# on the deltoid the component shrinks to w = 0 (Theobald and de Wolff,
# Amoebas of genus at most one, Adv. Math. 2013).  r scales c(t).
DELTOID = [(k, r) for k in range(12) for r in (0.99, 1 - 1e-4, 1.0, 1 + 1e-4, 1.01)]
DELTOID_IDS = [f"k{k}-r{r}" for k, r in DELTOID]


@functools.lru_cache(maxsize=None)
def deltoid_at(t, r):
    c = r * -(2.0 * cmath.exp(1j * t) + cmath.exp(-2j * t))
    return classify(LaurentPoly(2, {(3, 0): 1, (0, 3): 1, (1, 1): c, (0, 0): 1}), (0.0, 0.0))


def deltoid_class(k, r):
    return deltoid_at(TAU * k / 12, r)


@pytest.mark.parametrize("k, r", DELTOID, ids=DELTOID_IDS)
def test_deltoid_family_origin_tag(k, r):
    want = "Interior" if r < 1 else "Boundary" if r == 1 else "Complement"
    assert deltoid_class(k, r).tag == want


# the cusps c = -3 and c = 1.5 + 2.598076211353316i lose fiber solutions:
# see the FOUND line on the deltoid cusps in CHANGES.md
_CUSP = pytest.mark.xfail(strict=True, reason="candidates at the sixfold cusp nodes "
                          "polish above RESIDUAL_REL and are dropped")


@pytest.mark.parametrize("k, r", [
    pytest.param(k, r, marks=[_CUSP] if r == 1 and k in (0, 8) else [], id=i)
    for (k, r), i in zip(DELTOID, DELTOID_IDS)])
def test_deltoid_family_fiber_is_z3_symmetric(k, r):
    # (z1, z2) -> (u*z1, u^2*z2) with u^3 = 1 keeps the moduli and f, so
    # the fiber over the origin comes in orbits of three
    pc = deltoid_class(k, r)
    assert pc.tag == "Complement" or len(pc.solutions) % 3 == 0, pc


# the cusp c = -3 is (z1 + z2 + 1)(z1 + w z2 + w^2)(z1 + w^2 z2 + w), w^3 = 1,
# and its factor 1 + z1 + z2 meets the fibers near the origin
CUSP_RING = [(0.0, 1e-3), (0.0, -1e-3), (0.0, 3e-4), (0.0, -3e-4)]


@pytest.mark.parametrize("w", CUSP_RING)
def test_the_deltoid_cusp_near_the_origin_has_torus_zeros(w):
    f = parse_poly("z1^3 + z2^3 - 3*z1*z2 + 1", 2)
    assert classify(parse_poly("1 + z1 + z2", 2), w).tag == "Interior"
    assert torus_min_modulus(list(f.terms.items()), w) < 1e-14


# see the FOUND line on the deltoid cusp ring in CHANGES.md
@pytest.mark.xfail(strict=True, reason="_merge_near_unit fuses distinct resultant "
                   "roots near the cusp")
@pytest.mark.parametrize("w", CUSP_RING)
def test_the_deltoid_cusp_near_the_origin_is_not_complement(w):
    assert classify(parse_poly("z1^3 + z2^3 - 3*z1*z2 + 1", 2), w).tag != "Complement"


def seeded_deltoid_parameters():
    rng = random.Random(20261021)
    return [rng.uniform(0.0, TAU) for _ in range(60)]


DELTOID_SWEEP = seeded_deltoid_parameters()


# off the deltoid every answer holds down to |r - 1| = 1e-4 inside and 1e-6
# outside; at r = 1 - 1e-5 and 1 - 1e-6, 57 and 60 of the 60 answers are not
# Interior, the resolution limit of the merge (ROADMAP item 3), so no test
@pytest.mark.parametrize("r", [1 - 1e-2, 1 - 1e-3, 1 - 1e-4,
                               1 + 1e-2, 1 + 1e-3, 1 + 1e-4, 1 + 1e-5, 1 + 1e-6])
def test_seeded_deltoid_sweep_off_the_curve(r):
    want = "Interior" if r < 1 else "Complement"
    assert [deltoid_at(t, r).tag for t in DELTOID_SWEEP] == [want] * len(DELTOID_SWEEP)


# the fiber over the origin is nine double points; at these nine t, away from the
# cusps, some split into a critical and a non-critical half 4e-5 to 5e-4 apart:
# ROADMAP item 3
_SPLIT = pytest.mark.xfail(strict=True, reason="double points polish into two "
                           "solutions farther apart than GROUP_RADIUS")


@pytest.mark.parametrize("i", [
    pytest.param(i, marks=[_SPLIT] if i in (5, 10, 26, 30, 33, 40, 44, 49, 55) else [],
                 id=f"t{i}") for i in range(len(DELTOID_SWEEP))])
def test_seeded_deltoid_sweep_on_the_curve(i):
    assert deltoid_at(DELTOID_SWEEP[i], 1.0).tag == "Boundary"


@pytest.mark.parametrize("text", ["z1^5000*z2 + z2 + 1", "z1*z2^500 + z2 + 1", "z2^5000 + 1"])
def test_a_resultant_above_the_degree_ceiling_is_refused_at_once(text):
    # the resultant's degree (10,000), or its 1,001 Sylvester matrices of order
    # 1,000 (16 GB), or one of order 10,000 (1.6 GB): each is refused before it is
    # built; measured peaks 0.05 to 0.4 MB
    f = parse_poly(text, 2)
    tracemalloc.start()
    try:
        with pytest.raises(Overflow, match="resultant too large"):
            classify(f, (0.0, 0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_a_lopsided_point_of_a_curve_above_the_ceiling_still_answers():
    assert classify(parse_poly("z1^5000*z2 + z2 + 1", 2), (0.01, 0.0)).tag == "Complement"


def test_order_refuses_a_slice_above_the_degree_ceiling():
    with pytest.raises(Overflow, match="degree 1001 is above the root finder's ceiling 1000"):
        order(parse_poly("z1^1001 + 2", 2), (0.0, 0.0))
    assert order(parse_poly("z1^1000 + 2", 2), (0.0, 0.0)) == (0, 0)


def test_quadnomial_interior_and_complement():
    inside = parse_poly("-2*z1^2 - 2*z1*z2^2 + 1.5i*z1^-1*z2^-1 - 1.2", 2)
    pc = classify(inside, (0.0, 0.0))
    assert pc.tag == "Interior"
    assert any(not s.critical for s in pc.solutions)

    outside = parse_poly("-2*z1^2 - 2*z1*z2^2 + 1.5i*z1^-1*z2^-1 - 4.9", 2)
    pc = classify(outside, (0.0, 0.0))
    assert pc.tag == "Complement"


def test_solutions_sorted_and_in_range():
    f = parse_poly("-2*z1^2 - 2*z1*z2^2 + 1.5i*z1^-1*z2^-1 - 1.2", 2)
    sols = fiber_solutions(f, (0.0, 0.0))
    phis = [s.phi for s in sols]
    assert phis == sorted(phis)
    for p1, p2 in phis:
        assert 0.0 <= p1 < TAU
        assert 0.0 <= p2 < TAU


def test_conjugation_symmetry_for_real_coefficients():
    f = parse_poly("z1^2*z2 + z1*z2^2 - 4*z1*z2 + 1", 2)
    sols = fiber_solutions(f, (1.1, 0.4))
    assert sols
    for s in sols:
        mirror = ((TAU - s.phi[0]) % TAU, (TAU - s.phi[1]) % TAU)
        assert any(
            angdist(t.phi[0], mirror[0]) < 1e-7 and angdist(t.phi[1], mirror[1]) < 1e-7
            for t in sols
        )


# --------------------------------------------------------------------------
# the dense kernel shared with the contour sweep
# --------------------------------------------------------------------------

def test_dense_evaluator_matches_sparse_evaluation():
    rng = random.Random(4711)
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(1, 8)):
            a = (rng.randint(-3, 4), rng.randint(-3, 4))
            terms[a] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        # the sparse side needs the cleared polynomial that _dense holds
        lo = [min(a[j] for a in terms) for j in (0, 1)]
        g = LaurentPoly(2, {(a1 - lo[0], a2 - lo[1]): c for (a1, a2), c in terms.items()})
        z = tuple(
            math.exp(rng.uniform(-1, 1)) * complex(math.cos(p), math.sin(p))
            for p in (rng.uniform(0, TAU), rng.uniform(0, TAU))
        )
        got = _eval_bi(_dense(g.terms.items(), 2), *z)
        # z_j dg/dz_j term by term: each coefficient times its z_j-exponent
        sparse = (g,) + tuple(LaurentPoly(2, {a: b * a[j] for a, b in g.terms.items()})
                              for j in (0, 1))
        for value, p in zip(got, sparse):
            assert type(value) is complex
            # relative to the sum of the term moduli, which cancellation
            # in the value itself cannot shrink
            scale = sum(abs(b * z[0] ** a1 * z[1] ** a2) for (a1, a2), b in p.terms.items())
            assert abs(value - evaluate(p, z)) <= 1e-12 * max(scale, 1e-300)


def test_lopsided_shortcut_implies_a_dominant_term(monkeypatch):
    # record the size of every root finder request; a fiber whose
    # restriction is not constant and that asks for no roots was decided by
    # the dominance shortcut
    calls = []
    real = amoebas.fiber._roots_batch
    monkeypatch.setattr(amoebas.fiber, "_roots_batch",
                        lambda polys: calls.append(len(polys)) or real(polys))
    rng = random.Random(99)
    shortcuts = 0
    for k in range(400):
        if k % 2:
            # points on either side of the lopsided boundary of
            # 1 + b1 z1 - b2 z2, where the z1 term beats or trails the sum
            # of the others by a relative margin eps
            b1, b2 = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
            f = LaurentPoly(2, {(0, 0): 1.0, (1, 0): b1, (0, 1): -b2})
            w2 = rng.uniform(-2.0, 2.0)
            eps = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12, -3)
            w = (math.log((1.0 + b2 * math.exp(w2)) * (1.0 + eps) / b1), w2)
        else:
            terms = {}
            for _ in range(rng.randint(2, 6)):
                a = (rng.randint(-3, 3), rng.randint(-3, 3))
                mag = 10.0 ** rng.uniform(-16, 2)
                terms[a] = mag * complex(math.cos(k), math.sin(k * 1.7))
            f = LaurentPoly(2, terms)
            w = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        if len(f.terms) < 2:
            continue
        calls.clear()
        try:
            sols = fiber_solutions(f, w)
        except DegenerateFiber:
            continue
        if not any(calls) and np.count_nonzero(fiber_restrict(f, w)[0]) > 1:
            shortcuts += 1
            assert not sols
            assert lopsided(f, w) is not None, (dict(f.terms), w)
    assert shortcuts > 100


# --------------------------------------------------------------------------
# degenerate fibers
# --------------------------------------------------------------------------

def test_degenerate_full_circle_intersection():
    # z1 z2 - 1 vanishes on the whole fiber torus over the anti-diagonal
    f = parse_poly("z1*z2 - 1", 2)
    with pytest.raises(DegenerateFiber):
        fiber_solutions(f, (0.0, 0.0))
    assert classify(f, (0.0, 0.0)).tag == "Degenerate"
    # off the anti-diagonal the fiber is empty
    assert classify(f, (0.5, 0.0)).tag == "Complement"


def test_degenerate_univariate_restriction():
    # z1 - 2 meets the fiber over w1 = log 2 in a full circle of z2 values
    f = parse_poly("z1 - 2", 2)
    with pytest.raises(DegenerateFiber):
        fiber_solutions(f, (math.log(2.0), 0.0))
    assert fiber_solutions(f, (0.0, 0.0)) == []


def test_univariate_restriction_needs_no_root_finder(monkeypatch):
    # z1^3 - 2 z1 + 5 restricts to a polynomial in t1 alone, whose
    # resultant with its mirror is a nonzero constant away from the root
    # moduli: one Aberth sweep, which leaves its roots unconverged, cannot
    # touch the verdict
    f = parse_poly("z1^3 - 2*z1 + 5", 2)
    monkeypatch.setattr(amoebas.numeric, "ABERTH_SWEEPS", 1)
    restriction = fiber_restrict(f, (0.5, 0.0))[0][:, 0]
    assert restriction.size == 4 and not all(cl.converged for cl in roots(restriction))
    assert classify(f, (0.5, 0.0)).tag == "Complement"


def test_a_root_pair_off_the_circle_is_no_full_circle():
    # roots 2, 0.5 and -1.5: over w1 = 0 the restriction and its mirror
    # share the pair 2, 1/2, so their resultant vanishes, but no root lies
    # on |t| = 1 and the term sum is not lopsided (2 x 2.75 < 6.25)
    f = parse_poly("z1^3 - z1^2 - 2.75*z1 + 1.5", 2)
    gb = fiber_restrict(f, (0.0, 0.0))[0].T
    with pytest.raises(IdenticallyZero):
        sylvester_resultant(gb, np.conj(gb)[::-1, ::-1])
    assert lopsided(f, (0.0, 0.0)) is None
    assert classify(f, (0.0, 0.0)).tag == "Complement"
    assert classify(f, (math.log(2.0), 0.0)).tag == "Degenerate"


def univariate_cases(seed, count, pairs=False):
    """Seeded polynomials in one variable, each at a point near a root modulus.

    Yields (f, w, dist): w puts the fiber at log|r| + delta for a root r
    of f, and dist is the distance of the nearest restriction root from
    |t| = 1, from mpmath's polyroots at 50 digits.  With ``pairs``, f has
    two roots r, s of one argument (real ones, and real coefficients, in
    every other case) and w sits at the mean of log|r| and log|s|, where
    the restriction and its mirror share both roots.
    """
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(seed)
    for k in range(count):
        lo, var = rng.randint(-2, 1), k % 2
        if pairs:
            mid, gap = rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-8, 0)
            if k % 4 < 2:
                sign = rng.choice((-1.0, 1.0))
                zs = [sign * math.exp(mid + gap), sign * math.exp(mid - gap)]
                zs += [rng.uniform(-2, 2) for _ in range(rng.randint(0, 2))]
            else:
                arg = rng.uniform(0.0, TAU)
                zs = [cmath.rect(math.exp(mid + gap), arg), cmath.rect(math.exp(mid - gap), arg)]
                zs += [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                       for _ in range(rng.randint(0, 2))]
            coeffs = [complex(c) for c in np.poly(zs)[::-1]]
        else:
            coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                      for _ in range(rng.randint(1, 4) + 1)]
        exps = [(lo + i, 0) if var == 0 else (0, lo + i) for i in range(len(coeffs))]
        f = LaurentPoly(2, dict(zip(exps, coeffs)))
        with mpmath.workdps(50):
            found = mpmath.polyroots([mpmath.mpc(c) for c in coeffs[::-1]],
                                     maxsteps=200, extraprec=200)
            if pairs:
                wv = mid
            else:
                wv = float(mpmath.log(abs(rng.choice(found)))) + (
                    rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16, -2))
            dist = float(min(abs(abs(r) / mpmath.exp(wv) - 1) for r in found))
        other = rng.uniform(-2.0, 2.0)
        yield f, ((wv, other) if var == 0 else (other, wv)), dist


@pytest.mark.parametrize("pairs", [False, True], ids=["near-a-root", "between-a-pair"])
def test_univariate_verdicts_match_a_50_digit_root_census(pairs):
    # the fiber over a root modulus holds a full circle; nearby it is
    # empty, and so it is between two roots of one argument
    tags = set()
    for f, w, dist in univariate_cases(20261019, 300, pairs):
        tag = classify(f, w).tag
        if tag == "Degenerate":
            assert dist <= 1e-6, (dict(f.terms), w, dist)
        else:
            assert tag == "Complement" and dist >= 1e-13, (dict(f.terms), w, dist, tag)
        tags.add(tag)
    assert tags == {"Complement", "Degenerate"}


# (z1 - 1)(1 + z1 + z2) holds the line z1 = 1, whose fiber circles lie over
# w1 = 0 only; nearby, the restriction's slice at t1 = e^-w1 vanishes, but
# that t1 is off the torus, and the fiber holds the two points of the line
# factor, as the swapped curve finds them
LINE_TIMES_LINE = "(z1 - 1)*(1 + z1 + z2)"


@pytest.mark.parametrize("w", [(0.01, 0.0), (-0.01, 0.0), (0.02, 0.3)])
def test_vanished_slice_off_the_torus_is_skipped(w):
    sols = fiber_solutions(parse_poly(LINE_TIMES_LINE, 2), w)
    swapped = fiber_solutions(parse_poly("(z2 - 1)*(1 + z2 + z1)", 2), w[::-1])
    assert len(sols) == 2
    expected = sorted((s.phi[::-1], s.multiplicity, s.critical) for s in swapped)
    for s, (phi, mult, critical) in zip(sols, expected):
        assert angdist(s.phi[0], phi[0]) < 1e-9 and angdist(s.phi[1], phi[1]) < 1e-9
        assert (s.multiplicity, s.critical) == (mult, critical)


@pytest.mark.parametrize("text, t1, vanished", [
    (LINE_TIMES_LINE, 1.0, True),  # the factor root: g(1, .) is zero
    (LINE_TIMES_LINE, -0.5, False),  # the line's root: g(-0.5, .) = -1.5 (0.5 + t2)
    # the bound weighs the slice by |t1|^deg1: a factor root of modulus 1e4
    # known to 1e-11 leaves 1e-7 here, below 1e-13 * 20002 * 1e4
    ("(z1 - 1e4)*(1 + z2)", 1e4 + 1e-7, True),
    ("(z1 - 1e4)*(1 + z2)", -1.0, False),
])
def test_slice_vanishes_at_a_factor_root_only(monkeypatch, text, t1, vanished):
    # one solve through _staged that asks for roots twice: a t1 polynomial,
    # then the slice at t1 unless it vanished; the root finder's second
    # batch holds the slices that did not vanish
    gb = _dense(parse_poly(text, 2).terms.items(), 2)
    batches, gone = [], []
    real = amoebas.fiber._roots_batch
    monkeypatch.setattr(amoebas.fiber, "_roots_batch",
                        lambda polys: batches.append(polys) or real(polys))

    def solve():
        yield [[1.0]]
        slice_c = amoebas.fiber._slice(gb, float(np.abs(gb).sum()), t1)
        if slice_c is None:
            gone.append(t1)
            return []
        return (yield [slice_c])

    found = next(amoebas.fiber._staged([solve()], ()))
    assert gone == ([t1] if vanished else [])
    assert len(found) == (0 if vanished else 1)
    if not vanished:
        (got,) = batches[1]
        np.testing.assert_array_equal(got, (t1 ** np.arange(gb.shape[0])) @ gb)


def backsub_slices(f, w, clusters):
    """One fiber solve without the column check, given ``clusters`` as its resultant root
    clusters: the slices that did not vanish, which it asks roots of, or the DegenerateFiber."""
    solve = amoebas.fiber._solve(f, w, False)
    next(solve)
    try:
        return solve.send([clusters])
    except DegenerateFiber as exc:
        return exc


def test_vanished_slice_on_the_unit_circle_is_a_full_circle():
    # an exact resultant cluster at t1 = 1 over w1 = 0: g vanishes on the
    # line t1 = 1, which lies on the torus
    out = backsub_slices(parse_poly(LINE_TIMES_LINE, 2), (0.0, 0.3), [RootCluster(1.0, 2)])
    assert isinstance(out, DegenerateFiber)


def test_vanished_slices_of_a_root_pair_off_the_circle_are_skipped():
    # z1^2 - (1.01 + 1/1.01) z1 + 1 has the roots 1.01 and 1/1.01, both in
    # the unit band: g and its mirror vanish on both lines, neither of
    # which meets the torus, and the line factor keeps its two points
    f = parse_poly("(z1^2 - 2.0000990099009901*z1 + 1)*(1 + z1 + z2)", 2)
    pair = [RootCluster(1.01, 2), RootCluster(1.0 / 1.01, 2)]
    assert backsub_slices(f, (0.0, 0.0), pair) == []
    line = fiber_solutions(parse_poly("1 + z1 + z2", 2), (0.0, 0.0))
    sols = fiber_solutions(f, (0.0, 0.0))
    assert len(sols) == len(line) == 2
    for s, t in zip(sols, line):
        assert angdist(s.phi[0], t.phi[0]) < 1e-9 and angdist(s.phi[1], t.phi[1]) < 1e-9


@pytest.mark.parametrize("w2", [0.3, -0.7, 0.0])
def test_a_t2_free_factor_with_a_unit_root_is_a_full_circle(w2):
    # over w1 = 0 every fiber holds the circle z1 = 1; the resultant's double
    # root there comes back only to about 1e-10, but t1 = 1 is a root of
    # every t2-coefficient column of g, so the column check finds it
    assert classify(parse_poly(LINE_TIMES_LINE, 2), (0.0, w2)).tag == "Degenerate"
    assert classify(parse_poly("(z2 - 1)*(1 + z2 + z1)", 2), (w2, 0.0)).tag == "Degenerate"
    with pytest.raises(DegenerateFiber):
        fiber_solutions(parse_poly(LINE_TIMES_LINE, 2), (0.0, w2))
    # the circle z1 = -1 of a product of two coordinate lines
    assert classify(parse_poly("(1 + z1)*(1 + z2)", 2), (0.0, w2 + 0.5)).tag == "Degenerate"


@pytest.mark.parametrize("w2", [0.3, -0.5, 0.0])
def test_a_t2_free_factor_off_the_circle_keeps_the_isolated_points(w2):
    # the column root t1 = 2 of (z1 - 2)(1 + z1 + z2) vanishes its slice but
    # misses the torus over w1 = 0, which holds the line factor's two points
    sols = fiber_solutions(parse_poly("(z1 - 2)*(1 + z1 + z2)", 2), (0.0, w2))
    line = fiber_solutions(parse_poly("1 + z1 + z2", 2), (0.0, w2))
    assert len(sols) == len(line) == 2
    for s, t in zip(sols, line):
        assert angdist(s.phi[0], t.phi[0]) < 1e-9 and angdist(s.phi[1], t.phi[1]) < 1e-9
        assert (s.multiplicity, s.critical) == (t.multiplicity, t.critical)


def swap_variables(text):
    """The z1-z2-swapped curve's text."""
    return text.replace("z1", "zz").replace("z2", "z1").replace("zz", "z2")


@pytest.mark.parametrize("text", [
    "(z2 - 2)*(z2 - 0.5)*(1 + z1 + z2)",
    "(z2 - 2)*(z2 - 0.5)*(3 + z1 + z2)",
    "(z2 - 1)*(1 + z2 + z1)",
    "(z2 + 1)*(z2 - 3)*(1 + z2 + z1)",
])
@pytest.mark.parametrize("w", [(0.0, 0.0), (0.5, 0.0), (-0.3, 0.0), (0.2, 0.3)])
def test_a_factor_in_t2_alone_answers_as_the_swapped_curve(text, w):
    # over w2 = 0 a factor of g in t2 alone with the root pair 2, 1/2 or a
    # root on |t| = 1 divides g's mirror, so the resultant that eliminates t2
    # vanishes identically; a root on |t| = 1 is a full circle, and the pair
    # is divided out of g, which answers as the swapped curve does
    got = classify(parse_poly(text, 2), w)
    want = classify(parse_poly(swap_variables(text), 2), w[::-1])
    assert (got.tag, len(got.solutions)) == (want.tag, len(want.solutions))
    expected = sorted(s.phi[::-1] for s in want.solutions)
    for s, phi in zip(got.solutions, expected):
        assert angdist(s.phi[0], phi[0]) < 1e-9 and angdist(s.phi[1], phi[1]) < 1e-9


def test_a_factor_shared_in_two_variables_stays_degenerate():
    # a multiple of its own mirror at (0, 0), so the resultant vanishes, and
    # g has no factor in t2 alone to divide out; the point stays Degenerate,
    # although neither factor meets that torus: a known miss, since telling
    # so needs a gcd
    f = parse_poly("(z1 + z2 + 2.5)*(z1 + z2 + 2.5*z1*z2)", 2)
    assert classify(f, (0.0, 0.0)).tag == "Degenerate"


def assert_same_fiber(got, want, tol=1e-9):
    """The two PointClass answers agree in tag, count and, within tol, every solution's phases."""
    assert (got.tag, len(got.solutions)) == (want.tag, len(want.solutions)), (got, want)
    for s, t in zip(got.solutions, want.solutions):
        assert angdist(s.phi[0], t.phi[0]) < tol and angdist(s.phi[1], t.phi[1]) < tol, (s, t)
        assert (s.multiplicity, s.critical) == (t.multiplicity, t.critical), (s, t)


LINE = "1 + z1 + z2"


@pytest.mark.parametrize("text", [
    # a pair 2, 1/2 in each variable: the z2 pair is divided out, and the z1
    # pair, a t2-free factor, leaves the resultant of the quotient nonzero
    f"(z1 - 2)*(z1 - 0.5)*(z2 - 2)*(z2 - 0.5)*({LINE})",
    # each root twice: divided out as often as g holds it
    f"(z2 - 2)*(z2 - 2)*(z2 - 0.5)*(z2 - 0.5)*({LINE})",
    f"(z2 - 2)*(z2 - 2)*(z2 - 2)*(z2 - 0.5)*(z2 - 0.5)*(z2 - 0.5)*({LINE})",
])
def test_factors_in_t2_alone_divide_out_of_the_fiber(text):
    assert_same_fiber(classify(parse_poly(text, 2), (0.0, 0.0)),
                      classify(parse_poly(LINE, 2), (0.0, 0.0)))


def test_factors_are_counted_in_g_not_in_one_row():
    # the coefficient of z1^0 holds each of 2 and 1/2 twice, g once each;
    # each is found, and divided out, as often as g holds it
    cofactor = "(z2 - 2)*(z2 - 0.5) + z1*(z2 + 0.5)*(z2 + 1)"
    for w in [(0.0, 0.0), (0.3, 0.0), (-0.2, 0.0)]:
        want = classify(parse_poly(cofactor, 2), w)
        assert want.tag == "Interior"
        assert_same_fiber(classify(parse_poly(f"(z2 - 2)*(z2 - 0.5)*({cofactor})", 2), w), want)


@pytest.mark.parametrize("text", [
    "(z2 - 2)*(z2 - 0.5)*(z1 - 3)",
    # the quotient z1^3 - z1^2 - 2.75 z1 + 1.5 is not lopsided, and its own
    # pair 2, 1/2 is divided out after the transpose
    "(z2 - 2)*(z2 - 0.5)*(z1^3 - z1^2 - 2.75*z1 + 1.5)",
])
def test_a_quotient_without_t2_is_solved_transposed(text):
    assert classify(parse_poly(text, 2), (0.0, 0.0)).tag == "Complement"


@pytest.mark.parametrize("row0_shares", [False, True], ids=["generic", "row0-shares-a-root"])
def test_root_pairs_in_t2_alone_leave_the_cofactor_fiber(row0_shares):
    # g = P(z2) h, where P holds a root pair r, 1/conj(r), each of
    # multiplicity 1-3, so that over w2 = 0 g is a multiple of its own
    # mirror; the fiber of g is the fiber of h.  With row0_shares, h's
    # coefficient of z1^0 holds one root of the pair once more than g does.
    rng = random.Random(20261021)
    tags = collections.Counter()
    for k in range(150):
        d1, d2 = rng.randint(1, 2), rng.randint(1, 2)
        h = np.array([[complex(round(rng.uniform(-2, 2), 2), round(rng.uniform(-2, 2), 2) * (k % 2))
                       for _ in range(d2 + 1)] for _ in range(d1 + 1)])
        if k % 5 == 0:
            r = rng.choice([2, 3, -2, 0.5, 1.5, -1.25, 4])
        else:
            r = cmath.rect(math.exp(rng.choice((-1, 1)) * rng.uniform(0.05, 1.2)),
                           rng.uniform(0, TAU) * (k % 3 > 0))
        pair = [r] * rng.randint(1, 3) + [1 / np.conj(r)] * rng.randint(1, 3)
        if row0_shares:
            h[0] = np.convolve(h[0][:-1], [-pair[0] if k % 2 else -pair[-1], 1])
        g = np.array([np.convolve(row, np.poly(pair)[::-1]) for row in h])
        w = (round(rng.uniform(-0.6, 0.6), 3), 0.0)
        got, want = (classify(LaurentPoly(2, {(i, j): complex(c) for (i, j), c in np.ndenumerate(b)
                                              if c != 0}), w) for b in (g, h))
        assert_same_fiber(got, want, tol=1e-6)
        tags[got.tag] += 1
    assert set(tags) == {"Complement", "Interior"}


@pytest.mark.parametrize("text, checked", [
    (LINE_TIMES_LINE, True),
    ("(z1 - 2)*(1 + z1 + z2)", True),
    # a column of one term (z2^3 alone) has no root off 0: no t2-free factor
    ("z1^3 + z2^3 + z1*z2 + 1", False),
    ("1 + z1 + z2", False),
])
def test_the_column_check_runs_only_for_curves_without_a_one_term_column(
        monkeypatch, text, checked):
    calls = []
    real = amoebas.fiber._solve
    monkeypatch.setattr(amoebas.fiber, "_solve",
                        lambda f, w, columns: calls.append(columns) or real(f, w, columns))
    list(amoebas.fiber._fibers(parse_poly(text, 2), [(0.3, 0.2), (-0.4, 0.1)]))
    assert calls == [checked] * 2


def test_unconverged_resultant_root_near_the_circle_raises(monkeypatch):
    # 1 + z1 + z2 meets the unit torus twice; one Aberth sweep leaves
    # resultant roots unconverged within the unit band, which must not
    # read as an empty fiber
    f = parse_poly("1 + z1 + z2", 2)
    assert len(fiber_solutions(f, (0.0, 0.0))) == 2
    monkeypatch.setattr(amoebas.numeric, "ABERTH_SWEEPS", 1)
    with pytest.raises(NoConvergence):
        fiber_solutions(f, (0.0, 0.0))
    with pytest.raises(NoConvergence):
        classify(f, (0.0, 0.0))


def slow_batch(monkeypatch, which):
    """Give the which-th batched root finder call of a solve one Aberth sweep.

    The first call of a fiber solve finds the resultant roots, the second
    the back-substitution roots.  Returns the batch sizes seen.
    """
    real = amoebas.fiber._roots_batch
    calls = []

    def wrapped(polys):
        calls.append(len(polys))
        with monkeypatch.context() as m:
            if len(calls) == which:
                m.setattr(amoebas.numeric, "ABERTH_SWEEPS", 1)
            return real(polys)

    monkeypatch.setattr(amoebas.fiber, "_roots_batch", wrapped)
    return calls


def test_the_driver_batches_every_request(monkeypatch):
    # six fibers of a curve with the column check: one root finder call for
    # the columns, one for the resultants and one for the slices
    calls = []
    real = amoebas.fiber._roots_batch
    monkeypatch.setattr(amoebas.fiber, "_roots_batch",
                        lambda polys: calls.append(len(polys)) or real(polys))
    ws = [(0.3 + 0.01 * k, 0.2) for k in range(6)]
    solved = list(amoebas.fiber._fibers(parse_poly(LINE_TIMES_LINE, 2), ws))
    assert [n for n in calls if n] == [6, 6, 12]
    assert [(pc.tag, len(pc.solutions)) for pc in solved] == [("Interior", 2)] * 6


@pytest.mark.parametrize("which", [1, 2], ids=["resultant", "backsub"])
def test_unconverged_root_at_either_stage_raises(monkeypatch, which):
    calls = slow_batch(monkeypatch, which)
    with pytest.raises(NoConvergence):
        fiber_solutions(parse_poly("1 + z1 + z2", 2), (0.0, 0.0))
    # the slow stage had work, and no later stage got any
    assert calls[which - 1] > 0 and not any(calls[which:])


def test_unconverged_root_off_the_circle_raises(monkeypatch):
    # one Aberth sweep leaves all nine resultant roots of the cubic
    # unconverged, every one outside the unit band; where they stopped says
    # nothing about where they belong, so they must not read as an empty
    # fiber either
    f = parse_poly("z1^3 + z2^3 + z1*z2 + 1", 2)
    assert classify(f, (0.0, 0.0)).tag == "Boundary"
    monkeypatch.setattr(amoebas.numeric, "ABERTH_SWEEPS", 1)
    found = roots(next(amoebas.fiber._solve(f, (0.0, 0.0), False))[0])
    assert found and not any(cl.converged for cl in found)
    assert all(abs(abs(cl.center) - 1.0) > UNIT_BAND for cl in found)
    with pytest.raises(NoConvergence):
        fiber_solutions(f, (0.0, 0.0))
    with pytest.raises(NoConvergence):
        classify(f, (0.0, 0.0))


CUBIC = "z1^3 + z2^3 + z1*z2 + 1"


def test_every_root_set_must_converge(monkeypatch):
    # one Aberth sweep leaves roots unconverged on every path that finds
    # roots; unchecked, they read as an empty slice or a wrong order
    f = parse_poly(CUBIC, 2)
    points = trace_contour(f, 8)
    solves = {
        "classify": lambda: classify(f, (0.0, 0.0)),
        "fiber_solutions": lambda: fiber_solutions(f, (0.0, 0.0)),
        "order": lambda: order(f, (3.0, 0.5)),
        "amoeba_grids": lambda: amoeba_grids(f, ((-2.0, -2.0), (2.0, 2.0)), (3, 3)),
        "contour_slice": lambda: contour_slice(f, 0.3),
        "trace_contour": lambda: trace_contour(f, 8),
        "classify_contour": lambda: classify_contour(f, points),
    }
    for solve in solves.values():
        solve()
    monkeypatch.setattr(amoebas.numeric, "ABERTH_SWEEPS", 1)
    for name, solve in solves.items():
        try:
            solve()
        except NoConvergence:
            continue
        pytest.fail(f"{name} returned without NoConvergence")


def test_monomial_rejected():
    with pytest.raises(DegenerateFiber):
        fiber_solutions(parse_poly("3*z1*z2^2", 2), (0.0, 0.0))


SOLVERS = {
    "fiber_solutions": lambda f: fiber_solutions(f, (0.0, 0.0)),
    "classify": lambda f: classify(f, (0.0, 0.0)),
    "amoeba_grids": lambda f: amoeba_grids(f, ((-1.0, -1.0), (1.0, 1.0)), (2, 2)),
    "classify_contour": lambda f: classify_contour(f, []),
    "contour_slice": lambda f: contour_slice(f, 0.3),
    "trace_contour": lambda f: trace_contour(f, 4),
}


@pytest.mark.parametrize(
    "text, nvars, error",
    [("0", 2, DegenerateFiber), ("3*z1*z2^-2", 2, DegenerateFiber),
     ("z1 + z2 + z3", 3, ValueError)],
    ids=["zero", "monomial", "three-variables"],
)
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_every_curve_solver_rejects_a_polynomial_without_a_curve(solver, text, nvars, error):
    # one gate decides, before any point or slice is solved (classify_contour
    # gets no points at all)
    with pytest.raises(error):
        SOLVERS[solver](parse_poly(text, nvars))


def test_order_of_the_zero_polynomial_is_degenerate():
    with pytest.raises(DegenerateFiber):
        order(parse_poly("0", 2), (0.0, 0.0))
    # a monomial has an empty amoeba; its order is its exponent
    assert order(parse_poly("3*z1*z2^-2", 2), (0.5, -0.5)) == (1, -2)


# --------------------------------------------------------------------------
# criticality
# --------------------------------------------------------------------------

# a non-real point of 1 + z1 + z2: z1 = 0.8 e^{i}, z2 = -1 - z1
GENERIC_Z1 = 0.8 * complex(math.cos(1.0), math.sin(1.0))


@pytest.mark.parametrize(
    "text, z, critical, check",
    [
        ("z1^3 + z2^3 + z1*z2 + 1", (1.0, -1.0), True, lambda s: s < 1e-12),
        ("1 + z1 + z2", (GENERIC_Z1, -1.0 - GENERIC_Z1), False, lambda s: s > 1e-3),
        # (z1 + z2)^2 has a singular variety point at (1, -1)
        ("z1^2 + 2*z1*z2 + z2^2", (1.0, -1.0), True, lambda s: s == 0.0),
    ],
    ids=["real-point-of-cubic", "generic-point-is-not", "singular-point-scores-zero"],
)
def test_criticality_score(text, z, critical, check):
    _, g1, g2 = _eval_bi(_dense(parse_poly(text, 2).terms.items(), 2), *z)
    score = _score(g1, g2)
    assert (score < CRITICAL_TOL) == critical
    assert check(score)


# --------------------------------------------------------------------------
# order and lopsidedness
# --------------------------------------------------------------------------

def test_order_picks_dominant_vertex():
    f = parse_poly("1 + z1 + z2", 2)
    assert order(f, (10.0, 0.0)) == (1, 0)
    assert order(f, (0.0, 10.0)) == (0, 1)
    assert order(f, (-10.0, -10.0)) == (0, 0)


def test_order_of_bounded_component():
    f = parse_poly("z1^3 + z2^3 + 1.3*z1*z2 + 1", 2)
    assert order(f, (0.0, 0.0)) == (1, 1)
    q = parse_poly("-2*z1^2 - 2*z1*z2^2 + 1.5i*z1^-1*z2^-1 - 4.9", 2)
    assert order(q, (0.0, 0.0)) == (0, 0)


def test_order_is_deterministic():
    f = parse_poly("z1^3 + z2^3 + 1.3*z1*z2 + 1", 2)
    assert order(f, (0.0, 0.0)) == order(f, (0.0, 0.0))


def test_order_unstable_near_amoeba():
    # on the amoeba itself the winding count depends on the angle draw
    f = parse_poly("1 + z1 + z2", 2)
    w = (math.log(0.5), math.log(0.5))
    try:
        val = order(f, w)
    except InconsistentOrder:
        return
    assert val in ((0, 0), (1, 0), (0, 1))


def test_lopsided_certificate_and_silence():
    f = parse_poly("1 + z1 + z2", 2)
    assert lopsided(f, (10.0, 0.0)) == (1, 0)
    assert lopsided(f, (-10.0, -10.0)) == (0, 0)
    # near the triple point nothing dominates
    assert lopsided(f, (math.log(0.5), math.log(0.5))) is None


def test_a_tiny_coefficient_is_weighed_on_its_torus():
    # 1e-15 * z2 has modulus 1e-15 e^40 ~ 235 on the fiber over (0, 40),
    # against 1 for each other term: a complement point of order (0, 1)
    f = parse_poly("1 + z1 + 1e-15*z2", 2)
    assert classify(f, (0.0, 40.0)).tag == "Complement"
    assert order(f, (0.0, 40.0)) == (0, 1)
    assert lopsided(f, (0.0, 40.0)) == (0, 1)


@pytest.mark.parametrize("lam", [1e-15, 1e15])
def test_a_coefficient_scale_is_a_torus_shift(lam):
    # z2 -> lam z2 maps 1 + z1 + z2 to 1 + z1 + lam z2, whose amoeba is the
    # first one shifted by (0, -log lam): every verdict shifts along
    base = parse_poly("1 + z1 + z2", 2)
    scaled = parse_poly(f"1 + z1 + {lam!r}*z2", 2)
    shift = -math.log(lam)
    tags = set()
    for w1 in np.linspace(-2.3, 2.1, 9):
        for w2 in np.linspace(-2.1, 2.3, 9):
            a = classify(base, (w1, w2))
            b = classify(scaled, (w1, w2 + shift))
            assert (b.tag, len(b.solutions)) == (a.tag, len(a.solutions)), (w1, w2)
            if a.tag == "Complement":
                assert order(scaled, (w1, w2 + shift)) == order(base, (w1, w2))
            tags.add(a.tag)
    assert tags == {"Complement", "Interior"}


def test_lopsided_and_order_reject_non_finite_points():
    f = parse_poly("1 + z1 + z2", 2)
    for query in (lopsided, order):
        with pytest.raises(Overflow):
            query(f, (math.inf, 0.0))


def test_lopsided_never_contradicts_membership():
    rng = random.Random(321)
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(2, 5)):
            a = (rng.randint(-3, 3), rng.randint(-3, 3))
            terms[a] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        f = LaurentPoly(2, terms)
        if len(f.terms) < 2:
            continue
        w = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        cert = lopsided(f, w)
        if cert is None:
            continue
        try:
            sols = fiber_solutions(f, w)
        except DegenerateFiber:
            continue
        assert sols == [], (dict(f.terms), w)


# --------------------------------------------------------------------------
# membership against the brute oracle
# --------------------------------------------------------------------------

def test_membership_matches_brute_torus_sweep():
    rng = random.Random(20260815)
    checked = 0
    while checked < 60:
        terms = {}
        for _ in range(rng.randint(3, 6)):
            a = (rng.randint(-4, 4), rng.randint(-4, 4))
            terms[a] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        f = LaurentPoly(2, terms)
        if len(f.terms) < 3:
            continue
        w = (rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        try:
            sols = fiber_solutions(f, w)
        except DegenerateFiber:
            continue
        assert (len(sols) > 0) == brute_member(list(f.terms.items()), w), (
            dict(f.terms),
            w,
        )
        checked += 1


def test_oracle_finds_the_fibers_of_a_line_times_a_coordinate_line():
    # over w1 = 0.675 the factor z1 - 2 stays off the torus but comes within
    # 0.036 of zero around phi1 = 0, where the smallest grid values of |f|
    # crowd; the two points of the line 1 + z1 + z2 lie far from there
    f = parse_poly("(z1 - 2)*(1 + z1 + z2)", 2)
    for w in ((0.675, 0.45), (0.675, 0.6)):
        assert torus_min_modulus(list(f.terms.items()), w) < 1e-12
        assert len(fiber_solutions(f, w)) == 2


def test_reported_solutions_really_vanish():
    rng = random.Random(77)
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(3, 5)):
            a = (rng.randint(-2, 3), rng.randint(-2, 3))
            terms[a] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        f = LaurentPoly(2, terms)
        if len(f.terms) < 3:
            continue
        w = (rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        try:
            sols = fiber_solutions(f, w)
        except DegenerateFiber:
            continue
        items = list(f.terms.items())
        for s in sols:
            assert abs(eval_at_phases(items, w, s.phi)) < 1e-6
