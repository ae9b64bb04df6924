"""Contour slices, the theta sweep, and contour point classification."""

import cmath
import math
import random
import warnings

import numpy as np
import pytest

from amoebas import (
    AmoebaError,
    DegenerateSlice,
    LaurentPoly,
    Overflow,
    classify,
    classify_contour,
    contour_slice,
    parse_poly,
    trace_contour,
)
import amoebas.contour
import amoebas.fiber
from amoebas.contour import ContourPoint, SkippedSlices, _polish_pair
from amoebas.fiber import _abs_at, _eval_bi
from amoebas.laurent import PRUNE_REL, _dense

CUBIC = parse_poly("z1^3 + z2^3 + z1*z2 + 1", 2)
HARNACK = parse_poly("z1^2*z2 + z1*z2^2 - 4*z1*z2 + 1", 2)


def raw_eval(f, z):
    return sum(c * z[0] ** a[0] * z[1] ** a[1] for a, c in f.terms.items())


def raw_gauss(f, z):
    g1 = sum(a[0] * c * z[0] ** a[0] * z[1] ** a[1] for a, c in f.terms.items())
    g2 = sum(a[1] * c * z[0] ** a[0] * z[1] ** a[1] for a, c in f.terms.items())
    return g1, g2


def test_gauss_slices_weigh_each_term_by_its_exponent(monkeypatch):
    # z_j df/dz_j multiplies each coefficient by its z_j-exponent, negative
    # ones included; a slice keeps only the support of its combination
    f = LaurentPoly(2, {(2, 1): 1.0, (-1, 0): -3.0, (0, 5): 7.0})
    slices = []
    real = amoebas.contour._gauss

    def recorded(terms, theta):
        slices.append(real(terms, theta))
        return slices[-1]

    monkeypatch.setattr(amoebas.contour, "_gauss", recorded)
    for theta in (0.0, math.pi / 2):
        try:
            contour_slice(f, theta)
        except AmoebaError:
            pass
    # theta = 0: -z1 df/dz1 = -2 z1^2 z2 - 3 z1^-1
    minus_g1 = np.zeros((4, 2), dtype=complex)
    minus_g1[3, 1], minus_g1[0, 0] = -2.0, -3.0
    # theta = pi/2: z2 df/dz2 = z1^2 z2 + 35 z2^5
    g2 = np.zeros((3, 5), dtype=complex)
    g2[2, 0], g2[0, 4] = 1.0, 35.0
    assert len(slices) == 2
    assert np.array_equal(slices[0], minus_g1)
    assert np.array_equal(slices[1], g2)


def reference_gauss_combination(f, theta):
    """Reference: the Gauss combination as built before ``_collect`` summed it.

    Both Gauss numerators z_j df/dz_j laid out densely on f's grid, added
    and pruned cell by cell as ``_collect`` adds two terms (0j + a takes a
    signed zero to +0; np.hypot is Python's complex abs), and cut to the
    bounding box of the nonzero cells; None when no cell is left.
    """
    items = f.terms.items()
    lg1, lg2 = (_dense(((a, b * a[j]) for a, b in items), 2) for j in (0, 1))
    st, ct = (0.0 if abs(v) < 1e-15 else v for v in (math.sin(theta), math.cos(theta)))
    a, b = 0j + st * lg2, -(ct * lg1)
    c = a + b
    c[np.hypot(c.real, c.imag) <= PRUNE_REL * np.maximum(np.hypot(a.real, a.imag),
                                                         np.hypot(b.real, b.imag))] = 0
    i, j = np.nonzero(c)
    return c[i.min():i.max() + 1, j.min():j.max() + 1] if i.size else None


def test_gauss_combination_matches_the_dense_reference_bit_for_bit():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    exponent = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    coef = st.builds(lambda re, im, e: complex(re, im) * 10.0**e,
                     st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.integers(-8, 8))
    # at atan2(1, 2), where 2 sin == cos in floats, a (1, 2) term cancels
    # exactly; at pi/4 a (k, k) term leaves a rounding residue to prune; at
    # 0 and pi/2 the terms on an axis vanish
    angle = (st.sampled_from([0.0, math.pi / 4, math.pi / 2, math.atan2(1, 2)])
             | st.floats(0.0, 2.0 * math.pi))

    def bits(arr):
        return arr.shape, [(v.real.hex(), v.imag.hex()) for v in arr.ravel().tolist()]

    @hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
    @hypothesis.given(st.dictionaries(exponent, coef, max_size=6), coef,
                      st.integers(-3, 3), coef, angle)
    def check(terms, b12, k, bkk, theta):
        terms[(1, 2)], terms[(k, k)] = b12, bkk
        f = LaurentPoly(2, terms)
        want = reference_gauss_combination(f, theta)
        try:
            hb = amoebas.contour._gauss(f.terms.items(), theta)
        except DegenerateSlice:
            assert want is None
        else:
            assert bits(hb) == bits(want), (terms, theta)

    check()


def test_linear_slice_hand_solution():
    # 1 + z1 + z2 at theta = pi/4: z1 dfz1 = z1, z2 dfz2 = z2, so the
    # slice system is z1 = z2 with 1 + 2 z1 = 0
    f = parse_poly("1 + z1 + z2", 2)
    pts = contour_slice(f, math.pi / 4.0)
    assert len(pts) == 1
    p = pts[0]
    assert p.w[0] == pytest.approx(math.log(0.5), abs=1e-9)
    assert p.w[1] == pytest.approx(math.log(0.5), abs=1e-9)
    z1, z2 = p.source_z
    assert z1 == pytest.approx(-0.5, abs=1e-9)
    assert z2 == pytest.approx(-0.5, abs=1e-9)
    assert p.s_param == pytest.approx(math.pi / 4.0)


def polish_edited(monkeypatch, edit):
    """Route every ``_polish_pair`` result of the contour through ``edit``."""
    real = amoebas.contour._polish_pair
    monkeypatch.setattr(amoebas.contour, "_polish_pair",
                        lambda gb, hb, z1, z2: edit(*real(gb, hb, z1, z2)))


@pytest.mark.parametrize("which", [0, 2])  # the g and the h evaluation
@pytest.mark.parametrize("scale, kept", [(2.0, False), (0.5, True)])
def test_a_polished_residual_above_the_rule_drops_the_candidate(monkeypatch, which, scale,
                                                                 kept):
    # 1 + z1 + z2 has one slice point at theta = pi/4; its residual is set
    # to scale * RESIDUAL_REL times its term-modulus sum
    def edit(z1, z2, evals):
        evals = list(evals)
        (_, d1, d2), sums = evals[which], evals[which + 1]
        evals[which] = (scale * amoebas.fiber.RESIDUAL_REL * sums[0], d1, d2)
        return z1, z2, tuple(evals)

    polish_edited(monkeypatch, edit)
    pts = contour_slice(parse_poly("1 + z1 + z2", 2), math.pi / 4.0)
    assert [p.w for p in pts] == ([pytest.approx((math.log(0.5),) * 2)] if kept else [])


@pytest.mark.parametrize("scale, kept", [(0.5, False), (2.0, True)])
def test_a_coordinate_polished_below_the_torus_cutoff_drops_the_candidate(monkeypatch, scale,
                                                                          kept):
    # the slice point's z1 is moved to scale * TORUS_CUTOFF
    cutoff = amoebas.contour.TORUS_CUTOFF
    polish_edited(monkeypatch, lambda z1, z2, evals: (scale * cutoff * z1 / abs(z1), z2, evals))
    pts = contour_slice(parse_poly("1 + z1 + z2", 2), math.pi / 4.0)
    assert [p.w for p in pts] == ([pytest.approx((math.log(2.0 * cutoff), math.log(0.5)))]
                                  if kept else [])


def test_cubic_generic_slice_count_is_newton_volume():
    # the slice system of the cubic has 9 = normalized Newton volume
    # solutions in the torus for generic theta
    rng = random.Random(12345)
    for _ in range(20):
        theta = rng.uniform(0.0, math.pi)
        pts = contour_slice(CUBIC, theta)
        assert len(pts) == 9, theta


def test_slice_witnesses_satisfy_both_equations():
    rng = random.Random(5150)
    for f in (CUBIC, HARNACK):
        for _ in range(6):
            theta = rng.uniform(0.0, math.pi)
            st, ct = math.sin(theta), math.cos(theta)
            for p in contour_slice(f, theta):
                z = p.source_z
                scale = sum(
                    abs(c) * abs(z[0]) ** a[0] * abs(z[1]) ** a[1]
                    for a, c in f.terms.items()
                )
                assert abs(raw_eval(f, z)) < 1e-6 * scale
                g1, g2 = raw_gauss(f, z)
                assert abs(st * g2 - ct * g1) < 1e-6 * (abs(g1) + abs(g2) + scale)


def test_slice_witnesses_are_critical_points():
    # the Gauss image of every witness is real projective: Im(g1 conj g2)
    # vanishes relative to |g1 g2|
    for theta in (0.3, 1.1, 2.6):
        for p in contour_slice(CUBIC, theta):
            g1, g2 = raw_gauss(CUBIC, p.source_z)
            if abs(g1 * g2) == 0.0:
                continue
            assert abs((g1 * g2.conjugate()).imag) / abs(g1 * g2) < 1e-5


def test_trace_is_sorted_deduplicated_and_tagged_by_angle():
    pts = trace_contour(CUBIC, 90)
    keys = [(p.w, p.s_param) for p in pts]
    assert keys == sorted(keys)
    rounded = {(round(p.w[0], 9), round(p.w[1], 9), p.s_param) for p in pts}
    assert len(rounded) == len(pts)
    for p in pts:
        assert 0.0 <= p.s_param < math.pi


def test_trace_skips_degenerate_slices_with_one_warning():
    # 1 + z1 has gamma2 = 0 everywhere, so theta = pi/2 is degenerate
    f = parse_poly("1 + z1", 2)
    with pytest.warns(SkippedSlices):
        pts = trace_contour(f, 4)
    assert pts == []


def test_z2_free_curve_with_an_off_origin_critical_point():
    # 1 + z1 + z1^2 is critical at z1 = -1/2, where g(-1/2, .) = 3/4 is a
    # degree-0 slice in z2 with no root: no point, and theta = pi/2 is
    # degenerate as for 1 + z1
    with pytest.warns(SkippedSlices) as caught:
        pts = trace_contour(parse_poly("1 + z1 + z1^2", 2), 12)
    assert pts == []
    assert [str(w.message) for w in caught] == [
        "skipped 1 of 12 slices; first at theta=1.570796: "
        "Gauss combination vanishes identically at theta=1.570796"
    ]


def test_degenerate_slice_raises():
    f = parse_poly("1 + z1", 2)
    with pytest.raises(DegenerateSlice):
        contour_slice(f, math.pi / 2.0)


def test_slice_sharing_a_component_with_the_variety_raises():
    # z1*z2 - 1 has equal Gauss numerators, so it divides the Gauss
    # combination at pi/4 as it divides f, and the resultant vanishes
    f = parse_poly("(z1*z2 - 1)*(z1 + z2 + 3)", 2)
    with pytest.raises(DegenerateSlice, match="shares a component with the variety"):
        contour_slice(f, math.pi / 4.0)


def test_overflowing_gauss_combination_names_its_exponent():
    # 1e308 * 2 is past the largest float: the z2^2 term of z2 df/dz2
    f = parse_poly("1e308*z2^2 + z1 + 1", 2)
    with pytest.raises(Overflow, match=r"exponent \(0, 2\) overflows"):
        contour_slice(f, 0.3)


def evaluations(gb, hb, z1, z2):
    return (_eval_bi(gb, z1, z2), _abs_at(gb, z1, z2), _eval_bi(hb, z1, z2), _abs_at(hb, z1, z2))


def test_polish_pair_returns_the_evaluations_at_its_own_exit():
    # the exits no traced slice reaches; each returns, bit for bit, what
    # _eval_bi and _abs_at give for g and h at its final point
    line = np.array([[1, 1], [1, 0]], dtype=complex)  # g = 1 + z1 + z2
    # h = 2g: the Jacobian determinant vanishes and the first pass stops
    start = (0.3 + 0.2j, 0.5 - 0.1j)
    z1, z2, evals = _polish_pair(line, 2.0 * line, *start)
    assert (z1, z2) == start
    assert repr(evals) == repr(evaluations(line, 2.0 * line, *start))
    # h = z1 - z2 meets g at (-1/2, -1/2) with a constant, regular Jacobian;
    # from 1e6 every damped step halves the distance, so the step cap ends
    # the polish near 1e6 / 2^6 with |g| far above the convergence test
    diff = np.array([[0, -1], [1, 0]], dtype=complex)
    z1, z2, evals = _polish_pair(line, diff, 1e6 + 1e5j, 2e6 + 0j)
    assert 1.5e4 < abs(z1) < 1.6e4 and 3.1e4 < abs(z2) < 3.2e4
    assert abs(evals[0][0]) > 1e-14 * evals[1][0]
    assert repr(evals) == repr(evaluations(line, diff, z1, z2))
    # g = z1, h = z2 - 1: the damped step halves z1 below 1e-300, and the
    # zero-coordinate exit returns no evaluations
    z1, z2, evals = _polish_pair(np.array([[0, 0], [1, 0]], dtype=complex),
                                 np.array([[-1, 1]], dtype=complex), 1.5e-300 + 0j, 1 + 0j)
    assert (z1, z2, evals) == (7.5e-301 + 0j, 1 + 0j, None)


def test_slice_vs_modulus_sweep_oracle():
    # fix |z1| = r and sweep the phase: local extremes of log|z2| along the
    # root branches are contour points, so each must be near the traced
    # cloud (independent route: numpy roots per phase sample)
    r = 1.35
    n = 1200
    coeffs_by_z2 = {}
    for (a1, a2), c in HARNACK.terms.items():
        coeffs_by_z2.setdefault(a2, []).append((a1, c))
    d2 = max(coeffs_by_z2)
    logs = []
    for k in range(n):
        phi = 2.0 * math.pi * k / n
        z1 = r * cmath.exp(1j * phi)
        poly = [
            sum(c * z1**a1 for a1, c in coeffs_by_z2.get(j, []))
            for j in range(d2, -1, -1)
        ]
        rr = np.roots(poly)
        logs.append(sorted(math.log(abs(v)) for v in rr if abs(v) > 1e-12))
    branch_count = {len(v) for v in logs}
    assert branch_count == {2}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cloud = trace_contour(HARNACK, 720)
    w1 = math.log(r)
    extremes = []
    for b in range(2):
        vals = [v[b] for v in logs]
        for k in range(n):
            prev_v, next_v = vals[(k - 1) % n], vals[(k + 1) % n]
            if (vals[k] - prev_v) * (vals[k] - next_v) > 0:  # local extremum
                extremes.append(vals[k])
    assert extremes
    for w2 in extremes:
        d = min(
            math.hypot(p.w[0] - w1, p.w[1] - w2)
            for p in cloud
        )
        assert d < 0.03, (w1, w2, d)


def test_classify_contour_split_for_the_cubic():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pts = trace_contour(CUBIC, 90)
    split = classify_contour(CUBIC, pts)
    assert set(split) == {"boundary", "inner", "degenerate"}
    assert split["boundary"]
    assert split["inner"]
    total = sum(len(v) for v in split.values())
    assert total == len(pts)
    for cp, pc in split["boundary"]:
        assert pc.tag == "Boundary"
    for cp, pc in split["inner"]:
        assert pc.tag in ("ContourInterior", "Interior")


def test_classify_contour_harnack_has_no_inner_class():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pts = trace_contour(HARNACK, 120)
    assert pts
    split = classify_contour(HARNACK, pts)
    assert split["inner"] == []
    assert len(split["boundary"]) >= 0.95 * len(pts)


def test_classify_contour_files_a_degenerate_fiber_apart():
    # every fiber over (0, 0) holds the circle z1*z2 = 1
    f = parse_poly("(z1*z2 - 1)*(1 + z1 + z2)", 2)
    p = ContourPoint((0.0, 0.0), 0.0, (1, 1))
    assert classify(f, p.w).tag == "Degenerate"
    split = classify_contour(f, [p])
    assert (split["boundary"], split["inner"]) == ([], [])
    assert [(q, pc.tag) for q, pc in split["degenerate"]] == [(p, "Degenerate")]


def point_bits(p):
    return (p.w, p.s_param, p.source_z)


def class_bits(pc):
    return (pc.tag, pc.caveat,
            [(s.phi, s.multiplicity, s.critical, s.score) for s in pc.solutions])


@pytest.mark.parametrize("text", [
    "z1^2*z2 + z1*z2^2 - 4*z1*z2 + 1",
    "z1^3 + z2^3 + z1*z2 + 1",
    "(z1 - 2)*(1 + z1 + z2)",  # the slice at pi/2 is degenerate
])
def test_batched_trace_is_the_union_of_single_slices(text, monkeypatch):
    monkeypatch.setattr(amoebas.fiber, "_BATCH", 5)  # 12 slices in 3 blocks
    f = parse_poly(text, 2)
    n = 12
    singles, skipped = [], 0
    for k in range(n):
        try:
            singles.extend(contour_slice(f, math.pi * k / n))
        except DegenerateSlice:
            skipped += 1
    seen = {}
    for p in singles:
        seen.setdefault((round(p.w[0] * 1e9), round(p.w[1] * 1e9), round(p.s_param * 1e12)), p)
    expected = sorted(seen.values(), key=lambda p: (p.w, p.s_param))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traced = trace_contour(f, n)
    assert [point_bits(p) for p in traced] == [point_bits(p) for p in expected]
    assert len([w for w in caught if issubclass(w.category, SkippedSlices)]) == (skipped > 0)
    assert skipped == (1 if text.startswith("(") else 0)


@pytest.mark.parametrize("text", [
    "z1^2*z2 + z1*z2^2 - 4*z1*z2 + 1",
    "z1^3 + z2^3 + z1*z2 + 1",
])
def test_batched_contour_split_matches_single_classify(text, monkeypatch):
    f = parse_poly(text, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pts = trace_contour(f, 16)
    # blocks of 7 points, so that the split spans several blocks
    monkeypatch.setattr(amoebas.fiber, "_BATCH", 7)
    assert len(pts) > 2 * 7
    parts = classify_contour(f, iter(pts))
    got = {id(p): pc for part in parts.values() for p, pc in part}
    assert len(got) == len(pts)
    for p in pts:
        pc = got[id(p)]
        assert class_bits(pc) == class_bits(classify(f, p.w))
        key = {"Boundary": "boundary", "Degenerate": "degenerate"}.get(pc.tag, "inner")
        assert any(q is p for q, _ in parts[key])
    for part in parts.values():
        order = [pts.index(p) for p, _ in part]
        assert order == sorted(order)
