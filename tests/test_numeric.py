"""Root finder, linear algebra, Sylvester resultant.

The oracles here are deliberately independent of the kernel: numpy's
companion-matrix roots, numpy's dense solve, Vieta sums, and a
Newton-coefficient sweep for resultants.
"""

import itertools
import random
import warnings

import numpy as np
import pytest

from amoebas import NoConvergence, SingularMatrix
import amoebas.cli as cli
import amoebas.numeric as numeric
from amoebas.numeric import (
    RootCluster,
    UniPoly,
    _aberth,
    _cluster_points,
    _horner,
    _roots_batch,
    roots,
    solve_linear,
    sylvester_resultant,
)


def match_root_sets(found, expected, tol):
    """Greedy matching of cluster centers against an expected multiset."""
    left = list(expected)
    for cl in found:
        for _ in range(cl.multiplicity):
            best = min(left, key=lambda r: abs(r - cl.center))
            assert abs(best - cl.center) < tol, (cl.center, best)
            left.remove(best)
    assert not left


# --------------------------------------------------------------------------
# roots
# --------------------------------------------------------------------------

def test_roots_quadratic_exact():
    # (t - 2)(t + 3) = t^2 + t - 6
    cls = roots(UniPoly([-6.0, 1.0, 1.0]))
    match_root_sets(cls, [2.0, -3.0], 1e-12)


def test_roots_against_numpy_random():
    rng = random.Random(4242)
    for _ in range(60):
        d = rng.randint(1, 12)
        c = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(d + 1)]
        c[-1] += 4.0  # keep the leading coefficient honest
        expected = np.roots(c[::-1])
        cls = roots(UniPoly(c))
        assert sum(x.multiplicity for x in cls) == d
        match_root_sets(cls, list(expected), 1e-6)


def test_roots_double_root_clusters():
    # (t - 1)^2 (t + 2): the double root must come back as one cluster
    c = np.polynomial.polynomial.polyfromroots([1.0, 1.0, -2.0])
    cls = roots(UniPoly(c))
    mults = sorted((cl.multiplicity, round(cl.center.real)) for cl in cls)
    assert mults == [(1, -2), (2, 1)]


def test_roots_triple_root_clusters():
    c = np.polynomial.polynomial.polyfromroots([1j, 1j, 1j, -1.0])
    cls = roots(UniPoly(c))
    triple = max(cls, key=lambda cl: cl.multiplicity)
    assert triple.multiplicity == 3
    assert abs(triple.center - 1j) < 1e-4  # eps^(1/3) territory


def test_roots_vieta_invariant():
    # sum of roots = -c[d-1]/c[d], product = (-1)^d c[0]/c[d]
    rng = random.Random(11)
    for _ in range(40):
        d = rng.randint(2, 9)
        c = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(d + 1)]
        c[-1] += 3.0
        c[0] += 1.0
        cls = roots(UniPoly(c))
        all_roots = [cl.center for cl in cls for _ in range(cl.multiplicity)]
        assert sum(all_roots) == pytest.approx(-c[d - 1] / c[d], abs=2e-6)
        prod = 1.0 + 0j
        for r in all_roots:
            prod *= r
        assert prod == pytest.approx((-1) ** d * c[0] / c[d], abs=2e-6)


def test_roots_at_origin_exact():
    # t^3 (t - 5): exact zero low-order coefficients short-circuit
    cls = roots(UniPoly([0.0, 0.0, 0.0, -5.0, 1.0]))
    zero = next(cl for cl in cls if cl.center == 0)
    assert zero.multiplicity == 3


def test_roots_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        roots(UniPoly([0.0]))


def test_roots_constant_polynomial_empty():
    assert roots(UniPoly([3.0])) == []


def test_roots_huge_degree_gap_stays_finite():
    # leading noise coefficients must not send iterates into overflow
    c = np.zeros(90, dtype=complex)
    c[0] = 1.0
    c[1] = -1.0
    c[89] = 1e-9
    cls = roots(UniPoly(c))
    assert all(np.isfinite(cl.center) for cl in cls)


def cluster_bits(clusters):
    """Every field of every cluster, floats as exact hex strings."""
    return [
        (cl.center.real.hex(), cl.center.imag.hex(), cl.multiplicity, cl.converged)
        for cl in clusters
    ]


def random_poly(rng, size, low=-16, high=2):
    """Coefficients with moduli 10^[low, high) and random phases."""
    mags = 10.0 ** rng.uniform(low, high, size)
    return mags * np.exp(1j * rng.uniform(0, 2 * np.pi, size))


def batch_cases():
    rng = np.random.default_rng(2024)
    fromroots = np.polynomial.polynomial.polyfromroots
    cases = [
        fromroots([1.0, 1.0, -2.0]),  # double root
        fromroots([1j, 1j, 1j, -1.0]),  # triple root
        fromroots([0.5, 0.5, 2j, 2j, -1.5, 0.3 - 0.2j]),  # two double roots
        [0.0, 0.0, 0.0, -5.0, 1.0],  # zero low-order coefficients
        [0.0, 2.0, -1.0, 1.0],
        [0.0, 0.0, 5.0],  # roots at the origin only
        [2.0, 1.0],  # degree 1
        [1e-16, 3.0],
        [-1j, 1e2],
        [3.0],  # degree 0
        [5.0, 1e-15],  # trims to degree 0
        [2.0, 0.0, 1e-14],
    ]
    # coefficient spreads from 1e-16 to 1e2, degrees 2 to 12
    cases += [random_poly(rng, int(rng.integers(3, 14))) for _ in range(30)]
    return [np.asarray(c, dtype=complex) for c in cases]


def test_roots_are_the_same_alone_and_in_any_batch(monkeypatch):
    cases = batch_cases()
    alone = [cluster_bits(roots(c)) for c in cases]
    assert [cluster_bits(r) for r in _roots_batch(cases)] == alone
    assert [cluster_bits(r) for r in _roots_batch(cases[::-1])] == alone[::-1]
    # each case at a seeded row among others of its own size
    rng = np.random.default_rng(7)
    for c, want in zip(cases, alone):
        crowd = [random_poly(rng, c.size, -3, 2) for _ in range(int(rng.integers(1, 40)))]
        row = int(rng.integers(0, len(crowd) + 1))
        batch = crowd[:row] + [c] + crowd[row:]
        assert cluster_bits(_roots_batch(batch)[row]) == want
    # blocks of a few rows split every degree group: still the same
    monkeypatch.setattr(numeric, "_BATCH_PAIRS", 40)
    assert [cluster_bits(r) for r in _roots_batch(cases)] == alone
    assert [cl.multiplicity for cl in roots(cases[1])] == [1, 3]


def test_roots_batch_rejects_a_zero_polynomial():
    with pytest.raises(ValueError):
        _roots_batch([[1.0, 2.0], [0.0, 0.0]])


def union_find_clusters(z, flags, incl):
    """Reference: the pairwise union-find loop the vectorised test replaced."""
    n = z.size
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            r = max(1e-8, 1e-6 * max(abs(z[i]), abs(z[j])))
            r = max(r, 2.0 * (incl[i] + incl[j]))
            if abs(z[i] - z[j]) <= r:
                pi, pj = find(i), find(j)
                if pi != pj:
                    parent[pi] = pj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    clusters = []
    for members in groups.values():
        clusters.append(RootCluster(z[members].mean(), len(members), bool(flags[members].all())))
    clusters.sort(key=lambda cl: (cl.center.real, cl.center.imag))
    return clusters


def test_cluster_points_matches_the_union_find_loop():
    rng = np.random.default_rng(31)
    linked = 0
    for _ in range(300):
        n = int(rng.integers(1, 14))
        # points scattered around a few seeds, so that chains of links,
        # borderline pairs and exact duplicates all occur
        seeds = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z = seeds[rng.integers(0, 3, n)] + 10.0 ** rng.uniform(-10, 0, n) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, n))
        z[rng.random(n) < 0.1] = -0.0 - 0.0j
        incl = 10.0 ** rng.uniform(-12, -1, n)
        flags = rng.random(n) > 0.2
        rows = np.stack([z, z[::-1]])
        got = _cluster_points(rows, np.stack([flags, flags[::-1]]), np.stack([incl, incl[::-1]]))
        assert cluster_bits(got[0]) == cluster_bits(union_find_clusters(z, flags, incl))
        assert cluster_bits(got[1]) == cluster_bits(
            union_find_clusters(z[::-1], flags[::-1], incl[::-1]))
        linked += len(got[0]) < n
    assert linked > 100


def test_cluster_link_at_exactly_the_inclusion_radius():
    # pairs whose distance np.abs rounds an ulp above Python's abs(), with
    # inclusion radii that put the link test at exactly abs(): they link,
    # as in the union-find loop
    rng = np.random.default_rng(5)
    gaps = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
    over = [g for g in gaps if np.abs(g) > abs(complex(g))]
    for g in over[:20] + [gaps[0]]:
        h = abs(complex(g))
        z = np.array([0j, g])
        incl = np.array([h / 4, h / 4])  # 2 (h/4 + h/4) == h exactly
        flags = np.array([True, True])
        got = _cluster_points(z[None], flags[None], incl[None])[0]
        assert cluster_bits(got) == cluster_bits(union_find_clusters(z, flags, incl))
        assert [cl.multiplicity for cl in got] == [2]


def reference_guesses(c):
    """Reference: the starting points as the kernel placed them before its
    per-call trim, hull edges gathered by fancy indexing."""
    b, d = c.shape[0], c.shape[1] - 1
    with np.errstate(divide="ignore"):
        u = np.where(np.abs(c) > 0, np.log(np.abs(c)), -np.inf)
    row, lo, hi, start, along = [], [], [], [], []
    for r, ur in enumerate(u.tolist()):
        hull = []
        for i in range(d + 1):
            if ur[i] == -np.inf:
                continue
            while len(hull) >= 2:
                i1, i2 = hull[-2], hull[-1]
                if (ur[i] - ur[i1]) * (i2 - i1) >= (ur[i2] - ur[i1]) * (i - i1):
                    hull.pop()
                else:
                    break
            hull.append(i)
        pos = 0
        for i1, i2 in zip(hull, hull[1:]):
            m = i2 - i1
            row += [r] * m
            lo += [i1] * m
            hi += [i2] * m
            start += [pos] * m
            along += range(m)
            pos += m
    row, lo, hi = np.array(row), np.array(lo), np.array(hi)
    m = hi - lo
    radius = np.exp((u[row, lo] - u[row, hi]) / m)
    ang = 2.0 * np.pi * (np.array(along) + 0.5) / m + 0.7 + 0.4 * np.array(start)
    return (radius * np.exp(1j * ang)).reshape(b, d)


def reference_aberth(c, fired):
    """Reference: the Aberth-Ehrlich sweep before the stacked Horner pass.

    Three ``_horner`` calls per sweep and unconditional masked writes.
    ``fired`` counts the sweeps in which each rare safeguard wrote: the
    denominator fix, the pull-back of a sick iterate, the step cap.
    """
    b, d = c.shape[0], c.shape[1] - 1
    dc = c[:, 1:] * np.arange(1, d + 1)
    noise = (np.abs(c) * (4.0 * np.arange(d + 1) + 1.0)).astype(complex)
    full = [np.ascontiguousarray(np.broadcast_to(a.T[:, :, None], (a.shape[1], b, d)))
            for a in (c, dc, noise)]
    z = reference_guesses(c)
    converged = np.zeros((b, d), dtype=bool)
    rows, zr, live, coef = np.arange(b), z, ~converged, full
    diagonal = (slice(None), np.arange(d), np.arange(d))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(numeric.ABERTH_SWEEPS):
            mod = np.abs(zr)
            p = _horner(coef[0], zr)
            dp = _horner(coef[1], zr)
            floor = _horner(coef[2], mod).real * numeric.EPS
            diff = zr[:, :, None] - zr[:, None, :]
            diff[diagonal] = np.inf
            diff[diff == 0] = 1e-300
            s = (1.0 / diff).sum(axis=2)
            den = dp - p * s
            bad = ~np.isfinite(den) | (den == 0.0)
            fired["den"] += bool(bad.any())
            den[bad] = 1.0
            w = p / den
            finite = np.isfinite(p)
            sick = ~np.isfinite(w) | ~finite
            fired["sick"] += bool(sick.any())
            w[sick] = 0.5 * zr[sick]
            cap = 1.0 + mod
            big = np.abs(w) > cap
            fired["cap"] += bool(big.any())
            w[big] *= (cap[big] / np.abs(w[big]))
            done = (
                ((np.abs(w) < 1e-12 * cap) | (np.abs(p) <= floor))
                & finite & np.isfinite(floor)
            )
            zr = np.where(live, zr - w, zr)
            live = live & ~done
            moving = live.any(axis=1)
            if not moving.all():
                z[rows[~moving]] = zr[~moving]
                converged[rows[~moving]] = True
                rows, zr, live = rows[moving], zr[moving], live[moving]
                if rows.size == 0:
                    break
                coef = [a[:, moving] for a in coef]
    z[rows] = zr
    converged[rows] = ~live
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pz = _horner(full[0], z)
        dpz = _horner(full[1], z)
        incl = d * np.abs(pz) / np.maximum(np.abs(dpz), 1e-300)
    incl[~np.isfinite(incl)] = np.inf
    return z, converged, np.minimum(incl, 0.05 * (1.0 + np.abs(z)))


def aberth_bits(z, flags, incl):
    """Roots, flags and radii of an Aberth run, floats as exact hex strings."""
    return [
        (zi.real.hex(), zi.imag.hex(), fi, ri.hex())
        for zi, fi, ri in zip(z.ravel().tolist(), flags.ravel().tolist(), incl.ravel().tolist())
    ]


def aberth_inputs():
    """The stacks ``_aberth`` gets from ``batch_cases()``, a seeded spread
    of degrees 1-40, batch sizes 1-64 and coefficient moduli 1e-16 to 1e2
    (some middle coefficients exactly zero), a few stacks of degree 7 with
    moduli 1e-300 to 1e300, and the huge degree gap."""
    seen = []

    def record(c):
        seen.append(c.copy())
        return _aberth(c)

    numeric._aberth, saved = record, numeric._aberth
    try:
        _roots_batch(batch_cases())
    finally:
        numeric._aberth = saved
    rng = np.random.default_rng(18)
    for _ in range(40):
        d = int(rng.integers(1, 41))
        b = int(rng.integers(1, min(64, numeric._BATCH_PAIRS // (d * d)) + 1))
        c = random_poly(rng, (b, d + 1))
        c[:, 1:-1][rng.random((b, d - 1)) < 0.1] = 0.0
        seen.append(c)
    # moduli from 1e-300 to 1e300, where the safeguards decide the steps
    seen += [random_poly(rng, (int(rng.integers(1, 9)), 8), -300, 300) for _ in range(8)]
    gap = np.zeros((1, 90), dtype=complex)
    gap[0, 0], gap[0, 1], gap[0, 89] = 1.0, -1.0, 1e-9
    return seen + [gap]


def test_aberth_matches_the_reference_sweep_bit_for_bit():
    fired = {"den": 0, "sick": 0, "cap": 0}
    for c in aberth_inputs():
        # starting radii of the 1e300-spread stacks overflow to inf
        with np.errstate(over="ignore"):
            assert aberth_bits(*_aberth(c)) == aberth_bits(*reference_aberth(c, fired)), c.shape
    # every safeguard wrote at least once, so the skipped writes are exercised
    assert min(fired.values()) >= 1, fired


def test_stacked_horner_matches_three_horner_calls():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    special = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, 1e300])
    coef = st.builds(complex, st.floats(-1e3, 1e3) | special, st.floats(-1e3, 1e3) | special)
    point = st.builds(complex, st.floats(width=64) | special, st.floats(width=64) | special)

    def hexes(a):
        return [(v.real.hex(), v.imag.hex()) for v in a.ravel().tolist()]

    @hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        d, b = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 3))
        c = np.array(data.draw(st.lists(coef, min_size=b * (d + 1), max_size=b * (d + 1))))
        z = np.array(data.draw(st.lists(point, min_size=b * d, max_size=b * d)), dtype=complex)
        c, z = c.reshape(b, d + 1), z.reshape(b, d)
        with np.errstate(all="ignore"):
            got = numeric._stacked_horner(numeric._levels(c), z)
            dc = c[:, 1:] * np.arange(1, d + 1)
            noise = (np.abs(c) * (4.0 * np.arange(d + 1) + 1.0)).astype(complex)
            want = [_horner(c.T[:, :, None], z), _horner(dc.T[:, :, None], z),
                    _horner(noise.T[:, :, None], np.abs(z))]
        for row in range(3):
            assert hexes(got[row]) == hexes(want[row]), (row, c, z)

    check()


def test_root_cluster_repr_mentions_multiplicity():
    cl = RootCluster(1 + 1j, 2)
    assert "2" in repr(cl)


# --------------------------------------------------------------------------
# solve
# --------------------------------------------------------------------------

def test_solve_linear_basic():
    x = solve_linear([[0.5, 0.5], [2.0, -1.0]], [-1.0, -1.0])
    assert x[0] == pytest.approx(-1.0)
    assert x[1] == pytest.approx(-1.0)


def test_solve_linear_rejects_singular():
    with pytest.raises(SingularMatrix):
        solve_linear([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])
    with pytest.raises(SingularMatrix):
        solve_linear([[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0])


def test_solve_linear_random_residuals():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = solve_linear(a, b)
        assert np.linalg.norm(a @ x - b) < 1e-10 * np.linalg.norm(b)


def test_solve_linear_matches_numpy_on_well_conditioned_systems():
    rng = np.random.default_rng(23)
    for n in range(2, 7):
        for _ in range(20):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a += 2 * n * np.eye(n)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x, ref = solve_linear(a, b), np.linalg.solve(a, b)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_solve_linear_zero_pivot_mid_factorization():
    # rank 2: an LU of it meets a zero pivot before its last step, and the
    # singular values see the rank without a warning
    a = [[1.0, 2.0, 3.0], [2.0, 4.0, 7.0], [1.0, 2.0, 1.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrix, match="least singular value .* not above 1e-12 x "):
            solve_linear(a, [1.0, 1.0, 1.0])


def test_solve_linear_pivot_threshold_edges():
    # singular values 1 and d: d = 2e-12 passes the 1e-12 rule, 5e-13 fails
    x = solve_linear([[1.0, 0.0], [0.0, 2e-12]], [1.0, 2.0])
    assert np.all(np.isfinite(x))
    with pytest.raises(SingularMatrix):
        solve_linear([[1.0, 0.0], [0.0, 5e-13]], [1.0, 2.0])


def test_a_system_and_its_row_swap_get_the_same_verdict(capsys):
    # the smallest singular value, 5.2e-13 of the largest 1.73, does not depend on
    # the row order; a pivot threshold called one order singular and not the other
    rows = ["1,1", "0.5+0.5i,0.5+0.5000000000009i"]
    a = [[1.0, 1.0], [0.5 + 0.5j, 0.5 + 0.5000000000009j]]
    for text, m in ((rows, a), (rows[::-1], a[::-1])):
        with pytest.raises(SingularMatrix):
            solve_linear(m, [1.0, 1.0])
        assert cli.main(["basis", "--linear", ";".join(text)]) == 3
        assert "least singular value" in capsys.readouterr().err


def test_solve_linear_rejects_mismatched_or_nonfinite_input():
    with pytest.raises(ValueError):
        solve_linear([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):  # one right-hand side, a vector
        solve_linear([[1.0, 0.0], [0.0, 1.0]], [[1.0], [2.0]])
    with pytest.raises(ValueError):
        solve_linear([[np.nan, 0.0], [0.0, 1.0]], [1.0, 2.0])


def near_singular_matrices(seed, count):
    """Random, rank-deficient, zero-column and integer-cancelling matrices."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        kind = i % 4
        if kind == 1:
            r = int(rng.integers(1, n))
            a = a[:, :r] @ (rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n)))
            a += 10.0 ** rng.uniform(-16, -9) * rng.standard_normal((n, n))
        elif kind == 2:
            a[:, int(rng.integers(n))] = 0
        elif kind == 3:
            a = np.round(a)
            a[int(rng.integers(n))] = 2 * a[int(rng.integers(n))]
        yield a


def test_solve_linear_verdict_ignores_row_and_column_order():
    # measured: no flip, 484 of the 800 singular, backward errors up to 0.75 eps
    eps = np.finfo(float).eps
    rng = np.random.default_rng(5)
    calls = []
    for a in near_singular_matrices(41, 800):
        n = a.shape[0]
        b = np.ones(n)
        verdicts = set()
        for m in (a, a[rng.permutation(n)], a[:, rng.permutation(n)]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    x = solve_linear(m, b)
                except SingularMatrix:
                    verdicts.add(True)
                    continue
            verdicts.add(False)
            bound = np.linalg.norm(m, 2) * np.linalg.norm(x) + np.linalg.norm(b)
            assert np.linalg.norm(m @ x - b) <= 16 * eps * bound, m
        assert len(verdicts) == 1, a
        calls.append(verdicts.pop())
    assert 0 < sum(calls) < len(calls)


# --------------------------------------------------------------------------
# Sylvester resultant
# --------------------------------------------------------------------------

def poly_mul(a, b):
    out = [0j] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def newton_sweep_resultant(gb, hb, t1_values):
    """Independent oracle: product over common-root-free factorization.

    Res_{t2}(g, h)(t1) = lc(g)^deg(h) * prod h(roots of g(t1, .)), computed
    per sample point with numpy roots.
    """
    out = []
    for t1 in t1_values:
        ga = np.array([np.polyval(gb[::-1, j], t1) for j in range(gb.shape[1])])
        ha = np.array([np.polyval(hb[::-1, j], t1) for j in range(hb.shape[1])])
        dh = hb.shape[1] - 1
        lead = ga[-1]
        rr = np.roots(ga[::-1])
        val = lead ** dh
        for r in rr:
            val *= np.polyval(ha[::-1], r)
        out.append(val)
    return np.array(out)


def test_sylvester_textbook_linear_pair():
    # g = t2 - t1, h = t2 - a  ->  Res = a - t1 (up to sign convention t1 - a)
    a = 0.7 + 0.2j
    g = np.array([[0.0, 1.0], [-1.0, 0.0]])  # rows t1^i, cols t2^j
    h = np.array([[-a, 1.0]])
    res = sylvester_resultant(g, h)
    # degree 1, root at t1 = a
    cls = roots(res)
    assert len(cls) == 1
    assert cls[0].center == pytest.approx(a, abs=1e-10)


def test_sylvester_circle_pair():
    # g = t1^2 + t2^2 - 1, h = t2: Res = t1^2 - 1 up to scale
    g = np.zeros((3, 3), dtype=complex)
    g[0, 0] = -1.0
    g[2, 0] = 1.0
    g[0, 2] = 1.0
    h = np.array([[0.0, 1.0]])
    # h must have positive t2-degree and the convention wants 2-d input
    res = sylvester_resultant(g, h)
    cls = roots(res)
    match_root_sets(cls, [1.0, -1.0], 1e-8)


def test_sylvester_matches_newton_sweep():
    rng = np.random.default_rng(20260815)
    for _ in range(15):
        d1, d2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        e1, e2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        gb = rng.standard_normal((d1 + 1, d2 + 1)) + 1j * rng.standard_normal((d1 + 1, d2 + 1))
        hb = rng.standard_normal((e1 + 1, e2 + 1)) + 1j * rng.standard_normal((e1 + 1, e2 + 1))
        res = sylvester_resultant(gb, hb)
        samples = np.array([0.3 + 0.1j, -0.9, 1.1j, 0.5 - 0.5j])
        direct = newton_sweep_resultant(gb, hb, samples)
        interp = _horner(res.coeffs, samples)
        scale = np.max(np.abs(direct)) + 1e-30
        assert np.allclose(interp, direct, rtol=0, atol=1e-6 * scale)


def test_sylvester_shared_component_is_the_zero_polynomial():
    # g = (t2 - t1) * (t2 + 1), h = (t2 - t1) * (t2 - 2): common factor
    def bi_mul(a, b):
        out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1),
                       dtype=complex)
        for i, j in itertools.product(range(a.shape[0]), range(a.shape[1])):
            out[i:i + b.shape[0], j:j + b.shape[1]] += a[i, j] * b
        return out

    shared = np.array([[0.0, 1.0], [-1.0, 0.0]])  # t2 - t1
    g = bi_mul(shared, np.array([[1.0, 1.0]]))     # * (t2 + 1)
    h = bi_mul(shared, np.array([[-2.0, 1.0]]))    # * (t2 - 2)
    res = sylvester_resultant(g, h)
    assert res.degree == 0 and not res.coeffs.any()


def test_sylvester_failed_self_check_at_every_radius_raises(monkeypatch):
    g = np.zeros((3, 3), dtype=complex)
    g[0, 0], g[2, 0], g[0, 2] = -1.0, 1.0, 1.0
    h = np.array([[0.5, 1.0], [1.0, 0.0]])
    sylvester_resultant(g, h)
    real = numeric._sylvester_batch

    def skewed(av, bv):
        # the probe is the only batch of one row (the nodes number D + 1 = 5),
        # so its determinant disagrees with the interpolant at every radius
        dets, had = real(av, bv)
        return (2.0 * dets if len(av) == 1 else dets), had

    monkeypatch.setattr(numeric, "_sylvester_batch", skewed)
    with pytest.raises(NoConvergence, match="self-check at every radius"):
        sylvester_resultant(g, h)


def test_sylvester_needs_t2_degree():
    with pytest.raises(ValueError):
        sylvester_resultant(np.array([[1.0], [1.0]]), np.array([[1.0, 1.0]]))
