"""Acceptance sweep: one end-to-end check per shipped guarantee.

Every test records a verdict line (echoed after the run).  Two verdicts
fail by measurement, not by bug, and are left red on purpose:

* the origin for z1^3 + z2^3 + z1*z2 + 1 is an extended boundary point,
  not an interior point: all nine fiber solutions are critical double
  points, and a coefficient perturbation of relative size 1e-9 removes
  them, so no correct solver can call it Interior;
* the Betti counts of z1^3 + z2^3 - 4*z1*z2 + 1 can never be {0, 2}:
  the substitution (z1, z2) -> (u*z1, u^2*z2) with u^3 = 1 maps the
  curve to itself, preserves every modulus, and acts freely on fiber
  solutions, so all finite counts are multiples of 3 (measured {0, 6}).
  The companion test runs the same clauses on z1^2*z2 + z1*z2^2
  - 4*z1*z2 + 1, whose fibers really are 2-to-1, and passes.
"""

import math
import random
import time
import warnings

import numpy as np
import pytest

from amoebas import (
    DegenerateFiber,
    DegenerateSlice,
    amoeba_basis,
    amoeba_grids,
    cell_walls,
    classify,
    classify_contour,
    contour_slice,
    fiber_solutions,
    linear_classify,
    lopsided,
    order,
    parse_poly,
    trace_contour,
    verify_basis,
)
from amoebas.cli import main as cli_main
from amoebas.laurent import LaurentPoly, _dense
from oracles import torus_min_modulus

CUBIC1 = "z1^3 + z2^3 + z1*z2 + 1"
CUBIC13 = "z1^3 + z2^3 + 1.3*z1*z2 + 1"
SPEC_CUBIC = "z1^3 + z2^3 - 4*z1*z2 + 1"
TWO_TO_ONE = "z1^2*z2 + z1*z2^2 - 4*z1*z2 + 1"
WINDOW = ((-2.0, -2.0), (2.0, 2.0))


def quadnomial(c):
    return parse_poly(f"-2*z1^2 - 2*z1*z2^2 + 1.5i*z1^-1*z2^-1 - {abs(c)!r}", 2)


def cleared_degree(f):
    i, j = np.nonzero(_dense(f.terms.items(), 2))
    return int((i + j).max())


def grid_and_trace(text, n_slices=720):
    f = parse_poly(text, 2)
    betti, tags = amoeba_grids(f, WINDOW, (81, 81))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pts = trace_contour(f, n_slices)
    return f, betti, tags, pts


def pipeline_bytes(betti, pts):
    g12 = lambda x: format(float(x), ".12g")
    rows = ["\t".join(str(int(v)) for v in row) for row in np.asarray(betti.cells)]
    trail = [f"{g12(p.w[0])},{g12(p.w[1])},{g12(p.s_param)}" for p in pts]
    return ("\n".join(rows) + "\n" + "\n".join(trail) + "\n").encode("ascii")


def hausdorff_fraction(betti, pts):
    """Fraction of in-window traced points within 2 cell diagonals of a wall."""
    walls, _ = cell_walls(betti)
    xs, ys = betti.centers()
    wc = np.array([(xs[i], ys[j]) for i, j in walls])
    dx, dy = betti.cell_size()
    (x0, y0), (x1, y1) = betti.window
    inside = [p for p in pts if x0 <= p.w[0] <= x1 and y0 <= p.w[1] <= y1]
    hits = sum(
        1
        for p in inside
        if np.hypot(wc[:, 0] - p.w[0], wc[:, 1] - p.w[1]).min()
        <= 2.0 * math.hypot(dx, dy)
    )
    return hits / len(inside), len(inside)


@pytest.fixture(scope="module")
def spec_cubic_pipeline():
    return grid_and_trace(SPEC_CUBIC)


@pytest.fixture(scope="module")
def two_to_one_pipeline():
    return grid_and_trace(TWO_TO_ONE)


def test_criterion_01_cubic_point_queries(verdict):
    t0 = time.perf_counter()
    pc1 = classify(parse_poly(CUBIC1, 2), (0.0, 0.0))
    t1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    pc13 = classify(parse_poly(CUBIC13, 2), (0.0, 0.0))
    t13 = time.perf_counter() - t0
    ord13 = order(parse_poly(CUBIC13, 2), (0.0, 0.0))
    island_ok = pc13.tag == "Complement" and ord13 == (1, 1)
    solid_ok = pc1.tag == "Interior"
    verdict(
        1,
        island_ok and solid_ok and t1 < 1.0 and t13 < 1.0,
        f"c=1.3: {pc13.tag} order {ord13} in {t13:.3f}s; "
        f"c=1: {pc1.tag} in {t1:.3f}s with {len(pc1.solutions)} solutions, "
        f"critical flags {sorted({s.critical for s in pc1.solutions})}",
    )
    assert pc13.tag == "Complement"
    assert ord13 == (1, 1)
    assert t1 < 1.0 and t13 < 1.0
    assert pc1.tag == "Interior", (
        "measured Boundary: all nine origin fiber solutions are critical "
        "double points, so the origin is an extended boundary point for "
        "c = 1 and Interior is unattainable"
    )


def test_criterion_02_fiber_regimes_and_transition(verdict):
    t0 = time.perf_counter()
    w = (0.0, 0.0)
    sols_in = fiber_solutions(quadnomial(-1.2), w)
    pc_in = classify(quadnomial(-1.2), w)
    sols_out = fiber_solutions(quadnomial(-4.9), w)
    pc_out = classify(quadnomial(-4.9), w)

    lo, hi = -4.9, -1.2  # empty at lo, populated at hi
    while hi - lo >= 1e-3:
        mid = 0.5 * (lo + hi)
        if fiber_solutions(quadnomial(mid), w):
            hi = mid
        else:
            lo = mid
    elapsed = time.perf_counter() - t0
    verdict(
        2,
        bool(sols_in) and not sols_out and hi - lo < 1e-3 and elapsed < 10.0,
        f"c=-1.2: {len(sols_in)} solutions ({pc_in.tag}); c=-4.9: "
        f"{len(sols_out)} ({pc_out.tag}); transition in "
        f"[{lo:.6f}, {hi:.6f}]; {elapsed:.2f}s",
    )
    assert sols_in and any(not s.critical for s in sols_in)
    assert pc_in.tag == "Interior"
    assert sols_out == []
    assert pc_out.tag == "Complement"
    assert hi - lo < 1e-3
    assert fiber_solutions(quadnomial(hi), w)
    assert not fiber_solutions(quadnomial(lo), w)
    assert elapsed < 10.0


def test_criterion_03_linear_boundary_agreement(verdict):
    rng = random.Random(33033)
    h = 1e-3
    agree = 0
    trials = 100
    for _ in range(trials):
        b = [
            rng.uniform(0.3, 3.0) * complex(math.cos(a), math.sin(a))
            for a in (rng.uniform(0.0, 2.0 * math.pi) for _ in range(2))
        ]
        f = LaurentPoly(2, {(0, 0): 1.0 + 0j, (1, 0): b[0], (0, 1): b[1]})
        dom = rng.randrange(3)
        if dom == 0:
            s = rng.uniform(0.15, 0.85)
            w = (math.log(s / abs(b[0])), math.log((1.0 - s) / abs(b[1])))
            shift = (-1.0, -1.0)  # shrinking both variable terms escapes
        elif dom == 1:
            u = rng.uniform(0.2, 2.0)
            w = (math.log((1.0 + u) / abs(b[0])), math.log(u / abs(b[1])))
            shift = (1.0, 0.0)
        else:
            u = rng.uniform(0.2, 2.0)
            w = (math.log(u / abs(b[0])), math.log((1.0 + u) / abs(b[1])))
            shift = (0.0, 1.0)
        w_out = (w[0] + h * shift[0], w[1] + h * shift[1])
        w_in = (w[0] - h * shift[0], w[1] - h * shift[1])
        tags = (
            linear_classify(f, w)[0],
            classify(f, w).tag,
            linear_classify(f, w_out)[0],
            classify(f, w_out).tag,
            linear_classify(f, w_in)[0],
            classify(f, w_in).tag,
        )
        if tags == (
            "Boundary", "Boundary",
            "Complement", "Complement",
            "Interior", "Interior",
        ):
            agree += 1
    verdict(3, agree == trials, f"{agree}/{trials} full agreement on both backends")
    assert agree == trials


def test_criterion_04_gauss_map_degree(verdict):
    f = parse_poly(CUBIC1, 2)
    rng = random.Random(44044)
    t0 = time.perf_counter()
    nine = 0
    flagged = 0
    for _ in range(50):
        theta = rng.uniform(0.0, math.pi)
        try:
            pts = contour_slice(f, theta)
        except DegenerateSlice:
            flagged += 1
            continue
        if len(pts) == 9:
            nine += 1
    elapsed = time.perf_counter() - t0
    verdict(
        4,
        nine >= 45 and elapsed < 30.0,
        f"{nine}/50 slices with exactly 9 solutions, {flagged} flagged "
        f"non-generic; {elapsed:.1f}s",
    )
    assert nine >= 45
    assert elapsed < 30.0


def test_criterion_05_harnack_clauses_on_the_stated_cubic(
    verdict, spec_cubic_pipeline
):
    f, betti, tags, pts = spec_cubic_pipeline
    values = set(int(v) for v in np.unique(betti.cells))
    no_inner = "ContourInterior" not in set(tags.cells.ravel())
    frac, n_inside = hausdorff_fraction(betti, pts)
    verdict(
        5,
        values <= {0, 2} and no_inner and frac >= 0.95,
        f"Betti values {sorted(values)}; ContourInterior cells: "
        f"{0 if no_inner else 'present'}; walls match trace on "
        f"{frac:.1%} of {n_inside} in-window points",
    )
    assert no_inner
    assert frac >= 0.95
    assert values <= {0, 2}, (
        "measured counts {0, 6}: the curve is invariant under "
        "(z1, z2) -> (u*z1, u^2*z2) with u^3 = 1, which preserves moduli "
        "and acts freely on fiber solutions, so every finite count is a "
        "multiple of 3 and the 2-to-1 clause cannot hold for this cubic"
    )


def test_criterion_05_companion_two_to_one_curve(verdict, two_to_one_pipeline):
    f, betti, tags, pts = two_to_one_pipeline
    values = set(int(v) for v in np.unique(betti.cells))
    no_inner = "ContourInterior" not in set(tags.cells.ravel())
    frac, n_inside = hausdorff_fraction(betti, pts)
    verdict(
        "5 companion",
        values == {0, 2} and no_inner and frac >= 0.95,
        f"Betti values {sorted(values)}; walls match trace on "
        f"{frac:.1%} of {n_inside} in-window points",
    )
    assert values == {0, 2}
    assert no_inner
    assert frac >= 0.95


def test_criterion_06_contour_split_of_the_non_harnack_cubic(verdict):
    f = parse_poly(CUBIC1, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pts = trace_contour(f, 90)
    split = classify_contour(f, pts)
    n_boundary = len(split["boundary"])
    n_inner = len(split["inner"])
    verdict(
        6,
        n_boundary > 0 and n_inner > 0,
        f"{n_boundary} boundary and {n_inner} inner contour points",
    )
    assert n_boundary > 0
    assert n_inner > 0


def test_criterion_07_betti_counts_respect_the_degree_bound(
    verdict, spec_cubic_pipeline, two_to_one_pipeline
):
    rasters = [
        (spec_cubic_pipeline[0], spec_cubic_pipeline[1]),
        (two_to_one_pipeline[0], two_to_one_pipeline[1]),
        (parse_poly(CUBIC1, 2), None),
        (quadnomial(-1.2), None),
    ]
    violations = 0
    checked = []
    for f, betti in rasters:
        if betti is None:
            betti = amoeba_grids(f, ((-1.5, -1.5), (1.5, 1.5)), (15, 15))[0]
        bound = 4 * cleared_degree(f) ** 2
        finite = betti.cells[betti.cells >= 0]
        violations += int((finite > bound).sum())
        checked.append(f"max {int(finite.max())} <= {bound}")
    verdict(7, violations == 0, "; ".join(checked))
    assert violations == 0


def test_criterion_08_amoeba_basis(verdict):
    t0 = time.perf_counter()
    basis = amoeba_basis([[0.5, 0.5], [2.0, -1.0]])
    expect = [
        {(0, 0): 1.0, (1, 0): 0.5, (0, 1): 0.5},
        {(0, 0): 1.0, (1, 0): 2.0, (0, 1): -1.0},
        {(0, 0): 1.0, (1, 0): -1.0, (0, 1): 2.0},
    ]
    coeff_err = max(
        abs(g.terms[a] - c)
        for g, ref in zip(basis.polys, expect)
        for a, c in ref.items()
    )
    report = verify_basis(basis, samples=10000)
    # removing member i leaves its minimality witness inside every other
    # member amoeba at a point off Log|v|, so axiom 1 breaks
    removal_ok = True
    for i, w in report.minimality_witnesses.items():
        rest = [g for k, g in enumerate(basis.polys) if k != i]
        off = math.hypot(w[0] - basis.log_point[0], w[1] - basis.log_point[1])
        if off <= 1e-9 or any(
            linear_classify(g, w)[0] == "Complement" for g in rest
        ):
            removal_ok = False
    elapsed = time.perf_counter() - t0

    random_ok = 0
    rng = random.Random(88088)
    while random_ok < 20:
        n = rng.choice([2, 3])
        a = np.array(
            [
                [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
                for _ in range(n)
            ]
        )
        try:
            b = amoeba_basis(a)
        except Exception:
            continue
        rep = verify_basis(b, samples=2000)
        assert rep.escapes == rep.samples
        assert rep.rank == n
        random_ok += 1
    verdict(
        8,
        coeff_err < 1e-9 and report.escapes == 10000 and removal_ok
        and elapsed < 10.0,
        f"coefficient error {coeff_err:.2e}; {report.escapes}/10000 escapes; "
        f"removal breaks axiom 1 for all 3 members; {random_ok} random "
        f"systems verified; {elapsed:.2f}s",
    )
    assert coeff_err < 1e-9
    assert report.samples == report.escapes == 10000
    assert sorted(report.minimality_witnesses) == [0, 1, 2]
    assert removal_ok
    assert report.rank == 2
    assert elapsed < 10.0
    assert random_ok == 20


def _draw_poly(rng):
    """Random Laurent polynomial whose cleared total degree is in [1, 4]."""
    while True:
        terms = {}
        for _ in range(rng.integers(3, 7)):
            a = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
            mod = rng.uniform(0.3, 3.0)
            ph = rng.uniform(0.0, 2.0 * math.pi)
            terms[a] = complex(mod * math.cos(ph), mod * math.sin(ph))
        if len(terms) < 3:
            continue
        lo1 = min(a[0] for a in terms)
        lo2 = min(a[1] for a in terms)
        deg = max(a[0] - lo1 + a[1] - lo2 for a in terms)
        if 1 <= deg <= 4:
            return LaurentPoly(2, terms)


def test_criterion_09_membership_matches_the_brute_oracle(verdict):
    rng = np.random.default_rng(99099)
    agree = 0
    lopsided_checked = 0
    trials = 100
    done = 0
    while done < trials:
        f = _draw_poly(rng)
        w = (float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5)))
        m = torus_min_modulus(list(f.terms.items()), w)
        # the sweep oracle cannot rule on points this close to the
        # boundary of its own resolution; redraw instead of guessing
        if 1e-10 <= m <= 1e-6:
            continue
        oracle_member = m < 1e-10
        try:
            sols = fiber_solutions(f, w)
        except DegenerateFiber:
            continue
        done += 1
        if bool(sols) == oracle_member:
            agree += 1
        alpha = lopsided(f, w)
        if alpha is not None:
            lopsided_checked += 1
            assert not sols
            assert not oracle_member
    verdict(
        9,
        agree == trials,
        f"{agree}/{trials} oracle agreement; {lopsided_checked} dominant-term "
        "certificates, none contradicted",
    )
    assert agree == trials


def test_criterion_10_byte_determinism(
    verdict, capsys, spec_cubic_pipeline
):
    runs = []
    for _ in range(2):
        cli_main(["classify", "--poly", CUBIC1, "--point", "0,0"])
        cli_main(["classify", "--poly", CUBIC13, "--point", "0,0"])
        runs.append(capsys.readouterr().out)
    point_ok = runs[0] == runs[1]

    first = pipeline_bytes(spec_cubic_pipeline[1], spec_cubic_pipeline[3])
    _, betti2, _, pts2 = grid_and_trace(SPEC_CUBIC)
    raster_ok = first == pipeline_bytes(betti2, pts2)

    runs = []
    for _ in range(2):
        cli_main(["basis", "--linear", "0.5,0.5;2,-1"])
        runs.append(capsys.readouterr().out)
    basis_ok = runs[0] == runs[1]

    verdict(
        10,
        point_ok and raster_ok and basis_ok,
        f"point queries {'identical' if point_ok else 'DIFFER'}; raster and "
        f"trace {'identical' if raster_ok else 'DIFFER'} "
        f"({len(first)} bytes); basis report "
        f"{'identical' if basis_ok else 'DIFFER'}",
    )
    assert point_ok
    assert raster_ok
    assert basis_ok
