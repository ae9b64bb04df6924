"""Exact linear membership and the amoeba-basis construction."""

import math
import random

import numpy as np
import pytest

from amoebas import (
    AmoebaBasis,
    AxiomFailure,
    NotLinear,
    SingularMatrix,
    ZeroCoordinate,
    amoeba_basis,
    linear_classify,
    parse_poly,
    verify_basis,
)
from amoebas import linear
from amoebas.laurent import LaurentPoly
from oracles import linear_moduli, linear_tag

F = parse_poly("1 + 2*z1 + 3*z2", 2)
REFERENCE = [[0.5, 0.5], [2.0, -1.0]]
# the 3x3 system of the benchmark's seed 3, also a golden example
SYS3 = [
    [0.370769 - 0.478526j, -1.149783 + 0.853415j, -0.201929 - 0.719517j],
    [0.495562 - 0.152346j, -0.237374 - 0.560696j, -0.480229 + 0.643087j],
    [-1.226668 + 0.167826j, 0.346062 - 0.627983j, 0.063783 - 1.334861j],
]


def test_classify_dominant_variable_term():
    tag, order = linear_classify(F, (10.0, 0.0))
    assert tag == "Complement"
    assert order == (1, 0)
    tag, order = linear_classify(F, (0.0, 10.0))
    assert (tag, order) == ("Complement", (0, 1))


def test_classify_dominant_constant():
    tag, order = linear_classify(F, (-10.0, -10.0))
    assert tag == "Complement"
    assert order == (0, 0)


def test_classify_boundary_equality():
    # at the origin the moduli are (1, 2, 3) and 3 = 1 + 2 exactly
    tag, order = linear_classify(F, (0.0, 0.0))
    assert tag == "Boundary"
    assert order is None


def test_classify_interior():
    tag, order = linear_classify(F, (0.0, -1.0))
    assert (tag, order) == ("Interior", None)


def test_classify_missing_variable_coefficient():
    f = parse_poly("1 + 2*z1", 2)
    assert linear_classify(f, (0.0, 5.0)) == ("Complement", (1, 0))
    assert linear_classify(f, (-math.log(2.0), 5.0))[0] == "Boundary"


def test_classify_small_perturbations_flip_the_boundary():
    # the dominant term at the origin is 3 z2, so growing w2 escapes
    eps = 1e-3
    assert linear_classify(F, (eps, 0.0))[0] == "Interior"
    assert linear_classify(F, (0.0, eps))[0] == "Complement"
    assert linear_classify(F, (0.0, -eps))[0] == "Interior"


def test_classify_rejects_nonlinear_input():
    for text in ("1 + z1^2 + z2", "1 + z1*z2", "1 + z1^-1 + z2", "z1 + z2"):
        with pytest.raises(NotLinear):
            linear_classify(parse_poly(text, 2), (0.0, 0.0))


def test_basis_witness_solves_the_system():
    v = amoeba_basis(REFERENCE).witness
    assert v[0] == pytest.approx(-1.0)
    assert v[1] == pytest.approx(-1.0)


def test_basis_rejects_singular_matrices():
    with pytest.raises(SingularMatrix):
        amoeba_basis([[1.0, 2.0], [2.0, 4.0]])


@pytest.mark.parametrize("matrix", [[[1.0, 2.0, 3.0]], [[1.0]], [1.0, 2.0]],
                         ids=["not-square", "1x1", "vector"])
def test_basis_rejects_a_matrix_it_cannot_use(matrix):
    with pytest.raises(ValueError):
        amoeba_basis(matrix)


def test_basis_member_that_does_not_vanish_fails_axiom_one(monkeypatch):
    basis = amoeba_basis(REFERENCE)
    # 1e-6 is far above 1e-9 of member 0's term-modulus sum (2) at Log|v|
    monkeypatch.setattr(linear, "evaluate", lambda g, z: 1e-6 + 0j)
    with pytest.raises(AxiomFailure) as built:
        amoeba_basis(REFERENCE)
    assert built.value.axiom == 1
    assert built.value.witness == basis.witness
    assert str(built.value) == "axiom 1: member 0 does not vanish at the witness"
    with pytest.raises(AxiomFailure) as verified:
        verify_basis(basis, samples=10)
    # one check, one message, for the construction and the verification
    assert (verified.value.axiom, verified.value.witness, str(verified.value)) == (
        built.value.axiom, built.value.witness, str(built.value))


def test_basis_member_off_its_boundary_equality_fails_axiom_one(monkeypatch):
    real = linear._torus_moduli

    def heavier_constant(g, w):
        items, mods, cap = real(g, w)
        return items, [2.0 * mods[0]] + mods[1:], cap  # the constant sorts first

    monkeypatch.setattr(linear, "_torus_moduli", heavier_constant)
    with pytest.raises(AxiomFailure) as err:
        amoeba_basis(REFERENCE)
    assert err.value.axiom == 1
    # member 0's dominant slot is the constant, so it fails first, at Log|v|
    assert err.value.witness == (0.0, 0.0)
    assert str(err.value) == "basis polynomial 0 misses its boundary equality at Log|v|"


def test_basis_exact_triple_for_the_reference_system():
    basis = amoeba_basis([[0.5, 0.5], [2.0, -1.0]])
    assert isinstance(basis, AmoebaBasis)
    assert len(basis.polys) == 3
    expect = [
        {(0, 0): 1.0, (1, 0): 0.5, (0, 1): 0.5},
        {(0, 0): 1.0, (1, 0): 2.0, (0, 1): -1.0},
        {(0, 0): 1.0, (1, 0): -1.0, (0, 1): 2.0},
    ]
    for g, ref in zip(basis.polys, expect):
        assert set(g.terms) == set(ref)
        for alpha, c in ref.items():
            assert abs(g.terms[alpha] - c) < 1e-9
    assert basis.witness == (-1.0, -1.0)
    assert basis.log_point == (0.0, 0.0)


def test_basis_verification_report():
    basis = amoeba_basis([[0.5, 0.5], [2.0, -1.0]])
    report = verify_basis(basis, samples=2000)
    assert report.samples == 2000
    assert report.escapes == 2000
    assert report.rank == 2
    assert sorted(report.minimality_witnesses) == [0, 1, 2]
    # each minimality witness lies inside every member amoeba but one
    for i, w in report.minimality_witnesses.items():
        for k, g in enumerate(basis.polys):
            tag = linear_classify(g, w)[0]
            if k == i:
                assert tag == "Complement"
            else:
                assert tag != "Complement"


@pytest.mark.parametrize("box", [math.nan, math.inf, 1e308, 0.0, -1.0])
def test_verify_basis_rejects_a_box_it_cannot_draw_from(box):
    # the box spans 2 * box, which must be a positive finite float, as
    # the command line's --box demands
    basis = amoeba_basis(REFERENCE)
    with pytest.raises(ValueError, match="box"):
        verify_basis(basis, samples=10, box=box)


def test_minimality_witnesses_from_the_fallback_walk(monkeypatch):
    # one sample cannot serve all three members, so the witnesses come from
    # the walk away from Log|v| along each member's leading term
    calls = []
    real = linear._walk_witness

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(linear, "_walk_witness", counted)
    basis = amoeba_basis([[1.0, 2.0], [3.0, 4.0]])
    report = verify_basis(basis, samples=1)
    assert len(calls) == 3
    assert sorted(report.minimality_witnesses) == [0, 1, 2]
    for i, w in report.minimality_witnesses.items():
        assert w != basis.log_point
        tags = [linear_classify(g, w)[0] for g in basis.polys]
        assert tags[i] == "Complement"
        assert all(tag != "Complement" for k, tag in enumerate(tags) if k != i)


def test_a_duplicated_member_fails_axiom_two():
    # a copy of g0 is outside its amoeba wherever g0 is, so no point lies
    # outside g0's amoeba alone: neither a sample nor the walk finds one
    basis = amoeba_basis(REFERENCE)
    doubled = AmoebaBasis((basis.polys[0],) + basis.polys, basis.witness)
    assert linear._walk_witness(doubled, 0) is None
    with pytest.raises(AxiomFailure, match="without member 0") as err:
        verify_basis(doubled)
    assert (err.value.axiom, err.value.witness) == (2, None)


def test_rank_deficient_coefficient_rows_fail_axiom_three(monkeypatch):
    # amoeba_basis never emits dependent rows; a patched SVD stands in for them
    basis = amoeba_basis(REFERENCE)
    monkeypatch.setattr(np.linalg, "svd", lambda a, compute_uv: np.array([1.0, 1e-12, 0.0]))
    with pytest.raises(AxiomFailure, match="axiom 3: coefficient rank 1 != 2") as err:
        verify_basis(basis, samples=100)
    assert (err.value.axiom, err.value.witness) == (3, None)


def test_walk_witnesses_lie_outside_their_member_alone():
    # a walk step often leaves several amoebas at once; only a lone one counts
    rng = np.random.default_rng(5)
    found = 0
    for _ in range(40):
        n = int(rng.integers(2, 5))
        basis = amoeba_basis(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        for i in range(n + 1):
            w = linear._walk_witness(basis, i)
            if w is not None:
                found += 1
                outside = [linear_classify(g, w)[0] == "Complement" for g in basis.polys]
                assert outside[i] and sum(outside) == 1
    assert found > 50


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_the_walk_alone_verifies_seeded_random_systems(n):
    # with one sample every minimality witness comes from the walk; entries
    # N(0,1) + iN(0,1) rounded to 0.01, as a user would type them
    rng = np.random.default_rng(n)
    for _ in range(25):
        a = np.round(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 2)
        report = verify_basis(amoeba_basis(a), samples=1)
        assert sorted(report.minimality_witnesses) == list(range(n + 1))


def test_removing_a_member_breaks_the_point_intersection():
    basis = amoeba_basis([[0.5, 0.5], [2.0, -1.0]])
    report = verify_basis(basis, samples=500)
    for i, w in report.minimality_witnesses.items():
        rest = [g for k, g in enumerate(basis.polys) if k != i]
        assert all(linear_classify(g, w)[0] != "Complement" for g in rest)
        off = math.hypot(w[0] - basis.log_point[0], w[1] - basis.log_point[1])
        assert off > 1e-6


def test_a_member_whose_amoeba_misses_log_v_fails_axiom_one():
    # g0 with its z2 coefficient 1.5e-9 short still vanishes at v within
    # 1e-9 of its term sum, but its constant term outweighs the others at
    # Log|v| by more than the 1e-9 Complement edge
    basis = amoeba_basis(REFERENCE)
    g0 = LaurentPoly(2, {(0, 0): 1.0, (1, 0): 0.5, (0, 1): 0.5 - 1.5e-9})
    broken = AmoebaBasis((g0,) + basis.polys[1:], basis.witness)
    with pytest.raises(AxiomFailure, match=r"axiom 1: Log\|v\| escapes member 0") as err:
        verify_basis(broken, samples=10)
    assert (err.value.axiom, err.value.witness) == (1, basis.log_point)


def test_perturbed_member_fails_axiom_one():
    basis = amoeba_basis([[0.5, 0.5], [2.0, -1.0]])
    bad = dict(basis.polys[0].terms)
    bad[(0, 0)] = 1.001 + 0j
    polys = (LaurentPoly(2, bad),) + basis.polys[1:]
    broken = AmoebaBasis(polys, basis.witness)
    with pytest.raises(AxiomFailure) as err:
        verify_basis(broken, samples=100)
    assert err.value.axiom == 1


def test_zero_coordinate_solution_is_rejected():
    # v = (-1, 0) solves both rows, which leaves the phase factors undefined
    with pytest.raises(ZeroCoordinate):
        amoeba_basis([[1.0, 1.0], [1.0, 2.0]])


def test_random_full_rank_systems_verify():
    rng = random.Random(424242)
    built = 0
    while built < 20:
        n = rng.choice([2, 3])
        a = np.array(
            [
                [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
                for _ in range(n)
            ]
        )
        try:
            basis = amoeba_basis(a)
        except (SingularMatrix, ZeroCoordinate):
            continue
        report = verify_basis(basis, samples=400)
        assert report.escapes == report.samples
        assert report.rank == n
        assert len(basis.polys) == n + 1
        scale = max(abs(v) for v in basis.witness)
        for g in basis.polys:
            val = sum(
                c * np.prod([basis.witness[k] ** alpha[k] for k in range(n)])
                for alpha, c in g.terms.items()
            )
            assert abs(val) < 1e-8 * max(1.0, scale)
        built += 1


def test_boundary_equality_holds_at_the_log_point():
    # each member's dominant term modulus equals the sum of the others
    # at Log|v|, its own index being the dominant slot
    basis = amoeba_basis([[0.5, 0.5], [2.0, -1.0]])
    w = basis.log_point
    for g in basis.polys:
        assert linear_classify(g, w)[0] == "Boundary"


def _lead_points(g, gaps, rng):
    """Points where one term modulus of g leads the sum of the others by each gap.

    The gap is on the moduli scaled by their maximum, as in the 1e-9 band
    of linear_classify; every term with a coefficient leads in turn.
    """
    n = g.nvars
    const = g.terms[(0,) * n]
    b = [abs(g.terms.get(tuple(int(i == k) for i in range(n)), 0) / const) for k in range(n)]
    live = [k for k in range(n) if b[k] > 0]
    pts = []
    for lead in [None] + live:
        others = [k for k in live if k != lead]
        for gap in gaps:
            w = rng.uniform(-1.0, 1.0, n)
            if lead is None:
                top, share = 1.0, 1.0 - gap
            elif others:
                top = rng.uniform(2.0, 4.0)
                share = top * (1.0 - gap) - 1.0
            else:
                top, share = 1.0 / (1.0 - gap), 0.0
            if lead is not None:
                w[lead] = math.log(top / b[lead])
            for k, p in zip(others, rng.dirichlet(np.ones(len(others)))):
                w[k] = math.log(p * share / b[k])
            pts.append(w)
    return np.array(pts)


# lead gaps within 1e-12 of the 1e-9 band edges, most within a few ulps of them
# where numpy and math arithmetic can disagree, and just outside that guard band
GUARDED = [s * 1e-9 + d for s in (1, -1)
           for d in (-4e-13, *(k * 1e-16 for k in range(-4, 5)), 4e-13)]
UNGUARDED = [0.0] + [s * 1e-9 + d for s in (1, -1) for d in (-3e-12, 3e-12)]


def near_complement_edge(g, w):
    """Whether some dominance gap of g at w lies within 1e-12 of +1e-9 (scalar arithmetic)."""
    vals, total = linear_moduli(g.terms.items(), w)
    return any(abs(v - (total - v) - 1e-9) <= 1e-12 for v in vals)


@pytest.mark.parametrize("matrix", [REFERENCE, [[1.0, 2.0], [3.0, 4.0]], SYS3],
                         ids=["2x2", "2x2-real", "3x3"])
def test_array_tags_match_the_scalar_oracle(monkeypatch, matrix):
    rng = np.random.default_rng(20261018)
    basis = amoeba_basis(matrix)
    n = len(basis.witness)
    handed = []
    real = linear.linear_classify
    monkeypatch.setattr(linear, "linear_classify", lambda g, w: handed.append(w) or real(g, w))
    seen = set()
    for g in basis.polys + (parse_poly("1 + 2*z1", n),):
        guarded = _lead_points(g, GUARDED, rng)
        W = np.vstack([
            np.asarray(basis.log_point) + rng.uniform(-3.0, 3.0, (2000, n)),
            _lead_points(g, UNGUARDED, rng),
            guarded,
        ])
        handed.clear()
        tags = [linear_tag(g.terms.items(), w) for w in W.tolist()]
        assert linear._outside(g, W).tolist() == [tag == "Complement" for tag in tags]
        # the rows with a gap at the +1e-9 Complement edge, and only those, go
        # to linear_classify: half the guarded rows, or all of them for two
        # terms, where a lead at -1e-9 leaves its one rival at +1e-9
        assert handed == [w for w in W.tolist() if near_complement_edge(g, w)]
        assert len(handed) == len(guarded) // (1 if len(g.terms) == 2 else 2)
        seen.update(tags)
    assert seen == {"Complement", "Boundary", "Interior"}


@pytest.mark.parametrize("n", [2, 3])
def test_linear_classify_matches_the_scalar_oracle_for_any_constant(n):
    # the basis members all have the constant 1; here the constant's modulus
    # varies, as in the benchmark's linear polynomials
    rng = np.random.default_rng(20261020 + n)
    seen = set()
    for _ in range(60):
        mods = np.exp(rng.uniform(math.log(0.3), math.log(3.0), n + 1))
        g = linear._poly(np.round(mods * np.exp(1j * rng.uniform(0, 2 * math.pi, n + 1)), 6))
        W = np.vstack([rng.uniform(-1.5, 1.5, (20, n)), _lead_points(g, UNGUARDED, rng)])
        for w in W.tolist():
            tag, order = linear_classify(g, w)
            assert tag == linear_tag(g.terms.items(), w)
            if tag == "Complement":
                vals, _ = linear_moduli(g.terms.items(), w)
                lead = vals.index(max(vals))
                assert order == tuple(int(k == lead - 1) for k in range(n))
            seen.add(tag)
    assert seen == {"Complement", "Boundary", "Interior"}


@pytest.mark.parametrize("matrix", [REFERENCE, SYS3], ids=["2x2", "3x3"])
def test_verify_basis_makes_no_per_sample_scalar_call(monkeypatch, matrix):
    basis = amoeba_basis(matrix)
    calls = []
    real = linear.linear_classify
    monkeypatch.setattr(linear, "linear_classify", lambda g, w: calls.append(w) or real(g, w))
    report = verify_basis(basis, samples=10000)
    assert report.escapes == 10000
    # the Log|v| check of each member; no sample falls in the guard band
    assert calls == [basis.log_point] * len(basis.polys)


def test_removed_member_fails_axiom_one_at_the_first_sample_inside_the_rest():
    basis = amoeba_basis(REFERENCE)
    rest = basis.polys[1:]
    with pytest.raises(AxiomFailure) as err:
        verify_basis(AmoebaBasis(rest, basis.witness))
    assert err.value.axiom == 1
    draws = np.random.default_rng(linear._VERIFY_SEED).uniform(-2.0, 2.0, (10000, 2))
    first = next(
        tuple(w) for w in (np.asarray(basis.log_point) + draws).tolist()
        if all(linear_tag(g.terms.items(), w) != "Complement" for g in rest)
    )
    assert err.value.witness == first
    # as recorded with the per-sample loop that the array pass replaced
    assert err.value.witness == (-1.3951937324820372, -0.6562189091968573)


def _basis_outcomes():
    """The report of a sound basis and the failure of one without its first member."""
    basis = amoeba_basis(REFERENCE)
    report = verify_basis(basis, samples=1000)
    with pytest.raises(AxiomFailure) as err:
        verify_basis(AmoebaBasis(basis.polys[1:], basis.witness))
    return ((report.samples, report.escapes, report.minimality_witnesses, report.rank),
            (err.value.axiom, err.value.witness))


@pytest.mark.parametrize("block", [2, 7])
def test_sample_blocks_change_no_verdict(monkeypatch, block):
    # the seeded stream comes out the same drawn in chunks; with blocks of
    # 2 the first stuck sample (index 2) lies in the second block, with
    # blocks of 7 member 1's first lone sample (index 24) in the fourth
    default = _basis_outcomes()
    monkeypatch.setattr(linear, "_SAMPLE_BLOCK", block)
    assert _basis_outcomes() == default
