"""Closed-form machinery for linear polynomials.

For f = 1 + sum_j b_j z_j the amoeba is described exactly by the term
moduli r_j = |b_j| e^{w_j}: the point w lies outside the amoeba exactly
when one term strictly dominates the sum of all the others, on the
boundary when equality holds for some term, and inside otherwise.  On
top of that exact membership test sits the amoeba-basis construction:
a full-rank system of n linear polynomials with common zero v is
replaced by n+1 linear polynomials whose amoebas intersect exactly in
the single point Log|v|.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import AxiomFailure, NotLinear, ZeroCoordinate
from .laurent import LaurentPoly, _torus_moduli, evaluate
from .numeric import solve_linear

_EQUALITY_TOL = 1e-9


class AmoebaBasis:
    """n+1 linear polynomials whose amoebas meet exactly in Log|witness|."""

    __slots__ = ("polys", "witness")

    def __init__(self, polys, witness):
        self.polys = tuple(polys)
        self.witness = tuple(complex(z) for z in witness)

    @property
    def log_point(self):
        return tuple(math.log(abs(v)) for v in self.witness)

    def __repr__(self):
        return f"AmoebaBasis({len(self.polys)} polynomials, n={len(self.witness)})"


class BasisReport:
    """Outcome of verify_basis: per-axiom evidence."""

    __slots__ = ("samples", "escapes", "minimality_witnesses", "rank")

    def __init__(self, samples, escapes, minimality_witnesses, rank):
        self.samples = int(samples)
        self.escapes = int(escapes)
        self.minimality_witnesses = dict(minimality_witnesses)
        self.rank = int(rank)

    def __repr__(self):
        return (
            f"BasisReport(samples={self.samples}, escapes={self.escapes}, "
            f"minimality={len(self.minimality_witnesses)}, rank={self.rank})"
        )


# --------------------------------------------------------------------------
# exact membership for linear polynomials
# --------------------------------------------------------------------------

def _row(g):
    """Coefficients [c0, b_1, .., b_n] of g = c0 + sum b_j z_j, 0j where absent, or NotLinear."""
    row = [0j] * (g.nvars + 1)
    for alpha, c in g.terms.items():
        if any(a < 0 for a in alpha) or sum(alpha) > 1:
            raise NotLinear("expected a constant plus degree-one terms")
        row[1 + alpha.index(1) if sum(alpha) else 0] = c
    return row


def linear_classify(f, w):
    """Exact membership of w against the amoeba of a linear polynomial.

    With r_0 = |c0| and r_j = |b_j| e^{w_j}, scaled so that the largest is
    1 (``_torus_moduli``), the tag is

    - ``Complement`` when some r_j exceeds the sum of the others by more
      than 1e-9 (returned with the order vector: e_j, or the zero vector
      when the constant dominates),
    - ``Boundary`` when some r_j equals the sum of the others within 1e-9,
    - ``Interior`` otherwise.

    Lopsidedness is complete here, so no fiber computation is involved.

    Returns
    -------
    (tag, order)
        order is a tuple for Complement and None otherwise.

    Raises NotLinear unless f = c0 + sum b_j z_j with c0 != 0, ValueError
    unless len(w) == f.nvars, and Overflow when w is non-finite.
    """
    if _row(f)[0] == 0:
        raise NotLinear("the constant term must be present and nonzero")
    items, mods, _ = _torus_moduli(f, w)
    total = math.fsum(mods)
    alpha = next((alpha for (alpha, _), m in zip(items, mods)
                  if m > total - m + _EQUALITY_TOL), None)
    if alpha is not None:
        return "Complement", alpha
    if any(abs(m - (total - m)) <= _EQUALITY_TOL for m in mods):
        return "Boundary", None
    return "Interior", None


# --------------------------------------------------------------------------
# the basis construction
# --------------------------------------------------------------------------

def _poly(row):
    """The linear polynomial c0 + sum b_j z_j of [c0, b_1, .., b_n]; the inverse of _row."""
    n = len(row) - 1
    return LaurentPoly(n, {tuple(int(i == k - 1) for i in range(n)): c
                           for k, c in enumerate(row)})


def _check_vanishes(g, j, v, w_star):
    """Axiom 1 for member j: |g(v)| within 1e-9 of its term-modulus sum at w_star = Log|v|."""
    _, mods, cap = _torus_moduli(g, w_star)
    if abs(evaluate(g, v)) > 1e-9 * math.exp(cap) * math.fsum(mods):
        raise AxiomFailure(f"axiom 1: member {j} does not vanish at the witness",
                           axiom=1, witness=v)


def amoeba_basis(a):
    """Basis of n+1 linear polynomials from a full-rank n x n coefficient matrix.

    ``a`` is the system f_j = 1 + sum_k a[j, k] z_k, j = 1 .. n.  Solves it
    for its zero v, then emits

        g_0 = 1 + (1/||v||_1) sum_k (-e^{-i arg v_k}) z_k
        g_j = 1 + sum_{k != j} e^{-i arg v_k} z_k
                - ((1 + ||v||_1 - |v_j|) / v_j) z_j

    Every g_j vanishes at v, and at w* = Log|v| the term moduli of g_j
    satisfy the boundary equality with dominant index j (index 0 meaning
    the constant term).  Both facts are re-checked numerically before the
    basis is returned.

    Raises
    ------
    ValueError
        Unless ``a`` is a square matrix with n >= 2.
    SingularMatrix
        If the matrix is singular (``solve_linear``): no single common zero.
    ZeroCoordinate
        If some v_k vanishes; the phase factors are undefined then.
    AxiomFailure
        If a residual or equality check fails (indicates conditioning
        trouble, not a wrong construction).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square coefficient matrix")
    if a.shape[0] < 2:
        raise ValueError("the basis construction needs at least two variables")
    v = tuple(complex(z) for z in solve_linear(a, -np.ones(a.shape[0], dtype=complex)))
    vmax = max(abs(vk) for vk in v)
    if min(abs(vk) for vk in v) <= 1e-12 * vmax:
        raise ZeroCoordinate(
            "the system solution has a zero coordinate; the construction "
            "needs a solution in the open torus"
        )
    norm1 = math.fsum(abs(vk) for vk in v)
    phase = []
    for vk in v:
        ph = cmath.exp(-1j * cmath.phase(vk))
        # drop the roundoff crumbs the phase picks up for (almost) real
        # or purely imaginary coordinates
        re = 0.0 if abs(ph.real) <= 1e-14 else ph.real
        im = 0.0 if abs(ph.imag) <= 1e-14 else ph.imag
        phase.append(complex(re, im))

    rows = [[1.0 + 0j] + [-ph / norm1 for ph in phase]]
    for j, vj in enumerate(v):
        rows.append([1.0 + 0j] + phase)
        rows[-1][1 + j] = -(1.0 + norm1 - abs(vj)) / vj
    polys = [_poly(row) for row in rows]

    w_star = tuple(math.log(abs(vk)) for vk in v)
    for j, g in enumerate(polys):
        _check_vanishes(g, j, v, w_star)
        _, mods, _ = _torus_moduli(g, w_star)
        lead = max(mods)  # at least 1 before the scaling, which makes it 1
        if abs(lead - (math.fsum(mods) - lead)) > 1e-9:
            raise AxiomFailure(
                f"basis polynomial {j} misses its boundary equality at Log|v|",
                axiom=1,
                witness=w_star,
            )
    return AmoebaBasis(polys, v)


# --------------------------------------------------------------------------
# verification of the basis axioms
# --------------------------------------------------------------------------

_VERIFY_SEED = 8675309

# samples drawn and tagged at a time by verify_basis, which bounds its
# memory; the seeded stream, and so every verdict, does not depend on it
_SAMPLE_BLOCK = 65536


def _outside(g, W):
    """Whether linear_classify(g, w) answers Complement, for each row w of W.

    One array pass computes the dominance gaps v_j - rest_j of every row.
    numpy's log, exp and sum may differ from the math.log, math.exp and
    math.fsum of linear_classify in the last bits, so a row is decided here
    only when every gap is more than 1e-12 away from the +1e-9 Complement
    edge; the rows left over go to linear_classify itself, which stays the
    one definition of a verdict.
    """
    logr = np.empty((W.shape[0], W.shape[1] + 1))
    logr[:] = [math.log(abs(c)) if c else -math.inf for c in _row(g)]
    logr[:, 1:] += W
    vals = np.exp(logr - logr.max(axis=1, keepdims=True))
    gap = vals - (vals.sum(axis=1, keepdims=True) - vals)  # v_j - rest_j
    out = (gap > _EQUALITY_TOL).any(axis=1)
    for r in np.flatnonzero(~(np.abs(gap - _EQUALITY_TOL) > 1e-12).all(axis=1)):
        out[r] = linear_classify(g, W[r].tolist())[0] == "Complement"
    return out


def _walk_witness(basis, i):
    """A point off Log|v| inside every amoeba except the i-th, or None.

    Walks from Log|v| along the direction that grows the i-th member's
    leading term there alone: e_k when it is the term in z_k, and
    -(1, .., 1)/sqrt(n) when it is the constant.  Returns the first of
    five steps outside the i-th amoeba alone.
    """
    w_star = basis.log_point
    n = len(w_star)
    items, mods, _ = _torus_moduli(basis.polys[i], w_star)
    lead = items[mods.index(max(mods))][0]
    d = np.array(lead, dtype=float) if any(lead) else np.full(n, -1.0 / math.sqrt(n))
    W = np.asarray(w_star) + np.outer((1e-3, 1e-2, 1e-1, 0.3, 1.0), d)
    outside = np.stack([_outside(g, W) for g in basis.polys], axis=1)
    lone = outside[:, i] & (outside.sum(axis=1) == 1)
    return tuple(W[lone.argmax()].tolist()) if lone.any() else None


def verify_basis(basis, samples=10000, box=2.0):
    """Check the three amoeba-basis axioms by sampling and linear algebra.

    Axiom 1 (intersection): Log|v| lies in every member amoeba, and each
    of ``samples`` random points drawn uniformly from a box of half-side
    ``box`` around Log|v| is certified outside some member (so the
    intersection of the member amoebas is the single point Log|v|).
    Residuals g_j(v) = 0 are re-checked first, since a perturbed member
    breaks the intersection long before sampling can see it.

    Axiom 2 (minimality): for every i a witness point is produced that
    lies in all member amoebas except the i-th: the first sample, in draw
    order, outside the i-th member only, or else a point of a walk away
    from Log|v| along the direction that grows that member's leading term.

    Axiom 3 (generation): the affine coefficient rows (1, b_j1, .., b_jn)
    span a rank-n space, which for linear ideals means the members
    generate the same ideal as the original system.

    The samples are drawn and tested in blocks of _SAMPLE_BLOCK rows, one
    array pass per member and block (``_outside``), which hands the rows
    with a gap within 1e-12 of the +1e-9 Complement edge to
    linear_classify, so every verdict is the one linear_classify gives.
    Returns a BasisReport on success and raises AxiomFailure otherwise,
    with the first failing sample in draw order as its witness.  The
    sample stream is seeded, so the verdict is deterministic.  Raises
    ValueError for a negative ``samples``, and unless ``box`` is positive
    with 2 * box a finite float.
    """
    samples = int(samples)
    if not (box > 0 and math.isfinite(2.0 * box)) or samples < 0:
        raise ValueError("need samples >= 0, and a positive box with 2 * box finite")
    n = len(basis.witness)
    w_star = basis.log_point

    for j, g in enumerate(basis.polys):
        _check_vanishes(g, j, basis.witness, w_star)
        if linear_classify(g, w_star)[0] == "Complement":
            raise AxiomFailure(
                f"axiom 1: Log|v| escapes member {j}",
                axiom=1,
                witness=w_star,
            )

    rng = np.random.default_rng(_VERIFY_SEED)
    escapes = 0
    alone_at = {}  # member -> first sample outside that member only
    for lo in range(0, samples, _SAMPLE_BLOCK):
        draws = rng.uniform(-box, box, size=(min(_SAMPLE_BLOCK, samples - lo), n))
        W = np.asarray(w_star) + draws
        outside = np.stack([_outside(g, W) for g in basis.polys], axis=1)
        escaped = outside.any(axis=1)
        stuck = np.flatnonzero(~escaped & (np.abs(draws).max(axis=1) > 1e-9))
        if stuck.size:
            raise AxiomFailure(
                "axiom 1: a sampled point off Log|v| lies in every member amoeba",
                axiom=1,
                witness=tuple(W[stuck[0]].tolist()),
            )
        escapes += int(escaped.sum())
        lone = outside & (outside.sum(axis=1) == 1)[:, None]
        for i in np.flatnonzero(lone.any(axis=0)).tolist():
            alone_at.setdefault(i, tuple(W[lone[:, i].argmax()].tolist()))

    witnesses = {}
    for i in range(len(basis.polys)):
        w = alone_at.get(i) or _walk_witness(basis, i)
        if w is None:
            raise AxiomFailure(
                f"axiom 2: no point found in the intersection without member {i}",
                axiom=2,
                witness=None,
            )
        witnesses[i] = w

    rows = np.array([_row(g) for g in basis.polys])
    sing = np.linalg.svd(rows, compute_uv=False)
    rank = int(np.sum(sing > 1e-9 * sing[0]))
    if rank != n:
        raise AxiomFailure(
            f"axiom 3: coefficient rank {rank} != {n}",
            axiom=3,
            witness=None,
        )
    return BasisReport(samples, escapes, witnesses, rank)
