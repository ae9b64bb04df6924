"""Membership, classification, order, and lopsidedness via the fiber torus.

A log-point w belongs to the amoeba of f exactly when f has a zero on the
fiber torus {|z_j| = e^{w_j}}.  Restricting f to that torus gives a
finite intersection problem in two torus variables, solved here by pairing
the restriction g with its conjugate-reciprocal mirror g* (they agree on
the torus), eliminating one variable with a Sylvester resultant, and
keeping the unit-modulus part of the root set.  Criticality of each
solution under the logarithmic Gauss map then separates interior points
from contour and boundary points.
"""

from __future__ import annotations

import cmath
import collections
import functools
import itertools
import math

import numpy as np

from .errors import AmoebaError, DegenerateFiber, InconsistentOrder, NoConvergence
from .laurent import _torus_moduli, fiber_restrict
from .numeric import _roots_batch, sylvester_resultant
from .numeric import roots  # noqa: F401  (bench/test_spans.py looks it up here)

FIBER_TAGS = ("Complement", "Interior", "ContourInterior", "Boundary", "Degenerate")

# angular gap (mod pi) above which two Gauss directions count as distinct
DIRECTION_TOL = 1e-4

# A point solves f = 0 when |f| is at most this times the sum of the term
# moduli there.  The contour tracer applies it to the term sum at its
# witness; the fiber solver to the coefficient sum of the restriction,
# which is the same number, since every term has modulus |b_alpha| on the
# fiber torus (|t_j| = 1).
RESIDUAL_REL = 1e-7

# a solution is critical when its Gauss criticality score is below this
CRITICAL_TOL = 1e-6

# ||t| - 1| pre-filter band on resultant roots, wide enough for the scatter
# of multiple roots; the polished residual makes the actual decision
UNIT_BAND = 0.02

# a factor in one torus variable with a root this close to |t| = 1 is a full circle, and
# a winding slice of ``order`` with a root this close to |u| = 1 puts w on the amoeba
UNIT_ROOT_TOL = 1e-6

# resultant clusters near |t| = 1 closer than this (relative) are merged
MERGE_RADIUS = 3e-3

# polished torus points closer than this in phase are one solution
GROUP_RADIUS = 1e-5

# items per block of _staged: a long raster, contour sweep or contour
# split holds the intermediate data of this many fibers or slices at a
# time, never of all of them; the answers do not depend on it
_BATCH = 512


class FiberSolution:
    """One intersection point of the variety with a fiber torus.

    ``phi`` lies in [0, 2pi)^2 and parametrizes z = e^{w + i phi};
    ``multiplicity`` is the cluster multiplicity seen by the resultant;
    ``critical`` is True when the point maps to real projective space
    under the logarithmic Gauss map (score below tolerance) or when the
    multiplicity already certifies a tangency.
    """

    __slots__ = ("phi", "multiplicity", "critical", "score")

    def __init__(self, phi, multiplicity, critical, score):
        self.phi = (float(phi[0]), float(phi[1]))
        self.multiplicity = int(multiplicity)
        self.critical = bool(critical)
        self.score = float(score)

    def __repr__(self):
        flag = "critical" if self.critical else "regular"
        return (
            f"FiberSolution(phi=({self.phi[0]:.9f}, {self.phi[1]:.9f}), "
            f"mult={self.multiplicity}, {flag}, score={self.score:.3e})"
        )


class PointClass:
    """Classification of a log-point against the amoeba and its contour."""

    __slots__ = ("tag", "solutions", "caveat")

    def __init__(self, tag, solutions=(), caveat=False):
        if tag not in FIBER_TAGS:
            raise ValueError(f"unknown tag {tag!r}")
        self.tag = tag
        self.solutions = tuple(solutions)
        self.caveat = bool(caveat)

    def __repr__(self):
        extra = ", caveat" if self.caveat else ""
        return f"PointClass({self.tag}, {len(self.solutions)} solutions{extra})"


# --------------------------------------------------------------------------
# dense helpers on torus polynomials
# --------------------------------------------------------------------------

@functools.cache
def _exponents(n):
    """The exponents 0 .. n-1 of one variable of a dense polynomial."""
    e = np.arange(n)
    e.flags.writeable = False
    return e


def _eval_bi(b, z1, z2):
    """Value and both Gauss numerators z_j dp/dz_j of a dense bivariate poly.

    ``b[i, j]`` is the coefficient of z1^i z2^j; the three values come back
    as Python complex numbers.
    """
    e1, e2 = _exponents(b.shape[0]), _exponents(b.shape[1])
    p1 = z1 ** e1
    p2 = z2 ** e2
    rows = b @ p2
    val = p1 @ rows
    gam1 = (e1 * p1) @ rows
    gam2 = (p1 @ b) @ (e2 * p2)
    return complex(val), complex(gam1), complex(gam2)


def _abs_at(b, z1, z2):
    """Term-modulus sums for the value and both Gauss numerators, as floats.

    The term-modulus twin of ``_eval_bi``: the same sums over |b| at |z|.
    """
    return tuple(v.real for v in _eval_bi(np.abs(b), abs(z1), abs(z2)))


def _polish_phi(gb, phi, scale):
    """At most ten Newton steps on (Re g, Im g)(phi), exactly on the torus: the wrapped
    phi and ``_eval_bi`` of g there (each pass evaluates first, the eleventh only that)."""
    p1, p2 = phi
    for k in range(11):
        val, g1, g2 = _eval_bi(gb, cmath.exp(1j * p1), cmath.exp(1j * p2))
        if k == 10 or abs(val) < 1e-15 * scale:
            break
        # d/dphi_j g(e^{i phi}) = i gamma_j
        j11, j12 = -g1.imag, -g2.imag
        j21, j22 = g1.real, g2.real
        r1, r2 = val.real, val.imag
        # damped 2x2 least squares, tolerant of the singular tangential case
        a11 = j11 * j11 + j21 * j21
        a12 = j11 * j12 + j21 * j22
        a22 = j12 * j12 + j22 * j22
        lam = 1e-12 * (a11 + a22) + 1e-300
        b1 = j11 * r1 + j21 * r2
        b2 = j12 * r1 + j22 * r2
        dd = (a11 + lam) * (a22 + lam) - a12 * a12
        d1 = (b1 * (a22 + lam) - b2 * a12) / dd
        d2 = (b2 * (a11 + lam) - b1 * a12) / dd
        step = math.hypot(d1, d2)
        if step > 0.3:
            d1, d2 = 0.3 * d1 / step, 0.3 * d2 / step
        p1, p2 = p1 - d1, p2 - d2
    return (_wrap(p1), _wrap(p2)), val, g1, g2


def _wrap(p):
    """Reduce an angle to [0, 2pi); values a rounding error below 2pi go to 0."""
    tau = 2.0 * math.pi
    p %= tau
    if p >= tau * (1.0 - 1e-12):
        return 0.0
    return p


def _score(g1, g2):
    """Criticality score: |Im(g1 conj g2)| relative to |g1 g2|."""
    num = abs((g1 * g2.conjugate()).imag)
    den = max(abs(g1 * g2), 1e-300)
    return num / den


def _direction(g1, g2):
    """Gauss direction of a critical point as an angle mod pi."""
    c = g1 if abs(g1) >= abs(g2) else g2
    u = (g1 / c).real
    v = (g2 / c).real
    return math.atan2(v, u) % math.pi


# --------------------------------------------------------------------------
# the fiber solver
# --------------------------------------------------------------------------

def _converged(clusters):
    """The one trust test for a root set: NoConvergence unless every cluster converged.

    An unconverged cluster raises wherever it stopped: it is not where it
    would converge to, so it may belong where the caller looks.
    """
    for cl in clusters:
        if not cl.converged:
            raise NoConvergence(
                f"root finder did not converge at a root of modulus {abs(cl.center):.6f}"
            )
    return clusters


def _merge_near_unit(clusters):
    """Coalesce resultant root clusters scattered by a multiple root.

    A root of multiplicity m recovered from coefficients with relative
    noise eps scatters into m simple roots on a ring of radius eps^(1/m),
    which outgrows the tight clustering radius already for m >= 3.  Near
    the unit circle, where a scattered multiplet would otherwise be
    filtered away or double counted, clusters get merged back together;
    the multiplicity-weighted mean of a noise ring reproduces the true
    root to second order.  Only the clusters within 0.05 of |t| = 1 can
    reach UNIT_BAND, and only they come back, as [center, multiplicity].
    """
    items = [[cl.center, cl.multiplicity] for cl in clusters
             if abs(abs(cl.center) - 1.0) <= 0.05]
    while True:  # until a pass merges nothing
        merged = []
        for c, m in items:
            for slot in merged:
                if abs(c - slot[0]) <= MERGE_RADIUS * max(1.0, abs(slot[0])):
                    tot = slot[1] + m
                    slot[0] = (slot[0] * slot[1] + c * m) / tot
                    slot[1] = tot
                    break
            else:
                merged.append([c, m])
        if len(merged) == len(items):
            return merged
        items = merged


def _solve(f, w, columns):
    """The fiber solve over w, as a generator that ``_staged`` drives.

    It yields a list of polynomials whenever it needs their roots and
    returns the PointClass of w.  The steps: the restriction g, transposed
    when it lacks t2; the lopsided shortcut (Complement); with ``columns``,
    the factor step in t1; the resultant of g with its mirror g* in t1,
    whose clusters are merged and kept within UNIT_BAND of |t| = 1; their
    slices (``_torus_slices``); and ``_solutions``.  The factor step
    (``_factors``) finds g's factors in one variable: one on |t| = 1 is a
    full circle (DegenerateFiber), the rest miss the torus and are divided
    out (``_divided``), and the quotient is solved from the top, its
    candidates polished on g.  A zero resultant means that g and g* share a
    factor, and the step runs in t2; a g in one variable is one such factor.
    Without a factor in t2 the shared factor is bivariate: DegenerateFiber.
    """
    g, _ = fiber_restrict(f, w)
    gb = g
    while True:
        if gb.shape[1] == 1:
            g, gb = g.T, gb.T
        mods = np.abs(gb)
        coeff_sum = float(mods.sum())
        # lopsided shortcut: one coefficient outweighing the rest rules out
        # torus zeros outright, no resultant needed
        if 2.0 * float(mods.max()) > coeff_sum * (1.0 + 1e-9):
            return PointClass("Complement")
        if columns:  # once: dividing in t2 later leaves no factor in t1 alone
            columns = False
            if factors := (yield from _factors(gb, coeff_sum)):
                gb = _divided(gb.T, factors).T
                continue
        res = sylvester_resultant(gb, np.conj(gb)[::-1, ::-1])
        if res.coeffs.any():
            break
        factors = yield from _factors(gb.T, coeff_sum)
        if not factors:
            raise DegenerateFiber("fiber shares a component with the variety")
        gb = _divided(gb, factors)
    (found,) = yield [res]
    heads = [(ci, m, t1) for ci, (t1, m) in enumerate(_merge_near_unit(found))
             if abs(abs(t1) - 1.0) <= UNIT_BAND]
    slices = _torus_slices(gb, coeff_sum, [t1 for _, _, t1 in heads])
    kept = [(head, s) for head, s in zip(heads, slices) if s is not None]
    found = yield [s for _, s in kept]
    # the quotient's candidates are polished on g itself, whose coefficients are exact
    g_sum = coeff_sum if g is gb else float(np.abs(g).sum())
    return _solutions(g, g_sum, [head for head, _ in kept], found)


def _factors(gb, coeff_sum):
    """g's factors t1 - c in t1 alone, as root clusters, each as often as g holds it: the
    roots c of g's slice at a generic t2 whose slices ``_torus_slices`` finds vanished.  A
    column of g, the coefficient of one power of t2, may hold a factor more often."""
    (found,) = yield [gb @ np.exp(1j * _exponents(gb.shape[1]))]
    slices = _torus_slices(gb, coeff_sum, [cl.center for cl in found])
    return [cl for cl, s in zip(found, slices) if s is None]


def _divided(gb, factors):
    """g with the factors in t2 alone (root clusters) divided out of each of its rows."""
    divisor = np.poly([cl.center for cl in factors for _ in range(cl.multiplicity)])
    return np.array([np.polydiv(row[::-1], divisor)[0][::-1] for row in gb])


def _torus_slices(gb, coeff_sum, t1s):
    """The slice g(t1, .) at each t1, None where it vanished (``_slice``).  A vanished slice
    with t1 within UNIT_ROOT_TOL of |t| = 1 is a full circle on the torus (DegenerateFiber);
    farther off, the line t1 = c misses the torus."""
    slices = [_slice(gb, coeff_sum, t1) for t1 in t1s]
    if any(s is None and abs(abs(t1) - 1.0) < UNIT_ROOT_TOL for t1, s in zip(t1s, slices)):
        raise DegenerateFiber("restriction has a factor in one torus variable with a unit "
                              "root: the fiber meets the variety in full circles")
    return slices


def _solutions(gb, coeff_sum, heads, found):
    """Polish the torus candidates of one fiber, group them into solutions, and tag w.

    ``found`` holds the root clusters of the slice at each (cluster id,
    multiplicity, t1) of ``heads``.  Returns the PointClass of w, its
    solutions sorted by phi: no solution is Complement, all critical is
    Boundary (with the caveat when their Gauss directions spread beyond
    DIRECTION_TOL), some critical is ContourInterior, none is Interior.
    """
    tau = 2.0 * math.pi
    cands = []  # (phi, score, g1, g2, (cluster_id, multiplicity))
    for (ci, m, t1), roots2 in zip(heads, found):
        for c2 in (c for c in roots2 if abs(abs(c.center) - 1.0) <= UNIT_BAND):
            phi0 = (cmath.phase(t1) % tau, cmath.phase(c2.center) % tau)
            phi, val, g1, g2 = _polish_phi(gb, phi0, coeff_sum)
            if abs(val) <= RESIDUAL_REL * coeff_sum:  # False for a non-finite value too
                cands.append((phi, _score(g1, g2), g1, g2, (ci, m)))

    # group candidates that polished to the same torus point
    groups = []  # [phi, score, g1, g2, {(cluster_id, multiplicity)}]
    for phi, score, g1, g2, cl in sorted(cands, key=lambda it: (it[0], it[1])):
        for grp in groups:
            da = min(abs(phi[0] - grp[0][0]), tau - abs(phi[0] - grp[0][0]))
            db = min(abs(phi[1] - grp[0][1]), tau - abs(phi[1] - grp[0][1]))
            if math.hypot(da, db) < GROUP_RADIUS:
                if score < grp[1]:
                    grp[0], grp[1], grp[2], grp[3] = phi, score, g1, g2
                grp[4].add(cl)
                break
        else:
            groups.append([phi, score, g1, g2, {cl}])

    # Local intersection multiplicity: a resultant cluster of size m that
    # feeds k distinct torus points certifies multiplicity m/k on each of
    # them (a simple tangency projects to a double root, two transversal
    # points over one t1 to a pair of simple roots, and so on).
    fed = collections.Counter(cl for grp in groups for cl in grp[4])
    sols = []
    gauss = []  # (g1, g2) of each critical solution
    for phi, score, g1, g2, cls in sorted(groups, key=lambda grp: grp[0]):
        mult = max([1] + [round(m / fed[ci, m]) for ci, m in cls])
        critical = mult >= 2 or score < CRITICAL_TOL
        sols.append(FiberSolution(phi, mult, critical, score))
        if critical:
            gauss.append((g1, g2))
    if not sols:
        return PointClass("Complement")
    if len(gauss) == len(sols):
        dirs = [_direction(g1, g2) for g1, g2 in gauss]
        gaps = (abs(a - dirs[0]) % math.pi for a in dirs[1:])
        return PointClass("Boundary", sols,
                          caveat=any(min(gap, math.pi - gap) > DIRECTION_TOL for gap in gaps))
    return PointClass("ContourInterior" if gauss else "Interior", sols)


def _slice(gb, coeff_sum, t1):
    """The slice g(t1, .) in t2, or None when it vanished (g has the factor t1 - c): its largest
    coefficient is below 1e-13 of coeff_sum * max(1, |t1|)^deg1, every coefficient's bound."""
    pows = t1 ** _exponents(gb.shape[0])
    slice_c = pows @ gb
    # |t1^deg1| stands for |t1|^deg1, which a Python float power could overflow
    if not np.max(np.abs(slice_c)) < 1e-13 * coeff_sum * max(1.0, abs(pows[-1])):
        return slice_c


def _staged(solves, errors):
    """Drive many solve generators, batching the root finder across them.

    A solve yields a list of polynomials whenever it needs their roots,
    receives their root sets (each through ``_converged``) and returns its
    answer.  Solves go in blocks of _BATCH; per round, the requests of
    every solve of a block go through one ``_roots_batch`` call.  Yields
    one entry per solve, in order: its answer, or the exception of one of
    the ``errors`` types raised for that solve alone.
    """
    solves = iter(solves)
    while block := list(itertools.islice(solves, _BATCH)):
        out = [None] * len(block)
        sends = dict.fromkeys(range(len(block)))  # solve index -> its root sets, None to start
        while sends:
            asks = {}
            for k, found in sends.items():
                try:
                    asks[k] = block[k].send(found and [_converged(r) for r in found])
                except StopIteration as stop:
                    out[k] = stop.value
                except errors as exc:
                    out[k] = exc
            found = iter(_roots_batch([p for polys in asks.values() for p in polys]))
            sends = {k: [next(found) for _ in polys] for k, polys in asks.items()}
        yield from out


def _check_curve(f):
    """Curve solvers' one gate: ValueError unless n = 2, DegenerateFiber without a torus curve."""
    if f.nvars != 2:
        raise ValueError("curve solvers are implemented for two variables")
    if not f.terms:
        raise DegenerateFiber("zero polynomial vanishes on every fiber")
    if len(f.terms) == 1:
        raise DegenerateFiber("a monomial has no zeros in the torus")


def _fibers(f, ws):
    """Fiber solves (``_solve``) at many points, through ``_staged``.

    Returns an iterator with one entry per point: its PointClass, or the
    DegenerateFiber or NoConvergence raised for that point alone.
    """
    _check_curve(f)
    # a support column of one term b z1^i z2^j has no root c != 0, so no t2-free factor
    columns = min(collections.Counter(alpha[1] for alpha in f.terms).values()) > 1
    return _staged((_solve(f, w, columns) for w in ws), (DegenerateFiber, NoConvergence))


def fiber_solutions(f, w):
    """All intersections of V(f) with the fiber torus over w (n = 2).

    Candidates are resultant roots within UNIT_BAND of |t| = 1, polished
    on the torus and kept when |g| <= RESIDUAL_REL x (coefficient sum).  A
    solution is critical when it is a multiple point or its Gauss score is
    below CRITICAL_TOL.

    Parameters
    ----------
    f : LaurentPoly
        Two variables, at least two terms.
    w : pair of float

    Returns
    -------
    list of FiberSolution
        Sorted lexicographically by phi.  Empty exactly when w lies in the
        amoeba complement (up to the thresholds above).

    Raises
    ------
    DegenerateFiber
        If the intersection is not a finite point set, or f is the zero
        polynomial or a monomial.
    NoConvergence
        If a resultant or back-substitution root did not converge.
    """
    solved = next(_fibers(f, [w]))
    if isinstance(solved, AmoebaError):
        raise solved
    return list(solved.solutions)


def classify(f, w):
    """Classify w against the amoeba of f (n = 2).

    Same fiber solve as ``fiber_solutions``; returns a PointClass with tag

    - ``Complement``        no fiber solution;
    - ``Interior``          solutions exist, none critical;
    - ``ContourInterior``   some but not all solutions critical;
    - ``Boundary``          every solution critical.  The caveat flag is set
      when two critical solutions carry different Gauss directions: then w
      sits where contour branches cross and the boundary certificate rests
      on the non-singularity assumption;
    - ``Degenerate``        the fiber intersection is not finite.

    Raises
    ------
    ValueError
        If len(w) != f.nvars.
    DegenerateFiber
        If f is the zero polynomial or a monomial.
    NoConvergence
        As ``fiber_solutions``.
    """
    return _tag(next(_fibers(f, [w])))


def _tag(solved):
    """The PointClass of one entry of ``_fibers``.

    A degenerate fiber tags its own point only; a NoConvergence is raised.
    """
    if isinstance(solved, DegenerateFiber):
        return PointClass("Degenerate")
    if isinstance(solved, AmoebaError):
        raise solved
    return solved


# --------------------------------------------------------------------------
# order of a complement component
# --------------------------------------------------------------------------

_ORDER_SEED = 20260815

# angle draws per order entry; all of them must give the same winding count
_ORDER_SAMPLES = 3


def order(f, w):
    """Order vector of the complement component containing w.

    The j-th entry is the winding number of the slice u -> f(z) with
    z_j = e^{w_j} u and the other coordinates frozen on their circles,
    i.e. the number of zeros inside |u| < 1 minus the pole order at the
    origin.  The slice coefficients are the term moduli on the fiber torus
    over w (``_torus_moduli``), so a term is weighed where it is counted.
    Each entry is recomputed at _ORDER_SAMPLES angle draws (fixed seed, so
    the result is deterministic) and must agree.  All n x _ORDER_SAMPLES
    slices go through one batched root finder.

    Raises
    ------
    ValueError
        If len(w) != f.nvars.
    DegenerateFiber
        If f is the zero polynomial, which has no complement.
    InconsistentOrder
        If the draws disagree, or a slice has a root within UNIT_ROOT_TOL of
        |u| = 1; w is too close to the amoeba for the slice count to be stable.
    NoConvergence
        If a slice root did not converge.
    Overflow
        If w is non-finite, some <alpha, w> is not representable, or a slice
        has a degree above the root finder's ceiling.
    """
    if not f.terms:
        raise DegenerateFiber("zero polynomial vanishes on every fiber")
    n = f.nvars
    items, mods, _ = _torus_moduli(f, w)
    rng = np.random.default_rng(_ORDER_SEED)
    polys = []  # per slice, j-major: coefficients from the lowest power of u up
    for j in range(n):
        lo, hi = f.degree_span(j)
        for _ in range(_ORDER_SAMPLES):
            theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
            coeffs = np.zeros(hi - lo + 1, dtype=complex)
            for (alpha, b), mag in zip(items, mods):
                rot = cmath.exp(1j * math.fsum(alpha[k] * theta[k] for k in range(n) if k != j))
                coeffs[alpha[j] - lo] += b / abs(b) * rot * mag
            polys.append(coeffs)
    found = _roots_batch(polys)
    out = []
    for j in range(n):
        mine = [_converged(cls) for cls in found[j * _ORDER_SAMPLES:(j + 1) * _ORDER_SAMPLES]]
        if any(abs(abs(cl.center) - 1.0) < UNIT_ROOT_TOL for cls in mine for cl in cls):
            raise InconsistentOrder(f"a winding slice for variable {j+1} has a root on |u| = 1: "
                                    "w lies on the amoeba")
        seen = {f.degree_span(j)[0] + sum(cl.multiplicity for cl in cls if abs(cl.center) < 1.0)
                for cls in mine}
        if len(seen) != 1:
            raise InconsistentOrder(
                f"winding count for variable {j+1} varies across angles: {sorted(seen)}"
            )
        out.append(seen.pop())
    return tuple(out)


def lopsided(f, w):
    """Dominant-term certificate for complement membership.

    Returns the exponent alpha whose term modulus strictly exceeds the sum
    of all the others on the fiber over w, or None when no term dominates.
    A returned alpha proves that w is in the complement and that its
    component has order alpha.  Raises ValueError unless len(w) == f.nvars,
    and Overflow when w is non-finite.
    """
    items, mods, _ = _torus_moduli(f, w)
    total = math.fsum(mods)
    # at most one term can exceed the sum of the others
    return next((alpha for (alpha, _), m in zip(items, mods) if m > total - m), None)
