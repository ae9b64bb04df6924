"""Numeric kernel for the torus computations (``laurent`` lends it the hull, ``_chain``).

Univariate dense polynomials over C, a simultaneous (Aberth-Ehrlich) root
finder with cluster-based multiplicities, a linear solve that rejects
near-singular systems, and the Sylvester resultant of two bivariate
polynomials computed by evaluation and interpolation on a circle of nodes.

The root finder is batched: ``_roots_batch`` stacks the polynomials that
share a degree and runs one Aberth-Ehrlich iteration over the whole stack,
so a raster or a contour sweep pays numpy's per-call overhead once per
sweep, not once per polynomial.  Every per-root step is the same numpy
array operation in the same order whatever the batch, so a polynomial's
clusters come out bit for bit the same alone or in any batch; ``roots``
is the batch of one.

A sweep evaluates p, p' and the round-off bound of |p| in one stacked
Horner pass.  Three safeguards write, each only where its mask holds: a
zero or non-finite Aberth denominator becomes 1, an iterate whose value
or step is not finite moves halfway to the origin, and a step longer
than 1 + |z| is cut to that length.  The sweep stays in numpy arrays
even for one polynomial: numpy's array complex *, / and abs differ from
Python's scalar operators in the last bit on some inputs, but not with
the array's length, shape or layout.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NoConvergence, Overflow, SingularMatrix
from .laurent import _chain

EPS = 2.0**-53

# leading coefficients at or below this (relative) size are trimmed
TRIM_REL = 1e-13

# Aberth-Ehrlich sweeps before the remaining roots count as unconverged
ABERTH_SWEEPS = 500

# at most this many root pairs (rows x degree^2) per Aberth batch: 1 MB of root
# differences and 3 MB of Horner levels (_levels) up to degree 256, and one row,
# bounded by _MAX_ROOT_DEGREE, above it.  Splitting a batch changes no bit
_BATCH_PAIRS = 1 << 16

# ceiling on the degree of a polynomial whose roots are sought, and of a
# resultant.  A degree-d Aberth run holds about 4 d^2 complex numbers (levels
# 3 d^2, differences d^2): classify on z1^500*z2 + z2 + 1 at (0, 0), whose
# resultant has degree 1,000, peaks at 105 MB under tracemalloc.  The Sylvester
# matrices at a resultant's nodes are held to 4 x 1,000^2 entries too, 64 MB
_MAX_ROOT_DEGREE = 1000


def _horner(c, x):
    """Evaluate ascending coefficients c[0], c[1], ... at x (scalar or array).

    Each c[k] may itself be an array that broadcasts against x, which
    evaluates a stack of polynomials with one coefficient row per point.
    """
    r = np.full_like(np.asarray(x, dtype=complex), c[-1])
    for k in range(len(c) - 2, -1, -1):
        r = r * x + c[k]
    return r


def _trim(coeffs):
    """The ascending complex row of ``coeffs`` without the leading entries of modulus at
    most TRIM_REL times the largest, so the kept leading one is meaningful; a zero row
    keeps one entry."""
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if c.ndim != 1 or c.size == 0:
        raise ValueError("need a nonempty 1-d coefficient array")
    cap = float(np.max(np.abs(c)))
    keep = c.size
    while keep > 1 and abs(c[keep - 1]) <= TRIM_REL * cap:
        keep -= 1
    return c[:keep]


class UniPoly:
    """Dense univariate polynomial, coefficients ascending by degree, trimmed by ``_trim``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = _trim(coeffs).copy()

    @property
    def degree(self):
        return self.coeffs.size - 1

    def __repr__(self):
        return f"UniPoly({np.array2string(self.coeffs, separator=', ')})"


class RootCluster:
    """A clustered root: center and multiplicity (= cluster size).

    ``converged`` is False when some member of the cluster hit the
    iteration cap before meeting the correction or residual criterion.
    """

    __slots__ = ("center", "multiplicity", "converged")

    def __init__(self, center, multiplicity, converged=True):
        self.center = complex(center)
        self.multiplicity = int(multiplicity)
        self.converged = bool(converged)

    def __repr__(self):
        tag = "" if self.converged else ", unconverged"
        return f"RootCluster({self.center:.12g}, mult={self.multiplicity}{tag})"


@functools.cache
def _arc(m):
    """Angles 2 pi (k + 1/2) / m + 0.7, k < m: m points spread over a circle."""
    return tuple(2.0 * math.pi * (k + 0.5) / m + 0.7 for k in range(m))


def _initial_guesses(c):
    """Bini-style starting points on circles from the coefficient Newton polygon.

    One row of d starting points per row of c (shape (B, d+1)): each edge
    of the upper hull of (k, log|c_k|), from i1 with horizontal length m,
    puts m points, turned by 0.4 i1, on the circle its slope gives.  Under
    ``_aberth``'s np.errstate a zero coefficient's log is a silent -inf.
    """
    b, d = c.shape[0], c.shape[1] - 1
    u = np.log(np.abs(c)).tolist()
    expo, arc, start = [], [], []  # per root: log radius, angle, its edge's i1
    every = list(range(d + 1))
    for ur in u:
        hull = _chain(every, ur, -1)
        for i1, i2 in zip(hull, hull[1:]):
            m = i2 - i1
            expo += [(ur[i1] - ur[i2]) / m] * m
            arc += _arc(m)
            start += [i1] * m
    expo, arc, start = np.array((expo, arc, start))
    return (np.exp(expo) * np.exp(1j * (arc + 0.4 * start))).reshape(b, d)


def _levels(c):
    """Horner levels, shape (d+1, 3, B, d), of the rows p, p' and Bini's
    (4k+1) |c_k| round-off bound for |p|, spread over each row's d roots."""
    b, d = c.shape[0], c.shape[1] - 1
    dc = c[:, 1:] * np.arange(1, d + 1)
    lev = np.empty((d + 1, 3, b, d), dtype=complex)
    lev[:, 0] = c.T[:, :, None]
    lev[:d, 1] = dc.T[:, :, None]
    lev[d, 1] = dc[:, -1:]  # the top of p' (see _stacked_horner)
    lev[:, 2] = (np.abs(c) * (4.0 * np.arange(d + 1) + 1.0)).T[:, :, None]
    return lev


def _stacked_horner(lev, z):
    """p, p' and the round-off bound at z, z and |z| in one pass, (3, B, d).

    p' joins one level late (the first step resets it to its top
    coefficient), so every row sees exactly ``_horner``'s operations.
    """
    x = np.empty(lev.shape[1:], dtype=complex)
    x[:2] = z
    x[2] = np.abs(z)
    r = lev[-1] * x
    r += lev[-2]
    r[1] = lev[-1, 1]
    for level in lev[-3::-1]:
        r *= x
        r += level
    return r


@functools.cache
def _self_excluded(d):
    """(d, d), +inf on the diagonal and +0 elsewhere, read-only."""
    a = np.diag(np.full(d, np.inf)).astype(complex)
    a.flags.writeable = False
    return a


def _aberth(c):
    """Run Aberth-Ehrlich on a stack c of shape (B, d+1) of ascending rows.

    Every row needs c[:, 0] and c[:, -1] nonzero.  Returns the roots, their
    convergence flags and their Newton inclusion radii, all of shape
    (B, d).  Each sweep updates the live roots of every row that has one;
    a row's roots depend on that row only, and a row leaves the stack once
    all its roots converged.

    The inclusion radius of a computed root is d |p(z)/p'(z)|.  Near an
    m-fold root the iterates scatter to eps^(1/m), far past any fixed
    clustering radius, but |p/p'| tracks (distance to the root)/m there,
    so overlapping inclusion disks identify the multiplet.  Radii are
    capped to stay local (a wild quotient must not glue the whole root set
    together).
    """
    b, d = c.shape[0], c.shape[1] - 1
    lev = _levels(c)
    converged = np.zeros((b, d), dtype=bool)
    excl = _self_excluded(d)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        z = _initial_guesses(c)
        # the rows still iterating: their indices, roots, live roots, levels
        rows, zr, live, coef = np.arange(b), z, ~converged, lev
        for _ in range(ABERTH_SWEEPS):
            p, dp, floor = _stacked_horner(coef, zr)
            floor = floor.real * EPS
            diff = zr[:, :, None] - zr[:, None, :]
            diff += excl
            s = np.add.reduce(1.0 / diff, axis=2)
            den = dp - p * s
            bad = ~np.isfinite(den) | (den == 0.0)
            if np.count_nonzero(bad):
                den[bad] = 1.0
            w = p / den
            # an iterate far enough out to overflow the evaluation carries no
            # information; pull it halfway back toward the origin instead
            finite = np.isfinite(p)
            sick = ~(np.isfinite(w) & finite)
            if np.count_nonzero(sick):
                w[sick] = 0.5 * zr[sick]
            # cap wild steps
            cap = 1.0 + np.abs(zr)
            step = np.abs(w)
            big = step > cap
            if np.count_nonzero(big):
                w[big] *= (cap[big] / step[big])
                step = np.abs(w)
            done = (
                ((step < 1e-12 * cap) | (np.abs(p) <= floor))
                & finite & np.isfinite(floor)
            )
            # converged roots keep their value; only live ones move
            zr = np.where(live, zr - w, zr)
            live = live & ~done
            moving = np.logical_or.reduce(live, axis=1)
            kept = np.count_nonzero(moving)
            if kept == 0:
                break
            if kept < moving.size:
                z[rows[~moving]] = zr[~moving]
                converged[rows[~moving]] = True
                rows, zr, live = rows[moving], zr[moving], live[moving]
                coef = coef[:, :, moving]
    z[rows] = zr
    converged[rows] = ~live
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pz, dpz, _ = _stacked_horner(lev, z)
        incl = d * np.abs(pz) / np.maximum(np.abs(dpz), 1e-300)
    incl[~np.isfinite(incl)] = np.inf
    return z, converged, np.minimum(incl, 0.05 * (1.0 + np.abs(z)))


@functools.cache
def _pairs(n):
    """Index arrays (i, j) of the pairs i < j among n roots, read-only."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _cluster_points(z, flags, incl):
    """Single-linkage clustering of the computed roots of each row of z.

    Two roots join when they sit within the baseline radius
    max(1e-8, 1e-6 |center|) or when their Newton inclusion disks
    (times a safety factor of 2) overlap.  All pairs are tested at once;
    the connected components of that test are the clusters, each centred
    at the mean of its members in index order.  Returns one sorted list
    of RootCluster per row.
    """
    b, n = z.shape
    first, second = _pairs(n)
    # np.hypot is Python's abs() of a complex, bit for bit; np.abs is not
    mod = np.hypot(z.real, z.imag)
    gap = z[:, first] - z[:, second]
    r = np.maximum(1e-8, 1e-6 * np.maximum(mod[:, first], mod[:, second]))
    r = np.maximum(r, 2.0 * (incl[:, first] + incl[:, second]))
    row, pair = np.nonzero(np.hypot(gap.real, gap.imag) <= r)
    # union-find over the linked pairs i < j, root k of a row numbered
    # row * n + k: a head points to a smaller head, so one pass in index
    # order leaves every root pointing at its component's first member
    head = list(range(b * n))
    for i, j in zip((row * n + first[pair]).tolist(), (row * n + second[pair]).tolist()):
        while head[i] != i:
            i = head[i]
        while head[j] != j:
            j = head[j]
        head[max(i, j)] = min(i, j)
    for k in range(b * n):
        head[k] = head[head[k]]
    # the mean of one member is that member plus zero (which clears a -0.0)
    single = (z + 0.0).tolist()
    flag = flags.tolist()
    out = []
    for row in range(b):
        groups = {}
        for i in range(n):
            groups.setdefault(head[row * n + i], []).append(i)
        clusters = []
        for members in groups.values():
            if len(members) == 1:
                i = members[0]
                clusters.append(RootCluster(single[row][i], 1, flag[row][i]))
                continue
            clusters.append(RootCluster(z[row, members].mean(), len(members),
                                        bool(flags[row, members].all())))
        clusters.sort(key=lambda cl: (cl.center.real, cl.center.imag))
        out.append(clusters)
    return out


def _roots_batch(polys):
    """``roots`` of many polynomials: one list of RootCluster per input.

    Each polynomial is normalised and stripped of its roots at the origin
    as ``roots`` describes; the rest are grouped by degree and each group
    goes through one stacked Aberth-Ehrlich run (in blocks of at most
    _BATCH_PAIRS root pairs).  The result for a polynomial does not
    depend on the batch it came in.

    Raises
    ------
    ValueError
        If some input is the zero polynomial.
    Overflow
        If some input's degree, less its roots at the origin, is above
        _MAX_ROOT_DEGREE.
    """
    out = []
    by_degree = {}  # trimmed degree -> [(input index, coefficients)]
    for k, p in enumerate(polys):
        c = p.coeffs if isinstance(p, UniPoly) else _trim(p)
        if c.size == 1:
            if c[0] == 0:
                raise ValueError("zero polynomial has no finite root set")
            out.append([])
            continue
        c = c / np.max(np.abs(c))
        # exact zero low-order coefficients are roots at the origin
        at_zero = 0
        while at_zero < c.size - 1 and c[at_zero] == 0:
            at_zero += 1
        c = c[at_zero:]
        if c.size - 1 > _MAX_ROOT_DEGREE:
            raise Overflow(f"a polynomial of degree {c.size - 1} is above the root "
                           f"finder's ceiling {_MAX_ROOT_DEGREE}")
        out.append([RootCluster(0j, at_zero)] if at_zero else [])
        if c.size > 1:
            by_degree.setdefault(c.size - 1, []).append((k, c))
    for d, items in by_degree.items():
        step = max(1, _BATCH_PAIRS // (d * d))
        for lo in range(0, len(items), step):
            block = items[lo:lo + step]
            c = np.array([row for _, row in block])
            for (k, _), clusters in zip(block, _cluster_points(*_aberth(c))):
                out[k].extend(clusters)
    for clusters in out:
        clusters.sort(key=lambda cl: (cl.center.real, cl.center.imag))
    return out


def roots(p):
    """All complex roots of p, clustered into multiplicities.

    The batch of one of the stacked root finder ``_roots_batch``: the
    clusters are bit for bit those p gets inside any batch.

    Parameters
    ----------
    p : UniPoly or 1-d coefficient sequence (ascending)

    Returns
    -------
    list of RootCluster
        Sorted by (real, imag) of the center.  Cluster sizes sum to the
        trimmed degree.  Iteration stops per root once the correction
        drops below 1e-12 (1 + |root|) or the residual falls under the
        running round-off bound; roots still live after ABERTH_SWEEPS
        Aberth-Ehrlich sweeps are returned with ``converged=False``.

    Raises
    ------
    ValueError
        If p is the zero polynomial (every point would be a root).
    Overflow
        As ``_roots_batch``.
    """
    return _roots_batch([p])[0]


# --------------------------------------------------------------------------
# linear algebra
# --------------------------------------------------------------------------

def solve_linear(a, b):
    """Solve a x = b for a vector b with numpy's LAPACK solver, rejecting singular a.

    a is singular when its smallest singular value is not above 1e-12 times its
    largest (a zero matrix too), which no reordering of its rows or columns changes.

    Raises
    ------
    SingularMatrix
        If a is singular.
    ValueError
        If a is not square, b is not a vector of its size, or either is not finite.
    """
    a, b = np.array(a, dtype=complex), np.array(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    if b.shape != (a.shape[0],):
        raise ValueError("right-hand side does not match the matrix")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    sv = np.linalg.svd(a, compute_uv=False).tolist() or [0.0]  # descending
    if not sv[-1] > 1e-12 * sv[0]:
        raise SingularMatrix(f"least singular value {sv[-1]:.3e} not above 1e-12 x {sv[0]:.3e}")
    return np.linalg.solve(a, b)


# --------------------------------------------------------------------------
# Sylvester resultant by evaluation-interpolation
# --------------------------------------------------------------------------

@functools.cache
def _sylvester_index(m, l):
    """Where each Sylvester matrix entry sits in (a_0 .. a_m, b_0 .. b_l, 0)."""
    i, j = np.indices((m + l, m + l))
    k = np.where(i < l, m + i - j, i - j)  # a_k in the first l rows, b_k below
    k = np.where(i < l, np.where((k >= 0) & (k <= m), k, -1),
                 np.where((k >= 0) & (k <= l), m + 1 + k, -1))
    k.flags.writeable = False
    return k


def _sylvester_batch(avals, bvals):
    """Batched Sylvester determinants from per-node coefficient rows.

    avals, bvals: arrays of shape (K, m+1) and (K, l+1) holding the
    t2-coefficients of the two polynomials at K values of t1.  Returns
    (dets, hadamard) with the per-node determinant and Hadamard bound.
    """
    kk, m1 = avals.shape
    m, l = m1 - 1, bvals.shape[1] - 1
    s = np.concatenate((avals, bvals, np.zeros((kk, 1))), axis=1)[:, _sylvester_index(m, l)]
    # the row 2-norms, as np.linalg.norm computes them, without its dispatch
    norm_a, norm_b = (np.sqrt(np.add.reduce((x.conj() * x).real, axis=1)) for x in (avals, bvals))
    return np.linalg.det(s), norm_a**l * norm_b**m


@functools.cache
def _vandermonde(kk, rho, n):
    """Powers 0 .. n-1 of the kk nodes rho e^{2 pi i k/kk}, shape (kk, n)."""
    nodes = rho * np.exp(2j * np.pi * np.arange(kk) / kk)
    vand = nodes[:, None] ** np.arange(n)
    vand.flags.writeable = False
    return vand


def sylvester_resultant(g, h):
    """Resultant of g and h with respect to t2, as a polynomial in t1.

    Both inputs are 2-d coefficient arrays b[i, j] for t1^i t2^j with
    formal t2-degree >= 1 (at least two columns).  The resultant is the
    determinant of the Sylvester matrix built from the formal degrees; it
    is recovered by evaluating that determinant at D+1 nodes
    rho e^{2 pi i k/(D+1)} on a circle and inverting the DFT, where
    D = deg1(g) deg2(h) + deg1(h) deg2(g).
    Falls back to rho in {0.7, 1.3} when the self-check at a probe point
    fails at rho = 1.

    Returns
    -------
    UniPoly
        In t1, trailing coefficients below 1e-10 x max trimmed; the zero
        polynomial ``UniPoly([0.0])`` when every sampled determinant is
        below 1e-12 times its Hadamard bound (the two curves share a
        component).

    Raises
    ------
    NoConvergence
        If the interpolated resultant misses the direct determinant at the
        probe point by 1e-6 (relative) or more at all three radii.
    Overflow
        If D or the D+1 Sylvester matrices are above their ceilings (_MAX_ROOT_DEGREE).
    """
    gb = np.asarray(g, dtype=complex)
    hb = np.asarray(h, dtype=complex)
    if gb.shape[1] < 2 or hb.shape[1] < 2:
        raise ValueError("both polynomials need positive degree in the eliminated variable")
    d1g, d2g = gb.shape[0] - 1, gb.shape[1] - 1
    d1h, d2h = hb.shape[0] - 1, hb.shape[1] - 1
    dd = d1g * d2h + d1h * d2g
    kk = dd + 1
    if dd > _MAX_ROOT_DEGREE or kk * (d2g + d2h) ** 2 > 4 * _MAX_ROOT_DEGREE ** 2:
        raise Overflow(f"resultant too large: degree {dd} (ceiling {_MAX_ROOT_DEGREE}), "
                       f"{kk} Sylvester matrices of order {d2g + d2h}")
    # self-check: the direct determinant at a probe point, against the
    # interpolated value there
    probe = 0.83 + 0.31j
    pa = (probe ** np.arange(gb.shape[0])) @ gb
    pb = (probe ** np.arange(hb.shape[0])) @ hb
    (ref,), (habs,) = _sylvester_batch(pa[None, :], pb[None, :])

    errs = []
    for rho in (1.0, 0.7, 1.3):
        av = _vandermonde(kk, rho, gb.shape[0]) @ gb
        bv = _vandermonde(kk, rho, hb.shape[0]) @ hb
        dets, had = _sylvester_batch(av, bv)
        if np.all(np.abs(dets) <= 1e-12 * np.maximum(had, 1e-300)):
            return UniPoly([0.0])
        coeffs = np.fft.fft(dets) / kk
        if rho != 1.0:
            coeffs = coeffs / rho ** np.arange(kk)
        val = _horner(coeffs, probe)
        errs.append(abs(val - ref) / max(abs(ref), habs * 1e-8, 1e-300))
        if errs[-1] < 1e-6:
            break
    else:
        raise NoConvergence(
            "resultant interpolation failed its probe self-check at every radius "
            f"(relative errors {', '.join(f'{e:.3g}' for e in errs)})"
        )
    cap = float(np.max(np.abs(coeffs)))
    keep = coeffs.size
    while keep > 1 and abs(coeffs[keep - 1]) < 1e-10 * cap:
        keep -= 1
    return UniPoly(coeffs[:keep])
