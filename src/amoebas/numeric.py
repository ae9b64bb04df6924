"""Self-contained numeric kernel for the torus computations.

Univariate dense polynomials over C, a simultaneous (Aberth-Ehrlich) root
finder with cluster-based multiplicities, a partial-pivot LU linear solve,
and the Sylvester resultant of two bivariate polynomials computed by
evaluation and interpolation on a circle of nodes.
"""

from __future__ import annotations

import numpy as np

from .errors import IdenticallyZero, SingularMatrix

EPS = 2.0**-53

# leading coefficients at or below this (relative) size are trimmed
TRIM_REL = 1e-13

# Aberth-Ehrlich sweeps before the remaining roots count as unconverged
ABERTH_SWEEPS = 500


def _horner(c, x):
    """Evaluate an ascending coefficient array at x (scalar or array)."""
    r = np.full_like(np.asarray(x, dtype=complex), c[-1])
    for k in range(len(c) - 2, -1, -1):
        r = r * x + c[k]
    return r


class UniPoly:
    """Dense univariate polynomial, coefficients ascending by degree.

    Construction trims leading coefficients whose modulus is at most
    1e-13 times the largest coefficient modulus, so the stored leading
    coefficient is always meaningful.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("need a nonempty 1-d coefficient array")
        cap = float(np.max(np.abs(c)))
        if cap == 0.0:
            c = c[:1]
        else:
            keep = c.size
            while keep > 1 and abs(c[keep - 1]) <= TRIM_REL * cap:
                keep -= 1
            c = c[:keep]
        self.coeffs = c.copy()

    @property
    def degree(self):
        return self.coeffs.size - 1

    def __call__(self, x):
        out = _horner(self.coeffs, x)
        return complex(out) if np.isscalar(x) or np.ndim(x) == 0 else out

    def __repr__(self):
        return f"UniPoly({np.array2string(self.coeffs, separator=', ')})"


class RootCluster:
    """A clustered root: center, multiplicity (= cluster size), spread radius.

    ``converged`` is False when some member of the cluster hit the
    iteration cap before meeting the correction or residual criterion.
    """

    __slots__ = ("center", "multiplicity", "radius", "converged")

    def __init__(self, center, multiplicity, radius, converged=True):
        self.center = complex(center)
        self.multiplicity = int(multiplicity)
        self.radius = float(radius)
        self.converged = bool(converged)

    def __repr__(self):
        tag = "" if self.converged else ", unconverged"
        return (
            f"RootCluster({self.center:.12g}, mult={self.multiplicity}, "
            f"radius={self.radius:.3g}{tag})"
        )


def _initial_guesses(c):
    """Bini-style starting points on circles from the coefficient Newton polygon."""
    d = c.size - 1
    with np.errstate(divide="ignore"):
        u = np.where(np.abs(c) > 0, np.log(np.abs(c)), -np.inf)
    hull = []
    for i in range(d + 1):
        if u[i] == -np.inf:
            continue
        while len(hull) >= 2:
            i1, i2 = hull[-2], hull[-1]
            # drop i2 if it lies on or below the segment i1 -> i
            if (u[i] - u[i1]) * (i2 - i1) >= (u[i2] - u[i1]) * (i - i1):
                hull.pop()
            else:
                break
        hull.append(i)
    out = np.empty(d, dtype=complex)
    pos = 0
    for i1, i2 in zip(hull, hull[1:]):
        m = i2 - i1
        r = np.exp((u[i1] - u[i2]) / m)
        ang = 2.0 * np.pi * (np.arange(m) + 0.5) / m + 0.7 + 0.4 * pos
        out[pos:pos + m] = r * np.exp(1j * ang)
        pos += m
    return out


def _aberth(c):
    """Run Aberth-Ehrlich on ascending coefficients c (c[0], c[-1] nonzero)."""
    d = c.size - 1
    dc = c[1:] * np.arange(1, d + 1)
    # running round-off bound for |p(z)|, Bini's (4k+1) profile
    noise = np.abs(c) * (4.0 * np.arange(d + 1) + 1.0)
    z = _initial_guesses(c)
    converged = np.zeros(d, dtype=bool)
    for _ in range(ABERTH_SWEEPS):
        active = ~converged
        if not active.any():
            break
        za = z[active]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            p = _horner(c, za)
            dp = _horner(dc, za)
            floor = _horner(noise.astype(complex), np.abs(za)).real * EPS
            diff = za[:, None] - z[None, :]
            idx = np.flatnonzero(active)
            diff[np.arange(idx.size), idx] = np.inf  # exclude self
            diff[diff == 0] = 1e-300
            s = np.sum(1.0 / diff, axis=1)
            den = dp - p * s
            den[~np.isfinite(den) | (den == 0.0)] = 1.0
            w = p / den
            # an iterate far enough out to overflow the evaluation carries no
            # information; pull it halfway back toward the origin instead
            sick = ~np.isfinite(w) | ~np.isfinite(p)
            w[sick] = 0.5 * za[sick]
            # cap wild steps
            cap = 1.0 + np.abs(za)
            big = np.abs(w) > cap
            w[big] *= (cap[big] / np.abs(w[big]))
        z[idx] = za - w
        done = (
            ((np.abs(w) < 1e-12 * (1.0 + np.abs(za))) | (np.abs(p) <= floor))
            & np.isfinite(p) & np.isfinite(floor)
        )
        converged[idx[done]] = True
    return z, converged


def _inclusion_radii(c, z):
    """Newton inclusion radii d |p(z)/p'(z)| per computed root.

    Near an m-fold root the iterates scatter to eps^(1/m), far past any
    fixed clustering radius, but |p/p'| tracks (distance to the root)/m
    there, so overlapping inclusion disks identify the multiplet.  Radii
    are capped to stay local (a wild quotient must not glue the whole
    root set together).
    """
    d = c.size - 1
    dc = c[1:] * np.arange(1, d + 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pz = _horner(c, z)
        dpz = _horner(dc, z)
        r = d * np.abs(pz) / np.maximum(np.abs(dpz), 1e-300)
    r[~np.isfinite(r)] = np.inf
    return np.minimum(r, 0.05 * (1.0 + np.abs(z)))


def _cluster_points(z, flags, incl):
    """Single-linkage clustering of computed roots.

    Two roots join when they sit within the baseline radius
    max(1e-8, 1e-6 |center|) or when their Newton inclusion disks
    (times a safety factor of 2) overlap.
    """
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
        pts = z[members]
        center = pts.mean()
        radius = float(np.max(np.abs(pts - center))) if len(members) > 1 else 0.0
        clusters.append(RootCluster(center, len(members), radius, bool(flags[members].all())))
    clusters.sort(key=lambda cl: (cl.center.real, cl.center.imag))
    return clusters


def roots(p):
    """All complex roots of p, clustered into multiplicities.

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
    """
    if not isinstance(p, UniPoly):
        p = UniPoly(p)
    c = p.coeffs
    if p.degree == 0:
        if c[0] == 0:
            raise ValueError("zero polynomial has no finite root set")
        return []
    c = c / np.max(np.abs(c))
    # exact zero low-order coefficients are roots at the origin
    at_zero = 0
    while at_zero < c.size - 1 and c[at_zero] == 0:
        at_zero += 1
    c = c[at_zero:]
    clusters = []
    if at_zero:
        clusters.append(RootCluster(0j, at_zero, 0.0, True))
    if c.size > 1:
        z, flags = _aberth(c)
        clusters.extend(_cluster_points(z, flags, _inclusion_radii(c, z)))
    clusters.sort(key=lambda cl: (cl.center.real, cl.center.imag))
    return clusters


# --------------------------------------------------------------------------
# linear algebra
# --------------------------------------------------------------------------

def solve_linear(a, b):
    """Solve a x = b, rejecting near-singular systems.

    One LU factorization with partial pivoting, pivoting as LAPACK's
    ``zgetrf`` does: the first row with the largest ``|re| + |im|`` in the
    column, and no elimination below an exactly zero pivot.  All pivots
    are formed before any is checked, and the same factors then give x by
    forward and back substitution.

    Raises
    ------
    SingularMatrix
        If some LU pivot has modulus below 1e-12 times the matrix scale.
    ValueError
        If a is not square, b does not match it, or either holds an
        inf or a NaN.
    """
    lu = np.array(a, dtype=complex)
    x = np.array(b, dtype=complex)
    if lu.ndim != 2 or lu.shape[0] != lu.shape[1]:
        raise ValueError("need a square matrix")
    n = lu.shape[0]
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError("right-hand side does not match the matrix")
    if not (np.isfinite(lu).all() and np.isfinite(x).all()):
        raise ValueError("array must not contain infs or NaNs")
    scale = float(np.max(np.abs(lu))) if lu.size else 0.0
    if scale == 0.0:
        raise SingularMatrix("zero matrix")
    for k in range(n):
        col = lu[k:, k]
        p = k + int(np.argmax(np.abs(col.real) + np.abs(col.imag)))
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            x[[k, p]] = x[[p, k]]
        if lu[k, k] != 0:
            lu[k + 1:, k] /= lu[k, k]
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    pivots = np.abs(np.diagonal(lu))
    if np.any(pivots < 1e-12 * scale):
        raise SingularMatrix(f"pivot {pivots.min():.3e} below 1e-12 x scale {scale:.3e}")
    for k in range(n):
        x[k + 1:] -= np.multiply.outer(lu[k + 1:, k], x[k])
    for k in range(n - 1, -1, -1):
        x[k] /= lu[k, k]
        x[:k] -= np.multiply.outer(lu[:k, k], x[k])
    return x


# --------------------------------------------------------------------------
# Sylvester resultant by evaluation-interpolation
# --------------------------------------------------------------------------

def _sylvester_batch(avals, bvals):
    """Batched Sylvester determinants from per-node coefficient rows.

    avals, bvals: arrays of shape (K, m+1) and (K, l+1) holding the
    t2-coefficients of the two polynomials at K values of t1.  Returns
    (dets, hadamard) with the per-node determinant and Hadamard bound.
    """
    kk, m1 = avals.shape
    _, l1 = bvals.shape
    m, l = m1 - 1, l1 - 1
    size = m + l
    s = np.zeros((kk, size, size), dtype=complex)
    arev = avals[:, ::-1]
    brev = bvals[:, ::-1]
    for r in range(l):
        s[:, r, r:r + m1] = arev
    for r in range(m):
        s[:, l + r, r:r + l1] = brev
    dets = np.linalg.det(s)
    norm_a = np.linalg.norm(avals, axis=1)
    norm_b = np.linalg.norm(bvals, axis=1)
    hadamard = norm_a**l * norm_b**m
    return dets, hadamard


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
        In t1, trailing coefficients below 1e-10 x max trimmed.

    Raises
    ------
    IdenticallyZero
        If every sampled determinant is below 1e-12 times its Hadamard
        bound (the two curves share a component).
    """
    gb = np.asarray(g, dtype=complex)
    hb = np.asarray(h, dtype=complex)
    if gb.shape[1] < 2 or hb.shape[1] < 2:
        raise ValueError("both polynomials need positive degree in the eliminated variable")
    d1g, d2g = gb.shape[0] - 1, gb.shape[1] - 1
    d1h, d2h = hb.shape[0] - 1, hb.shape[1] - 1
    dd = d1g * d2h + d1h * d2g
    kk = dd + 1
    probe = 0.83 + 0.31j

    best = None
    for rho in (1.0, 0.7, 1.3):
        nodes = rho * np.exp(2j * np.pi * np.arange(kk) / kk)
        vand = nodes[:, None] ** np.arange(gb.shape[0])
        av = vand @ gb
        vand_h = nodes[:, None] ** np.arange(hb.shape[0]) if hb.shape[0] != gb.shape[0] else vand
        bv = vand_h @ hb
        dets, had = _sylvester_batch(av, bv)
        if np.all(np.abs(dets) <= 1e-12 * np.maximum(had, 1e-300)):
            raise IdenticallyZero("resultant vanishes at every node")
        coeffs = np.fft.fft(dets) / kk
        if rho != 1.0:
            coeffs = coeffs / rho ** np.arange(kk)
        # self-check: direct determinant at a probe point vs interpolated value
        pa = (probe ** np.arange(gb.shape[0])) @ gb
        pb = (probe ** np.arange(hb.shape[0])) @ hb
        dref, habs = _sylvester_batch(pa[None, :], pb[None, :])
        ref = dref[0]
        val = _horner(coeffs, probe)
        err = abs(val - ref) / max(abs(ref), habs[0] * 1e-8, 1e-300)
        if best is None or err < best[0]:
            best = (err, coeffs)
        if err < 1e-6:
            break
    coeffs = best[1]
    cap = float(np.max(np.abs(coeffs)))
    keep = coeffs.size
    while keep > 1 and abs(coeffs[keep - 1]) < 1e-10 * cap:
        keep -= 1
    return UniPoly(coeffs[:keep])
