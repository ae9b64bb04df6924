"""Tracing the amoeba contour by sweeping the logarithmic Gauss direction.

Critical points of the Log map on V(f) are exactly the points whose
logarithmic Gauss image is real.  Sweeping that real direction by an
angle theta turns the critical set into a family of zero-dimensional
systems

    f = 0,    sin(theta) z2 df/dz2 - cos(theta) z1 df/dz1 = 0,

each solved by Sylvester elimination of z2 and back-substitution.  The
log-images of the solutions sample the contour curve; pushing them
through the fiber classifier afterwards separates the actual amoeba
boundary from the inner contour arcs.
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np

from .errors import DegenerateSlice, IdenticallyZero
from .fiber import (
    CRITICAL_TOL,
    RESIDUAL_REL,
    _abs_at,
    _check_curve,
    _eval_bi,
    _fibers,
    _score,
    _slice,
    _staged,
    _tag,
)
from .laurent import _collect, _dense
from .numeric import sylvester_resultant
from .numeric import roots  # noqa: F401  (bench/test_spans.py looks it up here)

# moduli below this cutoff are elimination artifacts, not torus points
TORUS_CUTOFF = 1e-9


class SkippedSlices(UserWarning):
    """Some sweep angles produced degenerate slices and were left out."""


class ContourPoint:
    """One traced sample of the contour.

    ``w`` is the log-image, ``s_param`` the sweep angle theta in [0, pi)
    encoding the projective Gauss direction (cos theta : sin theta), and
    ``source_z`` a witness on the variety: |f(source_z)| and the Gauss
    combination at source_z both vanish to RESIDUAL_REL (1e-7) relative
    accuracy, and w = Log|source_z|.
    """

    __slots__ = ("w", "s_param", "source_z")

    def __init__(self, w, s_param, source_z):
        self.w = (float(w[0]), float(w[1]))
        self.s_param = float(s_param)
        self.source_z = (complex(source_z[0]), complex(source_z[1]))

    def __repr__(self):
        return (
            f"ContourPoint(w=({self.w[0]:.9f}, {self.w[1]:.9f}), "
            f"theta={self.s_param:.9f})"
        )


def _polish_pair(gb, hb, z1, z2):
    """At most six Newton steps on the holomorphic pair (g, h), damped per coordinate.

    Returns z1, z2 and ``_eval_bi`` and ``_abs_at`` of g and h there (None when a
    coordinate ran to zero); the seventh pass only evaluates.
    """
    for k in range(7):
        g, gg1, gg2 = ge = _eval_bi(gb, z1, z2)
        h, hg1, hg2 = he = _eval_bi(hb, z1, z2)
        ga, ha = _abs_at(gb, z1, z2), _abs_at(hb, z1, z2)
        if k == 6 or (abs(g) <= 1e-14 * ga[0] and abs(h) <= 1e-14 * ha[0]):
            break
        a11, a12 = gg1 / z1, gg2 / z2
        a21, a22 = hg1 / z1, hg2 / z2
        dd = a11 * a22 - a12 * a21
        if abs(dd) <= 1e-14 * (abs(a11 * a22) + abs(a12 * a21) + 1e-300):
            break
        d1 = (g * a22 - h * a12) / dd
        d2 = (h * a11 - g * a21) / dd
        ratio = max(abs(d1) / (0.5 * abs(z1)), abs(d2) / (0.5 * abs(z2)))
        if ratio > 1.0:
            d1 /= ratio
            d2 /= ratio
        z1, z2 = z1 - d1, z2 - d2
        if abs(z1) < 1e-300 or abs(z2) < 1e-300:
            return z1, z2, None
    return z1, z2, (ge, ga, he, ha)


def _gauss(terms, theta):
    """The Gauss combination sin(theta) z2 df/dz2 - cos(theta) z1 df/dz1 of f's
    (exponent, coefficient) pairs, summed term by term by ``_collect`` and laid out
    on its support by ``_dense``; DegenerateSlice when it vanishes identically."""
    # snap axis directions: cos(pi/2) is 6.1e-17 in floats, which would hide
    # an identically vanishing Gauss combination behind a phantom tiny term
    st, ct = (0.0 if abs(v) < 1e-15 else v for v in (math.sin(theta), math.cos(theta)))
    comb = _collect({}, ((a, c) for a, b in terms for c in (st * (b * a[1]), -(ct * (b * a[0])))))
    if not comb:
        raise DegenerateSlice(
            f"Gauss combination vanishes identically at theta={theta:.6f}"
        )
    return _dense(comb.items(), 2)


def _solve(curve, theta):
    """The slice solve at theta, as a generator that ``fiber._staged`` drives.

    ``curve`` is (gb, coeff_sum, terms): the dense cleared f, the sum of
    its coefficient moduli and f's (exponent, coefficient) pairs.  The t1
    polynomial is the Sylvester resultant of g and the Gauss combination h
    (``_gauss``) in z2, or the z2-free h itself when the combination lost
    its z2 dependence; every exponent of h is one of f's, so a z2-free f
    always takes the second way.  Every t1 root off the origin goes on to
    back-substitution, where a vanished slice raises; then polishing and
    deduplication per candidate.  Returns the slice's ContourPoint list,
    sorted by (w, phases).
    """
    gb, coeff_sum, terms = curve
    hb = _gauss(terms, theta)
    direct = hb.shape[1] == 1
    if direct:
        t1_poly = hb[:, 0]
    else:
        try:
            t1_poly = sylvester_resultant(gb, hb)
        except IdenticallyZero as exc:
            raise DegenerateSlice(
                f"slice at theta={theta:.6f} shares a component with the variety"
            ) from exc
    (found,) = yield [t1_poly]
    t1s = [cl.center for cl in found if not abs(cl.center) < TORUS_CUTOFF]
    slices = [_slice(gb, coeff_sum, t1) for t1 in t1s]
    if any(s is None for s in slices):
        # V(f) holds the line z1 = t1, so the slice system is not finite
        raise DegenerateSlice("the variety contains a coordinate line through a slice root")
    found = yield slices
    pairs = []
    for t1, roots2 in zip(t1s, found):
        for c2 in roots2:
            t2 = c2.center
            if not abs(t2) >= TORUS_CUTOFF:
                continue
            # without z2 in h, every slice root solves the system already
            if direct or abs(_eval_bi(hb, t1, t2)[0]) <= 1e-4 * _abs_at(hb, t1, t2)[0]:
                pairs.append((t1, t2))

    kept = []  # entries [z1, z2, residual]
    for t1, t2 in pairs:
        z1, z2, evals = _polish_pair(gb, hb, t1, t2)
        if min(abs(z1), abs(z2)) < TORUS_CUTOFF:
            continue
        (gval, gg1, gg2), (sg, sgg1, sgg2), (hval, _, _), (sh, _, _) = evals
        # both |g| and |h| must pass the fiber solver's residual rule
        if not (abs(gval) <= RESIDUAL_REL * sg and abs(hval) <= RESIDUAL_REL * sh):
            continue  # also rejects non-finite values from runaway candidates
        # witnesses must be critical: real Gauss image or a singular point
        if abs(gg1) >= 1e-13 * sgg1 or abs(gg2) >= 1e-13 * sgg2:
            if _score(gg1, gg2) >= CRITICAL_TOL:
                continue
        resid = abs(gval) / max(sg, 1e-300) + abs(hval) / max(sh, 1e-300)
        for item in kept:
            if (
                abs(z1 - item[0]) <= 1e-7 * (1.0 + abs(item[0]))
                and abs(z2 - item[1]) <= 1e-7 * (1.0 + abs(item[1]))
            ):
                if resid < item[2]:
                    item[0], item[1], item[2] = z1, z2, resid
                break
        else:
            kept.append([z1, z2, resid])

    s_param = theta % math.pi
    points = [
        ContourPoint((math.log(abs(z1)), math.log(abs(z2))), s_param, (z1, z2))
        for z1, z2, _ in kept
    ]
    points.sort(
        key=lambda p: (p.w, cmath.phase(p.source_z[0]), cmath.phase(p.source_z[1]))
    )
    return points


def _sweep(f, thetas):
    """Slice solves (``_solve``) at many angles, through ``fiber._staged``.

    The dense f and its coefficient modulus sum are built once per curve.
    Returns an iterator with one entry per angle: the sorted ContourPoint
    list of ``contour_slice``, or the DegenerateSlice raised for that slice
    alone.
    """
    _check_curve(f)
    gb = _dense(f.terms.items(), 2)
    curve = (gb, float(np.abs(gb).sum()), f.terms.items())
    return _staged((_solve(curve, float(theta)) for theta in thetas), (DegenerateSlice,))


def contour_slice(f, theta):
    """Solve one Gauss-direction slice of the contour.

    Parameters
    ----------
    f : LaurentPoly
        Two variables, at least two terms.
    theta : float
        Sweep angle.  The slice system is f = 0 together with
        sin(theta) z2 d2f - cos(theta) z1 d1f = 0.

    Returns
    -------
    list of ContourPoint
        One entry per solution of the slice system in (C*)^2, sorted by
        (w, phases).  Coordinates with modulus below 1e-9 count as
        elimination artifacts and are dropped.

    Raises
    ------
    DegenerateFiber
        If f is the zero polynomial or a monomial: there is no curve.
    DegenerateSlice
        When the slice system is not zero-dimensional at this angle.
    Overflow
        If a coefficient of the Gauss combination is not a finite float.
    NoConvergence
        If a resultant or back-substitution root did not converge.
    """
    out = next(_sweep(f, [theta]))
    if isinstance(out, DegenerateSlice):
        raise out
    return out


def trace_contour(f, n_slices):
    """Sweep the Gauss direction over [0, pi) and pool the slices.

    Angles are theta_k = pi k / n_slices for k = 0 .. n_slices - 1,
    solved in batched sweeps, which give what ``contour_slice`` gives
    slice by slice.  Degenerate slices are skipped and reported once
    through a SkippedSlices warning.  The pooled cloud is deduplicated on the pair
    (w rounded to a 1e-9 grid, s_param), so the same log-point is kept
    once per fold direction, and returned sorted by (w, s_param).
    NoConvergence in any slice is raised, not skipped, and so is the
    DegenerateFiber of a zero or monomial f.
    """
    n_slices = int(n_slices)
    if n_slices < 1:
        raise ValueError("need at least one slice")
    thetas = [math.pi * k / n_slices for k in range(n_slices)]
    points = []
    skipped = []
    for theta, out in zip(thetas, _sweep(f, thetas)):
        if isinstance(out, DegenerateSlice):
            skipped.append((theta, str(out)))
        else:
            points.extend(out)
    if skipped:
        warnings.warn(
            f"skipped {len(skipped)} of {n_slices} slices; first at "
            f"theta={skipped[0][0]:.6f}: {skipped[0][1]}",
            SkippedSlices,
            stacklevel=2,
        )
    seen = {}
    for p in points:
        key = (round(p.w[0] * 1e9), round(p.w[1] * 1e9), round(p.s_param * 1e12))
        if key not in seen:
            seen[key] = p
    return sorted(seen.values(), key=lambda p: (p.w, p.s_param))


def classify_contour(f, points):
    """Split traced contour points into boundary and inner contour.

    The log-images of the points go through batched fiber solves, and
    each gets the tag a single ``classify`` call gives.  Boundary
    tags, with or without the caveat flag, land under ``"boundary"``;
    degenerate fibers under ``"degenerate"``; everything else under
    ``"inner"``.  A zero or monomial f raises DegenerateFiber, as in
    ``classify``.

    Returns
    -------
    dict
        Keys ``"boundary"``, ``"inner"``, ``"degenerate"``; values are
        lists of (ContourPoint, PointClass) pairs in input order.
    """
    points = list(points)
    out = {"boundary": [], "inner": [], "degenerate": []}
    for p, pc in zip(points, map(_tag, _fibers(f, [p.w for p in points]))):
        bucket = {"Boundary": "boundary", "Degenerate": "degenerate"}.get(pc.tag, "inner")
        out[bucket].append((p, pc))
    return out
