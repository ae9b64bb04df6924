"""Sparse complex Laurent polynomials and their amoeba-facing transforms.

A Laurent polynomial f(z) = sum_alpha b_alpha z^alpha in n variables is
stored as a dictionary from integer exponent vectors to complex
coefficients.  The module keeps the algebra deliberately small: evaluate,
take the term moduli |b_alpha| e^{<alpha, w>} on the fiber torus over a
log-point w, the only place where coefficients are compared (term
dominance, the fiber restriction, the order, linear membership and the
basis checks), lay terms out densely, and take the Newton polytope.
LaurentPoly has no arithmetic; the parser's sums (``_collect``) drop a
coefficient only when the sum that formed it cancelled.

>>> f = LaurentPoly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
>>> evaluate(f, (1.0, 1.0))
(3+0j)
"""

from __future__ import annotations

import math

import numpy as np

from .errors import Overflow, ZeroCoordinate

# exponents are kept in int32 territory; degrees past this are rejected
MAX_DEGREE = 10**6

# a sum within this fraction of its larger summand is cancellation residue,
# dropped by _collect; fiber_restrict drops torus moduli below it
PRUNE_REL = 1e-14


class LaurentPoly:
    """Sparse Laurent polynomial in ``nvars`` complex variables.

    Parameters
    ----------
    nvars : int
        Number of variables (z1 .. z{nvars}).
    terms : dict
        Maps exponent tuples of length ``nvars`` (entries may be negative)
        to complex coefficients.  Exact zeros are dropped.

    Instances are treated as immutable and carry no arithmetic.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms):
        if nvars < 1:
            raise ValueError("need at least one variable")
        clean = {}
        for alpha, b in terms.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != nvars:
                raise ValueError(f"exponent {alpha} has wrong arity for nvars={nvars}")
            if any(abs(a) > MAX_DEGREE for a in alpha):
                raise Overflow(f"exponent {alpha} outside +-{MAX_DEGREE}")
            b = complex(b)
            if b != 0:
                clean[alpha] = b
        self.nvars = nvars
        self.terms = clean

    def __repr__(self):
        items = ", ".join(f"{a}: {b}" for a, b in sorted(self.terms.items()))
        return f"LaurentPoly({self.nvars}, {{{items}}})"

    def degree_span(self, j):
        """(min, max) exponent of variable j over the support; (0, 0) if absent."""
        if not self.terms:
            return (0, 0)
        exps = [a[j] for a in self.terms]
        return (min(exps), max(exps))


def _collect(out, pairs):
    """Add each (exponent, coefficient) of ``pairs`` into the term dict ``out``; returns it.

    A sum whose modulus is at most PRUNE_REL times its larger summand's
    (an exact zero included) is dropped; nothing else is compared.  A sum
    whose modulus is not a finite float raises Overflow.
    """
    for a, term in pairs:
        prev = out.get(a, 0j)
        c = prev + term
        try:
            mag = abs(c)  # inf or nan when c is not finite
        except OverflowError:  # a finite c of too large a modulus
            mag = math.inf
        if not math.isfinite(mag):
            raise Overflow(f"the coefficient of exponent {a} overflows")
        if mag <= PRUNE_REL * max(abs(prev), abs(term)):
            out.pop(a, None)
        else:
            out[a] = c
    return out


def _dense(pairs, nvars):
    """Dense array b[i, j, ..] ~ t1^i t2^j .. of (exponent, coefficient) pairs.

    The exponents are shifted so that the lowest of each variable is 0,
    which keeps the torus zeros; no pairs give a single zero.
    """
    pairs = list(pairs) or [((0,) * nvars, 0j)]
    exps = np.array([a for a, _ in pairs])
    lo = exps.min(axis=0)
    b = np.zeros(tuple(exps.max(axis=0) - lo + 1), dtype=complex)
    b[tuple((exps - lo).T)] = [c for _, c in pairs]
    return b


class NewtonPolytope:
    """Convex hull of the support lattice points.

    ``vertices`` are in counterclockwise order starting from the
    lexicographically smallest vertex; ``normalized_volume`` is twice the
    Euclidean area for n = 2 (the lattice length for n = 1), and 0 when the
    hull is lower dimensional.
    """

    __slots__ = ("vertices", "normalized_volume")

    def __init__(self, vertices, normalized_volume):
        self.vertices = tuple(tuple(v) for v in vertices)
        self.normalized_volume = int(normalized_volume)

    def __repr__(self):
        return f"NewtonPolytope({self.vertices}, vol={self.normalized_volume})"


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------

def evaluate(f, z):
    """Evaluate f at a complex point.

    Parameters
    ----------
    f : LaurentPoly
    z : sequence of complex, length f.nvars
        Coordinates must be nonzero wherever a negative exponent occurs.

    Returns
    -------
    complex
        sum_alpha b_alpha z^alpha, its real and imaginary parts each
        summed by ``math.fsum``, so the result does not depend on the
        order of the terms.

    Raises
    ------
    ZeroCoordinate
        If some z_j == 0 meets a negative exponent alpha_j.
    """
    z = [complex(v) for v in z]
    if len(z) != f.nvars:
        raise ValueError("point has wrong arity")
    zero_at = [v == 0 for v in z]
    terms = []
    for alpha in sorted(f.terms):
        term = f.terms[alpha]
        for v, a, vz in zip(z, alpha, zero_at):
            if vz:
                if a < 0:
                    raise ZeroCoordinate(f"z_j = 0 with exponent {a}")
                if a > 0:
                    term = 0j
                    break
            else:
                term *= v**a
        terms.append(term)
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def fiber_restrict(f, w):
    """Restrict f to the fiber torus over the log-point w.

    Substituting z = e^{w + i phi} turns f into the torus function
    sum_alpha b_alpha e^{<alpha, w>} e^{i<alpha, phi>}; the returned
    array (``_dense``) carries those coefficients in the torus variables t = e^{i phi}.
    To dodge overflow the coefficients are normalized so the largest modulus
    is exactly 1, and the discarded factor is reported in log space.

    Parameters
    ----------
    f : LaurentPoly
    w : sequence of float, length f.nvars

    Returns
    -------
    (ndarray, float)
        The dense normalized restriction b and log_scale, with
        b_alpha e^{<alpha, w>} = b[alpha - lo] * e^{log_scale}, lo the
        lowest kept exponents.  Coefficients with modulus below 1e-14 after
        normalization are dropped.

    Raises
    ------
    ValueError
        If len(w) != f.nvars.
    Overflow
        If w is non-finite or some <alpha, w> is not representable.
    """
    items, mods, cap = _torus_moduli(f, w)
    kept = ((alpha, (b / abs(b)) * mag)
            for (alpha, b), mag in zip(items, mods) if mag >= PRUNE_REL)
    return _dense(kept, f.nvars), cap


def _torus_moduli(f, w):
    """The one step from a query point w to the fiber torus over it.

    Returns f's sorted (alpha, b_alpha) items, their moduli |b_alpha|
    e^{<alpha, w>} divided by the largest, and the log of the largest
    (0.0 without items).  Raises ValueError unless len(w) == f.nvars, and
    Overflow if w is non-finite or some <alpha, w> is not representable.
    """
    w = [float(v) for v in w]
    if len(w) != f.nvars:
        raise ValueError("w has wrong arity")
    if not all(math.isfinite(v) for v in w):
        raise Overflow("w must be finite")
    items = sorted(f.terms.items())
    logs = []
    for alpha, b in items:
        try:
            m = math.log(abs(b)) + math.fsum(a * v for a, v in zip(alpha, w))
        except OverflowError:  # fsum's "intermediate overflow"
            m = math.inf
        if not math.isfinite(m):
            raise Overflow(f"<alpha, w> overflows for alpha={alpha}")
        logs.append(m)
    cap = max(logs, default=0.0)
    return items, [math.exp(m - cap) for m in logs], cap


def _chain(xs, ys, turn):
    """Positions in (xs, ys) of Andrew's monotone chain through points in x order:
    the lower hull (turn = 1) or the upper hull (turn = -1), collinear points dropped.
    A point at y = -inf (the log of a zero coefficient) is no point."""
    out = []
    for k in range(len(xs)):
        x, y = xs[k], ys[k]
        if y == -math.inf:
            continue
        while len(out) >= 2:
            i, j = out[-2], out[-1]
            if turn * ((xs[j] - xs[i]) * (y - ys[i]) - (ys[j] - ys[i]) * (x - xs[i])) > 0:
                break
            out.pop()
        out.append(k)
    return out


def newton_polytope(f):
    """Newton polytope of the support (n = 1 or n = 2).

    Returns
    -------
    NewtonPolytope
        Vertices counterclockwise from the lexicographically smallest; the
        normalized volume is 2 x area for n = 2 and the lattice length for
        n = 1.  Degenerate hulls (points, segments) get volume 0 for n = 2.
    """
    if not f.terms:
        raise ValueError("empty polynomial has no Newton polytope")
    if f.nvars == 1:
        lo, hi = f.degree_span(0)
        verts = [(lo,)] if lo == hi else [(lo,), (hi,)]
        return NewtonPolytope(verts, hi - lo)
    if f.nvars != 2:
        raise ValueError("newton_polytope is implemented for n <= 2")
    pts = sorted(set(f.terms))
    if len(pts) == 1:
        return NewtonPolytope(pts, 0)
    xs, ys = zip(*pts)
    # the lower hull left to right, then the upper hull right to left
    verts = ([pts[k] for k in _chain(xs, ys, 1)[:-1]]
             + [pts[-1 - k] for k in _chain(xs[::-1], ys[::-1], 1)[:-1]])
    if len(verts) < 3:
        return NewtonPolytope(verts[:2], 0)
    area2 = 0
    for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
        area2 += x1 * y2 - x2 * y1
    return NewtonPolytope(verts, abs(area2))

