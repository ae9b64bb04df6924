"""Shared independent oracles for the test suite.

Everything here works straight off the term data of a polynomial, with its
own grid sweeps and Newton iterations, so the code under test never judges
itself.
"""

import math

import numpy as np


def torus_min_modulus(terms, w, grid=64, polish=40, starts=60):
    """Minimum of |f| over the fiber torus, normalized by the coefficient sum.

    Grid sweep of the phase torus followed by damped Gauss-Newton descent
    in the phases from the ``starts`` smallest grid values and from every
    other local minimum of the periodic grid, so a shallow valley far from
    the deepest ones is searched too.  Returns min|f| / sum|terms|, both
    evaluated at the scaled coefficients c_alpha e^(alpha.w).
    """
    al = np.array([a for a, _ in terms], dtype=float)
    cf = np.array([c for _, c in terms], dtype=complex)
    scaled = cf * np.exp(al @ np.asarray(w, dtype=float))
    scaled /= np.max(np.abs(scaled))
    scale = float(np.sum(np.abs(scaled)))
    phi = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    p1g, p2g = np.meshgrid(phi, phi, indexing="ij")
    ev = np.exp(
        1j * (np.multiply.outer(p1g, al[:, 0]) + np.multiply.outer(p2g, al[:, 1]))
    )
    coarse = np.abs(ev @ scaled)
    local_min = np.all([coarse <= np.roll(coarse, (d1, d2), axis=(0, 1))
                        for d1 in (-1, 0, 1) for d2 in (-1, 0, 1)], axis=0)
    ranked = np.argsort(coarse, axis=None)
    best = np.inf
    for flat in [*ranked[:starts], *(k for k in ranked[starts:] if local_min.flat[k])]:
        p1, p2 = p1g.flat[flat], p2g.flat[flat]
        for _ in range(polish):
            e = scaled * np.exp(1j * (al[:, 0] * p1 + al[:, 1] * p2))
            val = e.sum()
            if abs(val) < 1e-14 * scale:
                break
            d1 = (al[:, 0] * e).sum() * 1j
            d2 = (al[:, 1] * e).sum() * 1j
            m = np.array([[d1.real, d2.real], [d1.imag, d2.imag]])
            r = np.array([val.real, val.imag])
            mtm = m.T @ m
            mtm += 1e-14 * np.trace(mtm) * np.eye(2) + 1e-300 * np.eye(2)
            step = np.linalg.solve(mtm, m.T @ r)
            n = float(np.hypot(step[0], step[1]))
            if n > 0.3:
                step *= 0.3 / n
            p1 -= step[0]
            p2 -= step[1]
        e = scaled * np.exp(1j * (al[:, 0] * p1 + al[:, 1] * p2))
        best = min(best, abs(e.sum()))
        if best < 1e-12 * scale:
            break
    return best / scale


def brute_member(terms, w, grid=64):
    """Membership oracle: True when the fiber torus meets the variety.

    Decisive for points a safe distance from the contour; the caller is
    responsible for drawing generic (f, w).
    """
    return torus_min_modulus(terms, w, grid=grid) < 1e-8


def eval_at_phases(terms, w, phi):
    """f(e^(w + i phi)) / max-term-modulus, straight off the term data."""
    al = np.array([a for a, _ in terms], dtype=float)
    cf = np.array([c for _, c in terms], dtype=complex)
    scaled = cf * np.exp(al @ np.asarray(w, dtype=float))
    scaled /= np.max(np.abs(scaled))
    e = scaled * np.exp(1j * (al[:, 0] * phi[0] + al[:, 1] * phi[1]))
    return complex(e.sum())


def linear_moduli(terms, w):
    """Term moduli of a linear polynomial c0 + sum c_j z_j at w, and their sum.

    In scalar arithmetic: with b_j = c_j / c0, term moduli r_0 = 1 and
    r_j = |b_j| e^(w_j), scaled by their maximum, constant term first;
    the sum is math.fsum's.
    """
    terms = list(terms)
    const = next(c for a, c in terms if not any(a))
    b = [0j] * len(w)
    for a, c in terms:
        if any(a):
            b[a.index(1)] = c / const
    logr = [math.log(abs(bj)) + wj if bj != 0 else -math.inf for bj, wj in zip(b, w)]
    cap = max(0.0, max(logr))
    vals = [math.exp(-cap)] + [math.exp(lr - cap) for lr in logr]
    return vals, math.fsum(vals)


def linear_tag(terms, w):
    """Tag of w against the amoeba of a linear polynomial c0 + sum c_j z_j.

    The exact rule on the moduli of ``linear_moduli``: w is Complement
    when some r_j exceeds the sum of the others by more than 1e-9,
    Boundary when some r_j is within 1e-9 of that sum, and Interior
    otherwise.
    """
    vals, total = linear_moduli(terms, w)
    if any(v > (total - v) + 1e-9 for v in vals):
        return "Complement"
    if any(abs(v - (total - v)) <= 1e-9 for v in vals):
        return "Boundary"
    return "Interior"
