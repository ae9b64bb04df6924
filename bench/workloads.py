"""Seeded inputs for the benchmark workloads, ``sweep`` and ``point``.

Everything the program receives is generated here from the seed, by the
benchmark's own arithmetic (numpy root finding for the points near the
curves), so a change to the program cannot change its own inputs.

The seed is reduced modulo ``VARIANTS``: reference outputs are recorded
for each of the ``VARIANTS`` input sets, and every run is checked against
them.  The named acceptance polynomials are fixed; the seed picks the
quadnomial constant, the phases of the degree-4 curve, the point streams
and the linear systems.  Seeded coefficients keep their moduli fixed and
vary only phases, because the lopsided shortcut, and so the share of
cells that skip the resultant, depends on the moduli alone: the cost of a
workload then varies little from seed to seed.
"""

from __future__ import annotations

import cmath
import math
from statistics import NormalDist

import numpy as np

VARIANTS = 8

TWO_TO_ONE = "z1^2*z2 + z1*z2^2 - 4*z1*z2 + 1"
CUBIC_1 = "z1^3 + z2^3 + z1*z2 + 1"
CUBIC_13 = "z1^3 + z2^3 + 1.3*z1*z2 + 1"

TWO_TO_ONE_TERMS = {(2, 1): 1, (1, 2): 1, (1, 1): -4, (0, 0): 1}
CUBIC_1_TERMS = {(3, 0): 1, (0, 3): 1, (1, 1): 1, (0, 0): 1}
CUBIC_13_TERMS = {(3, 0): 1, (0, 3): 1, (1, 1): 1.3, (0, 0): 1}

QUAD_MODULUS = 1.2  # |c| of the quadnomial; 1.2 is the acceptance "inside" case
# Seeded phases stay within PHASE_JITTER of fixed base phases (0 for the
# quadnomial constant): with free phases the cost of the degree-4 raster
# changed by a fifth from seed to seed.
PHASE_JITTER = 0.25
DEG4_PHASES = np.random.default_rng(4).uniform(0, 2 * math.pi, 15)


def _num(c):
    """A complex coefficient as parser input, shortest round-trip form."""
    c = complex(c)
    if c.imag == 0:
        return f"({c.real!r})"
    return f"({c.real!r}{c.imag:+}i)"


def poly_text(terms):
    """Parser text of {(a1, a2): coefficient}, terms in sorted order."""
    parts = []
    for (a1, a2), c in sorted(terms.items()):
        mono = [f"z{k}" if a == 1 else f"z{k}^{a}"
                for k, a in ((1, a1), (2, a2)) if a != 0]
        parts.append("*".join([_num(c)] + mono))
    return " + ".join(parts)


def quadnomial_terms(c):
    return {(2, 0): -2, (1, 2): -2, (-1, -1): 1.5j, (0, 0): -c}


def degree4_terms(phases):
    """Dense degree-4 curve with trinomial moduli 4!/(i! j! k!) and given phases."""
    exps = [(i, j) for i in range(5) for j in range(5 - i)]
    return {
        (i, j): math.factorial(4) / (math.factorial(i) * math.factorial(j)
                                      * math.factorial(4 - i - j))
        * cmath.exp(1j * ph)
        for (i, j), ph in zip(exps, phases)
    }


class Inputs:
    """The generated inputs of one seed."""

    def __init__(self, seed):
        self.seed = int(seed)
        self.variant = self.seed % VARIANTS
        rng = np.random.default_rng([0xA30EBA5, self.variant])
        self.quad_c = QUAD_MODULUS * cmath.exp(1j * rng.uniform(-PHASE_JITTER, PHASE_JITTER))
        self.quad = poly_text(quadnomial_terms(self.quad_c))
        self.deg4_terms = degree4_terms(
            DEG4_PHASES + rng.uniform(-PHASE_JITTER, PHASE_JITTER, 15))
        self.deg4 = poly_text(self.deg4_terms)
        self.curves = {
            "two_to_one": (TWO_TO_ONE, TWO_TO_ONE_TERMS),
            "cubic_1": (CUBIC_1, CUBIC_1_TERMS),
            "cubic_13": (CUBIC_13, CUBIC_13_TERMS),
            "quad": (self.quad, quadnomial_terms(self.quad_c)),
            "deg4": (self.deg4, self.deg4_terms),
        }


# --------------------------------------------------------------------------
# points
# --------------------------------------------------------------------------
#
# Points come from a Kronecker sequence x_k = frac(u + k a), with a the
# fractional parts of square roots of primes and u a seeded shift: every
# prefix is spread evenly, so two seeds give point sets with nearly the
# same distribution; the cost of a fiber solve depends strongly on where
# the point sits.

_ALPHA = [math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13)]
_NORMAL = NormalDist()


def _kronecker(rng):
    """Endless quasi-random vectors in [0, 1)^6 with a seeded shift."""
    u = rng.uniform(size=len(_ALPHA))
    k = 0
    while True:
        k += 1
        yield [(ui + k * a) % 1.0 for ui, a in zip(u, _ALPHA)]


def _w(x):
    """Round a coordinate to 6 decimals so inputs do not hang on last bits."""
    return round(float(x), 6)


def near_points(terms, rng, n, spread=0.05, box=2.5):
    """Points within ``spread`` (normal noise) of the amoeba of ``terms``.

    A torus point z1 = e^(r + i phi) is drawn, f(z1, z2) = 0 is solved for
    z2 and one root is taken, so the unperturbed point lies on the amoeba.
    """
    lo = min(a2 for _, a2 in terms)
    hi = max(a2 for _, a2 in terms)
    out = []
    for x in _kronecker(rng):
        if len(out) == n:
            return out
        z1 = cmath.exp(complex(-1.5 + 3.0 * x[0], 2 * math.pi * x[1]))
        coeffs = np.zeros(hi - lo + 1, dtype=complex)
        for (a1, a2), c in terms.items():
            coeffs[a2 - lo] += c * z1 ** a1
        zs = sorted((z for z in np.roots(coeffs[::-1]) if abs(z) > 1e-12 and np.isfinite(z)),
                    key=abs)
        if not zs:
            continue
        z2 = zs[int(x[2] * len(zs))]
        w = (_w(math.log(abs(z1)) + spread * _NORMAL.inv_cdf(min(max(x[3], 1e-9), 1 - 1e-9))),
             _w(math.log(abs(z2)) + spread * _NORMAL.inv_cdf(min(max(x[4], 1e-9), 1 - 1e-9))))
        if max(abs(w[0]), abs(w[1])) <= box:
            out.append(w)


def dominated_points(terms, rng, n, margin=1.5, box=4.0):
    """Points where one term modulus exceeds ``margin`` x the sum of the rest."""
    items = [(a, abs(c)) for a, c in terms.items()]
    out = []
    for x in _kronecker(rng):
        if len(out) == n:
            return out
        w = (_w(box * (2 * x[0] - 1)), _w(box * (2 * x[1] - 1)))
        mods = sorted(m * math.exp(a[0] * w[0] + a[1] * w[1]) for a, m in items)
        if mods[-1] > margin * math.fsum(mods[:-1]):
            out.append(w)


def uniform_points(rng, n, box=2.0):
    gen = _kronecker(rng)
    return [(_w(box * (2 * x[0] - 1)), _w(box * (2 * x[1] - 1)))
            for x, _ in zip(gen, range(n))]


# --------------------------------------------------------------------------
# workloads: CLI command lists and in-process query streams
# --------------------------------------------------------------------------
#
# A command is (name, argv, outputs); outputs are file names the command
# writes into the work directory.  A query is (kind, poly_text, w).

def _raster_cmd(kind, name, poly, res, ext):
    out = f"{name}.{ext}"
    return (name, [kind, "--poly", poly, "--res", res, "--output", out], [out])


def raster_commands(inp):
    return [
        _raster_cmd("betti", "betti_two_to_one", TWO_TO_ONE, "17,17", "ppm"),
        _raster_cmd("raster", "raster_cubic_1", CUBIC_1, "17,17", "svg"),
        _raster_cmd("betti", "betti_quad", inp.quad, "15,15", "ppm"),
        _raster_cmd("raster", "raster_quad", inp.quad, "15,15", "svg"),
        _raster_cmd("betti", "betti_deg4", inp.deg4, "9,9", "ppm"),
    ]


def contour_commands(inp):
    return [
        ("contour_two_to_one",
         ["contour", "--poly", TWO_TO_ONE, "--slices", "30", "--output",
          "contour_two_to_one.csv"], ["contour_two_to_one.csv"]),
        ("boundary_cubic_1",
         ["boundary", "--poly", CUBIC_1, "--slices", "20", "--output",
          "boundary_cubic_1.csv"], ["boundary_cubic_1.csv"]),
        ("boundary_cubic_13",
         ["boundary", "--poly", CUBIC_13, "--slices", "20", "--output",
          "boundary_cubic_13.csv"], ["boundary_cubic_13.csv"]),
    ]


def _matrix_text(m):
    return ";".join(",".join(_num(x)[1:-1] for x in row) for row in m)


def linear_systems(rng):
    """A seeded 2x2 and 3x3 system: moduli in [0.5, 2], random phases."""
    out = []
    for n in (2, 3):
        mods = np.exp(rng.uniform(math.log(0.5), math.log(2.0), (n, n)))
        phases = rng.uniform(0, 2 * math.pi, (n, n))
        m = np.round(mods * np.exp(1j * phases), 6)
        out.append(_matrix_text(m))
    return out


def point_commands(inp):
    rng = np.random.default_rng([0xC11, inp.variant])
    near = near_points(CUBIC_1_TERMS, rng, 1)[0]
    near_quad = near_points(quadnomial_terms(inp.quad_c), rng, 1)[0]
    comp = dominated_points(TWO_TO_ONE_TERMS, rng, 1)[0]
    comp4 = dominated_points(inp.deg4_terms, rng, 1)[0]
    sys2, sys3 = linear_systems(rng)

    def pt(w):
        return f"{w[0]!r},{w[1]!r}"

    return [
        ("classify_cubic_1", ["classify", "--poly", CUBIC_1, "--point", pt(near)], []),
        ("fiber_quad", ["fiber", "--poly", inp.quad, "--point", pt(near_quad)], []),
        ("order_two_to_one", ["order", "--poly", TWO_TO_ONE, "--point", pt(comp)], []),
        ("lopsided_deg4", ["lopsided", "--poly", inp.deg4, "--point", pt(comp4)], []),
        # "--linear=" form: a matrix text that starts with a minus sign and
        # holds an "i" is otherwise taken for an option by the CLI parser
        ("basis_2x2", ["basis", f"--linear={sys2}"], []),
        ("basis_3x3", ["basis", f"--linear={sys3}"], []),
    ]


def commands(name, inp):
    if name == "sweep":
        return raster_commands(inp) + contour_commands(inp)
    return point_commands(inp)


def _linear_terms(rng):
    mods = np.exp(rng.uniform(math.log(0.3), math.log(3.0), 3))
    c = np.round(mods * np.exp(1j * rng.uniform(0, 2 * math.pi, 3)), 6)
    return {(0, 0): c[0], (1, 0): c[1], (0, 1): c[2]}


# Query streams mix fast, middle and slow groups in fixed proportions.
# The middle group is the resultant path of the degree-4 two-to-one curve
# at points on its amoeba, whose latency is one tight mode: the median
# sits inside it, not on the sparse edge between two modes, where the
# box's timing noise would move it by a third.  The slow group holds the
# 95th percentile, with at least ten queries above it.

def point_queries(inp):
    """240 single queries with a fixed composition, in seeded order.

    Fast (55): lopsided on every curve, linear_classify on seeded linear
    polynomials.  Middle (120): classify and fiber_solutions on the
    two-to-one curve.  Slow (65): classify and fiber_solutions near the
    other curves, order at certified complement points of all five.
    """
    rng = np.random.default_rng([0x9E77, inp.variant])
    qs = []
    for key, (text, terms) in inp.curves.items():
        middle = key == "two_to_one"
        for w in near_points(terms, rng, 90 if middle else 8, spread=0.0 if middle else 0.05):
            qs.append(("classify", text, w))
        for w in near_points(terms, rng, 30 if middle else 2, spread=0.0 if middle else 0.05):
            qs.append(("fiber_solutions", text, w))
        for w in near_points(terms, rng, 3) + uniform_points(rng, 3):
            qs.append(("lopsided", text, w))
        for w in dominated_points(terms, rng, 5):
            qs.append(("order", text, w))
    for _ in range(25):
        terms = _linear_terms(rng)
        w = uniform_points(rng, 1, box=1.5)[0]
        qs.append(("linear_classify", poly_text(terms), w))
    return [qs[i] for i in rng.permutation(len(qs))]


def sweep_queries(inp, contour_rows):
    """240 single fiber solves, as a raster cell or a contour point needs them.

    Fast (48): lopsided-shortcut cells of the c = 1 cubic and the
    quadnomial.  Middle (144): 60 cells on the two-to-one amoeba and 84
    two-to-one contour points (resultant degree 4).  Slow (48): 12 cells
    on the degree-4 amoeba (degree 32), 24 c = 1 and 12 c = 1.3 cubic
    contour points.  Contour points come from the reference CSVs
    (``contour_rows`` maps a command name to its recorded CSV text); they
    lie on the amoeba, so the lopsided shortcut never fires there.
    """
    rng = np.random.default_rng([0x5EE9, inp.variant])
    qs = []
    for key in ("cubic_1", "quad"):
        text, terms = inp.curves[key]
        qs += [("classify", text, w) for w in dominated_points(terms, rng, 24, box=2.0)]
    for key, n in (("two_to_one", 60), ("deg4", 12)):
        text, terms = inp.curves[key]
        qs += [("classify", text, w) for w in near_points(terms, rng, n, spread=0.0)]
    for name, text, n in (("contour_two_to_one", TWO_TO_ONE, 84),
                          ("boundary_cubic_1", CUBIC_1, 24),
                          ("boundary_cubic_13", CUBIC_13, 12)):
        rows = contour_rows[name].splitlines()[1:]
        for k in rng.choice(len(rows), n, replace=len(rows) < n):
            w1, w2 = rows[k].split(",")[:2]
            qs.append(("classify", text, (float(w1), float(w2))))
    return [qs[i] for i in rng.permutation(len(qs))]
