"""Metamorphic checks: transformations of f whose effect on the amoeba is known.

Multiplying f by a monomial z^beta, conjugating its coefficients and
scaling it by a constant leave the amoeba where it is; swapping z1 and
z2 mirrors it in the diagonal; scaling the torus, z -> e^lambda z, which
multiplies each b_alpha by e^<alpha, lambda>, shifts it by -lambda.  Tags
and fiber counts must follow exactly, and the order of a complement
component shifts by beta under the monomial and swaps its entries under
the swap.

The checks run on a fixed grid, at the points whose verdict for the
untransformed f is Complement, or Interior with every criticality score
at least 10 x CRITICAL_TOL: points on or near the contour may tip either
way under rounding, which is not what these checks are about.
"""

import numpy as np
import pytest

from amoebas import LaurentPoly, classify, order, parse_poly
from amoebas.fiber import CRITICAL_TOL

CURVES = {
    "two-to-one": "z1^2*z2 + z1*z2^2 - 4*z1*z2 + 1",
    "cubic-1.3": "z1^3 + z2^3 + 1.3*z1*z2 + 1",
    "quadnomial": "-2*z1^2 - 2*z1*z2^2 + 1.5i*z1^-1*z2^-1 - 1.2",
}

# symmetric under the swap; it meets all four complement components of
# the two-to-one curve and of the cubic (whose bounded one holds the
# origin), and the three unbounded ones of the quadnomial
GRID = [(float(w1), float(w2)) for w1 in np.linspace(-2, 2, 9) for w2 in np.linspace(-2, 2, 9)]

BETA = (2, -1)

LAMBDA = (0.75, -0.5)


def _swap(f):
    return LaurentPoly(2, {(a2, a1): b for (a1, a2), b in f.terms.items()})


def _torus_scale(f):
    """f(e^LAMBDA z): each b_alpha times e^<alpha, LAMBDA>."""
    return LaurentPoly(2, {a: b * np.exp(a[0] * LAMBDA[0] + a[1] * LAMBDA[1])
                           for a, b in f.terms.items()})


# name -> (f -> transformed f, w -> transformed point, order -> transformed order)
TRANSFORMS = {
    "monomial": (lambda f: LaurentPoly(2, {(a1 + BETA[0], a2 + BETA[1]): b
                                           for (a1, a2), b in f.terms.items()}),
                 lambda w: w, lambda o: (o[0] + BETA[0], o[1] + BETA[1])),
    "conjugate": (lambda f: LaurentPoly(2, {a: b.conjugate() for a, b in f.terms.items()}),
                  lambda w: w, lambda o: o),
    "swap": (_swap, lambda w: (w[1], w[0]), lambda o: (o[1], o[0])),
    "scale": (lambda f: LaurentPoly(2, {a: b * (-0.7 + 2.4j) for a, b in f.terms.items()}),
              lambda w: w, lambda o: o),
    "torus-scale": (_torus_scale, lambda w: (w[0] - LAMBDA[0], w[1] - LAMBDA[1]),
                    lambda o: o),
}


def _verdict(f, w):
    """(tag, fiber count, order or None) of w, and whether it is clear of the contour."""
    pc = classify(f, w)
    if pc.tag == "Complement":
        return (pc.tag, 0, order(f, w)), True
    clear = pc.tag == "Interior" and all(s.score >= 10 * CRITICAL_TOL for s in pc.solutions)
    return (pc.tag, len(pc.solutions), None), clear


@pytest.fixture(scope="module")
def reference():
    """Per curve, the verdict of every grid point clear of the contour."""
    out = {}
    for name, text in CURVES.items():
        f = parse_poly(text, 2)
        out[name] = {}
        for w in GRID:
            verdict, clear = _verdict(f, w)
            if clear:
                out[name][w] = verdict
    return out


@pytest.mark.parametrize("kind", sorted(TRANSFORMS))
@pytest.mark.parametrize("curve", sorted(CURVES))
def test_verdicts_follow_the_transformation(reference, curve, kind):
    fmap, wmap, omap = TRANSFORMS[kind]
    g = fmap(parse_poly(CURVES[curve], 2))
    mine = reference[curve]
    tags = {tag for tag, _, _ in mine.values()}
    assert tags == {"Complement", "Interior"}
    for w, (tag, count, o) in mine.items():
        want = (tag, count, None if o is None else omap(o))
        assert _verdict(g, wmap(w))[0] == want, w
