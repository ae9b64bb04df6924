"""Parse a few Laurent polynomials and look at their Newton polytopes.

The normalized volume of the Newton polytope is the number of critical
points a generic Gauss-direction slice will produce later, so this is
worth eyeballing before any numerics run.
"""

from amoebas import format_poly, parse_poly
from amoebas.laurent import newton_polytope

SAMPLES = [
    "z1^3 + z2^3 + z1*z2 + 1",
    "z1^2*z2 + z1*z2^2 - 4*z1*z2 + 1",
    "-2*z1^2 - 2*z1*z2^2 + 1.5i*z1^-1*z2^-1 - 1.2",
    "1 + 0.5*z1 + 0.5*z2",
]

for text in SAMPLES:
    f = parse_poly(text, 2)
    poly = newton_polytope(f)
    print(f"f = {format_poly(f)}")
    print(f"  terms: {len(f.terms)}")
    print(f"  Newton polytope vertices: {list(poly.vertices)}")
    print(f"  normalized volume: {poly.normalized_volume}")
    print()
