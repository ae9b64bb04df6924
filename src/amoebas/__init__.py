"""Amoebas of complex Laurent polynomials.

Exact-arithmetic-free but certificate-driven computation of amoebas in
two variables: fiber membership, four-way point classification, order
and lopsidedness certificates, contour tracing through the logarithmic
Gauss map, Betti and classification rasters, and amoeba bases for
full-rank linear systems.
"""

__version__ = "0.1.0"

from .errors import (
    AmoebaError,
    AxiomFailure,
    DegenerateFiber,
    DegenerateSlice,
    EmptyInput,
    IdenticallyZero,
    InconsistentOrder,
    NoConvergence,
    NotLinear,
    Overflow,
    ParseError,
    PolySyntaxError,
    SingularMatrix,
    UnknownVariable,
    ZeroCoordinate,
)
from .laurent import (
    LaurentPoly,
    NewtonPolytope,
    evaluate,
    fiber_restrict,
    newton_polytope,
)
from .parsing import format_poly, parse_poly
from .fiber import (
    FiberSolution,
    PointClass,
    classify,
    fiber_solutions,
    lopsided,
    order,
)
from .contour import ContourPoint, classify_contour, contour_slice, trace_contour
from .linear import (
    AmoebaBasis,
    BasisReport,
    amoeba_basis,
    linear_classify,
    verify_basis,
)
from .raster import (
    Raster,
    amoeba_grids,
    cell_walls,
)

__all__ = [
    "__version__",
    "AmoebaError", "AxiomFailure", "DegenerateFiber", "DegenerateSlice",
    "EmptyInput", "IdenticallyZero", "InconsistentOrder", "NoConvergence",
    "NotLinear", "Overflow", "ParseError", "PolySyntaxError", "SingularMatrix",
    "UnknownVariable", "ZeroCoordinate",
    "LaurentPoly", "NewtonPolytope",
    "evaluate", "fiber_restrict",
    "newton_polytope",
    "format_poly", "parse_poly",
    "FiberSolution", "PointClass", "classify", "fiber_solutions",
    "lopsided", "order",
    "ContourPoint", "classify_contour", "contour_slice", "trace_contour",
    "AmoebaBasis", "BasisReport", "amoeba_basis",
    "linear_classify", "verify_basis",
    "Raster", "amoeba_grids", "cell_walls",
]
