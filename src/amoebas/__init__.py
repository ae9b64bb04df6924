"""Amoebas of complex Laurent polynomials.

Exact-arithmetic-free but certificate-driven computation of amoebas in
two variables: fiber membership, four-way point classification, order
and lopsidedness certificates, contour tracing through the logarithmic
Gauss map, Betti and classification rasters, and amoeba bases for
full-rank linear systems.

Each exported name is imported from its home module on first use, so
``import amoebas`` loads neither numpy nor any solver module.
"""

import importlib

__version__ = "0.1.0"

# home module -> the names it exports, in the order of __all__
_EXPORTS = {
    "errors": (
        "AmoebaError", "AxiomFailure", "DegenerateFiber", "DegenerateSlice",
        "EmptyInput", "InconsistentOrder", "NoConvergence", "NotLinear", "Overflow",
        "ParseError", "PolySyntaxError", "SingularMatrix", "UnknownVariable", "ZeroCoordinate",
    ),
    "laurent": ("LaurentPoly", "NewtonPolytope", "evaluate", "fiber_restrict", "newton_polytope"),
    "parsing": ("format_poly", "parse_poly"),
    "fiber": ("FiberSolution", "PointClass", "classify", "fiber_solutions", "lopsided", "order"),
    "contour": ("ContourPoint", "classify_contour", "contour_slice", "trace_contour"),
    "linear": ("AmoebaBasis", "BasisReport", "amoeba_basis", "linear_classify", "verify_basis"),
    "raster": ("Raster", "amoeba_grids", "cell_walls"),
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    """Import the home module of an exported name and bind the name here, once."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
