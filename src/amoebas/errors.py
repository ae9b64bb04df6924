"""Exception types shared across the package.

Every error raised by the library derives from :class:`AmoebaError`, so
callers (and the command line driver) can map failure families to exit
codes without string matching.
"""


class AmoebaError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------- parsing

class ParseError(AmoebaError):
    """Base for expression-parsing failures; carries a byte span."""

    def __init__(self, message, span=None):
        super().__init__(message)
        self.span = span


class PolySyntaxError(ParseError):
    """Input violates the expression grammar."""


class UnknownVariable(ParseError):
    """A variable index exceeds the declared number of variables."""


class EmptyInput(ParseError):
    """The expression contains no terms."""


# ----------------------------------------------------------- laurent core

class ZeroCoordinate(AmoebaError):
    """A coordinate is zero (or numerically zero) where a nonzero one is required."""


class Overflow(AmoebaError):
    """Exponent data exceeds the representable range even after normalization."""


# ---------------------------------------------------------- numeric kernel

class SingularMatrix(AmoebaError):
    """A pivot fell below the singularity threshold during elimination."""


class NoConvergence(AmoebaError):
    """An iteration hit its cap before meeting its tolerance."""


class IdenticallyZero(AmoebaError):
    """A resultant vanished at every sample node (common component)."""


# ------------------------------------------------------------ fiber oracle

class DegenerateFiber(AmoebaError):
    """The fiber intersection is not a finite point set."""


class InconsistentOrder(AmoebaError):
    """Winding counts disagree across validation angles (w too close to the amoeba)."""


# ----------------------------------------------------------- contour tracer

class DegenerateSlice(AmoebaError):
    """A contour slice produced an identically zero resultant."""


# ------------------------------------------------------------ linear amoeba

class NotLinear(AmoebaError):
    """Input polynomial is not of the form c0 + sum_j b_j z_j with c0 != 0."""


class AxiomFailure(AmoebaError):
    """A basis verification axiom failed; carries the axiom id and a witness."""

    def __init__(self, message, axiom=None, witness=None):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness
