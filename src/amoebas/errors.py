"""Exception types shared across the package.

Every error raised by the library derives from :class:`AmoebaError`, and
each family declares here, as ``exit_code``, the exit status of the
command line driver: 1 for a failed basis verification (and any other
AmoebaError), 2 for parse errors, 3 for degenerate inputs and 4 for
numeric non-convergence.  A subclass inherits its family's code.
"""


class AmoebaError(Exception):
    """Base class for all library errors."""
    exit_code = 1


# ---------------------------------------------------------------- parsing

class ParseError(AmoebaError):
    """Base for expression-parsing failures; carries a byte span."""
    exit_code = 2

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
    exit_code = 3


class Overflow(AmoebaError):
    """Exponent or degree data exceeds what the program can represent or hold."""
    exit_code = 3


# ---------------------------------------------------------- numeric kernel

class SingularMatrix(AmoebaError):
    """A matrix is singular: its smallest singular value is at most 1e-12 times its largest."""
    exit_code = 3


class NoConvergence(AmoebaError):
    """An iteration hit its cap before meeting its tolerance."""
    exit_code = 4


class IdenticallyZero(AmoebaError):
    """A resultant vanished at every sample node (common component)."""
    exit_code = 3


# ------------------------------------------------------------ fiber oracle

class DegenerateFiber(AmoebaError):
    """The fiber intersection is not a finite point set."""
    exit_code = 3


class InconsistentOrder(AmoebaError):
    """Winding counts disagree across validation angles (w too close to the amoeba)."""
    exit_code = 4


# ----------------------------------------------------------- contour tracer

class DegenerateSlice(AmoebaError):
    """A contour slice produced an identically zero resultant."""
    exit_code = 3


# ------------------------------------------------------------ linear amoeba

class NotLinear(AmoebaError):
    """Input polynomial is not of the form c0 + sum_j b_j z_j with c0 != 0."""
    exit_code = 3


class AxiomFailure(AmoebaError):
    """A basis verification axiom failed; carries the axiom id and a witness."""

    def __init__(self, message, axiom=None, witness=None):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness
