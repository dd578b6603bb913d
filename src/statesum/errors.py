"""Exception hierarchy.

Two families matter to the CLI exit-code contract:

* ``InvalidInput`` -- malformed or axiom-violating input data (exit 1),
* ``MathPrecondition`` -- well-formed input that fails a mathematical
  precondition such as strong separability (exit 2).
"""


class StateSumError(Exception):
    """Base class for all library errors."""


class InvalidInput(StateSumError):
    """Malformed input: bad files, non-algebras, invalid complexes."""


class MathPrecondition(StateSumError):
    """Valid input rejected by a mathematical precondition."""


# --- algebra construction -------------------------------------------------

class NotAssociativeError(InvalidInput):
    def __init__(self, i, j, k):
        super().__init__(f"structure constants are not associative at basis triple ({i}, {j}, {k})")
        self.witness = (i, j, k)


class BadUnitError(InvalidInput):
    def __init__(self, i, side):
        super().__init__(f"unit law fails on basis element {i} ({side} side)")
        self.witness = (i, side)


class SingularMatrixError(MathPrecondition):
    pass


# --- Frobenius structures -------------------------------------------------

class DegeneratePairingError(MathPrecondition):
    pass


class NotSymmetricError(MathPrecondition):
    pass


class WindowNotInvertibleError(MathPrecondition):
    """The window element is not invertible: the algebra is not strongly separable."""


class NotStronglySeparableError(MathPrecondition):
    pass


class NotCentralError(MathPrecondition):
    pass


class NotInvertibleError(MathPrecondition):
    pass


class NotIdempotentError(MathPrecondition):
    pass


class ArityError(InvalidInput):
    """Iterated (co)multiplication arity out of range (must be >= 1)."""


# --- catalog constructors -------------------------------------------------

class CharDividesOrderError(MathPrecondition):
    pass


class CharDividesBlockError(MathPrecondition):
    pass


class CharDividesStarError(MathPrecondition):
    pass


class ZeroWindowCoefficientError(MathPrecondition):
    pass


# --- complexes and moves --------------------------------------------------

class InvalidComplexError(InvalidInput):
    def __init__(self, violations):
        lines = "; ".join(str(v) for v in violations[:5])
        super().__init__(f"invalid complex: {lines}")
        self.violations = violations


class NotApplicableError(StateSumError):
    """A local move cannot be applied at the requested site."""


# --- state sum ------------------------------------------------------------

class HasBlackBoundaryError(MathPrecondition):
    pass


class SignatureMismatchError(InvalidInput):
    pass


# --- D-brane colouring ----------------------------------------------------

class MissingColourError(InvalidInput):
    pass


class IncompatibleColoursError(InvalidInput):
    pass


# --- files / CLI ----------------------------------------------------------

class FileFormatError(InvalidInput):
    pass


class UnknownCatalogError(InvalidInput):
    pass


def _shown(value) -> str:
    """``repr(value)``, cut short past 40 characters, so that a message names
    what it refuses without echoing a whole command-line argument."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(str(value))} characters)"


# --- dense materialisation ------------------------------------------------

class DenseBudgetError(StateSumError):
    """A dense matrix would exceed ``linalg.DENSE_BUDGET`` cells."""
