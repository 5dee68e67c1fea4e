"""Exception types shared across the package."""


class GsqgError(Exception):
    """Base class for all solver-lab errors."""


class ParameterError(GsqgError, ValueError):
    """A scalar parameter violates its admissible range."""


class DomainError(GsqgError, ValueError):
    """Field support or grid violates a domain requirement."""


class DegenerateInputError(GsqgError, ValueError):
    """Operation undefined on this input (e.g. center of mass of a zero field)."""


class DegenerateConstantError(GsqgError, ValueError):
    """Structural-constant formulas blow up at this (s, p)."""


class BracketError(GsqgError, RuntimeError):
    """The safeguarded Newton multiplier solve found no multiplier whose
    mass exceeds kappa, so the mass constraint has no bracket."""


class ConvergenceError(GsqgError, RuntimeError):
    """Iteration did not converge within its budget."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class DomainTooSmallError(GsqgError, RuntimeError):
    """Computed support touches the domain boundary; enlarge the grid."""


class RegimeError(GsqgError, ValueError):
    """Operation only defined in the p > 1 regime."""


class FieldFormatError(GsqgError, ValueError):
    """Malformed field file."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
