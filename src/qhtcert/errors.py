"""Exception types raised by the certification toolkit.

Validation errors carry the measured residual of the violated invariant so
callers (and test logs) can see how far an input was from admissible.  The
one check of integer inputs (counts, seeds, dimensions) lives here too, where
every module can import it.
"""

from __future__ import annotations

import numbers


def _check_count(value, least: float, message: str) -> None:
    """Raise ValueError(message.format(value)) unless value is an integer
    (a numpy one too, but not a bool) >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(message.format(value))


class QhtcertError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(QhtcertError):
    """An input violated a structural invariant.

    Attributes:
        residual: magnitude of the violation (absolute, same scale as the
            checked quantity), or None when not meaningful.
    """

    def __init__(self, message: str, residual: float | None = None):
        if residual is not None:
            message = f"{message} (residual {residual:.3e})"
        super().__init__(message)
        self.residual = residual


class NotHermitian(ValidationError):
    """Matrix is not Hermitian within tolerance."""


class TraceNotOne(ValidationError):
    """Matrix trace differs from one beyond tolerance."""


class NotPSD(ValidationError):
    """Matrix has an eigenvalue below -tolerance."""


class NotTracePreserving(ValidationError):
    """Kraus operators do not satisfy sum_i K_i^dag K_i = 1."""


class DimMismatch(QhtcertError):
    """Operands act on spaces of incompatible dimension."""


class NegativeT(QhtcertError):
    """The scalar t in the signed decomposition of rho - t*sigma must be finite and >= 0."""


class InvalidTestOperator(ValidationError):
    """Test operator M violates 0 <= M <= 1 or Hermiticity."""


class InvalidProbabilityOrder(QhtcertError):
    """Class-probability bounds must satisfy 0 <= pB < pA <= 1."""


class SandwichViolated(QhtcertError):
    """The threshold search could not produce a test proven optimal.

    Only ``helstrom`` raises it, when the beta of the test it built exceeds
    the Lagrange dual lower bound by more than 1e-9 or no t <= 2^100 reaches
    the level: a numerical failure of the solver, not a setting to adjust.
    """


class OutOfRegime(QhtcertError):
    """Arguments fall outside the regime in which a bound or formula is valid."""


class RegimeTooLarge(QhtcertError):
    """Brute-force search is restricted to small dimensions (d <= 4)."""
