"""The error taxonomy: every error the package raises is an ``RtsError``.

A module of its own, with no import, so that a command that only checks
input and reports errors, such as ``rts report``, loads neither numpy's
random module nor the solver; ``core`` re-exports every name.
"""


class RtsError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(RtsError, ValueError):
    """A latent or configuration has an unusable dimension."""


class NonFiniteError(RtsError, ValueError):
    """A NaN or infinity appeared where a finite value is required."""


class PreconditionError(RtsError, ValueError):
    """An argument violates a documented precondition."""


class _DegenerateRows(RtsError, ArithmeticError):
    """A direction collapsed below numerical tolerance; ``rows``, a boolean mask, marks the rows that did."""

    def __init__(self, message: str, rows=None) -> None:
        super().__init__(message)
        self.rows = rows


class DegeneratePerturbationError(_DegenerateRows):
    """A tangential perturbation collapsed below numerical tolerance."""


class DegenerateGradientError(_DegenerateRows):
    """A guidance gradient has no usable tangential component; for a block, ``rows`` marks the seeds whose has none."""


class BudgetError(RtsError, RuntimeError):
    """An evaluation budget is too small for the requested operation."""


class ConfigError(RtsError, ValueError):
    """A run configuration is malformed."""
