"""Exception types shared across the toolkit.

Validation-type errors double as ValueError so callers that only know
standard Python still catch them sensibly.
"""


class MomentKitError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(MomentKitError, ValueError):
    """Malformed or inconsistent input data."""


class SolvabilityError(MomentKitError):
    """The block Hankel matrix is indefinite beyond tolerance."""


class ShiftConsistencyError(MomentKitError):
    """The truncated sequence is not shift-consistent.

    The ambient shift maps a kernel vector of the Gram matrix (supported on
    degrees <= n-1) outside the kernel, so the shift operator is not
    well-defined on the quotient space.
    """

    def __init__(self, residual):
        self.residual = float(residual)
        super().__init__(
            "truncated sequence not shift-consistent "
            f"(kernel shift residual {self.residual:.3e})"
        )


class ParameterError(MomentKitError, ValueError):
    """A Schur parameter has the wrong shape or is not (unitary-)contractive."""


class DomainError(MomentKitError, ValueError):
    """Evaluation point outside C+, or at i for the paper's form (`blocks`, `direct_oracle`)."""


class ConditioningError(MomentKitError):
    """A linear system exceeded the condition-number threshold."""

    def __init__(self, message, cond=None):
        self.cond = None if cond is None else float(cond)
        if cond is not None:
            message = f"{message} (cond {self.cond:.3e})"
        super().__init__(message)


class IndeterminateError(MomentKitError):
    """Requested the determinate-only branch on an indeterminate truncation."""


class ConsistencyError(MomentKitError):
    """An internal numerical consistency assertion failed."""
