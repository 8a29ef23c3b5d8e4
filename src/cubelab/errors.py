"""Error types shared across the package.

The CLI maps these onto exit codes: parameter errors exit 2, capability
(dimension-cap) errors exit 3, numerical errors and certificate failures
exit 1. Each typed error prints one line to stderr.
"""

from __future__ import annotations


class ParameterError(ValueError):
    """An argument is outside the domain a routine accepts."""


class CapabilityError(RuntimeError):
    """The request exceeds a documented dimension cap of an exact routine."""


class NumericalError(RuntimeError):
    """A numerical routine cannot give a trustworthy result: a reducible
    kernel, a failed eigensolver or LP, a direct solve that lost its
    precision, a kernel, or a target's log weights or tilt table
    x_i s(x)_i, that breaks a declared symmetry.

    Attributes:
        residual: The size of the failure, when known.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual
