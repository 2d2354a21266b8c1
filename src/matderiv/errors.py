"""Exception types shared by every module.

All library errors derive from :class:`MatDerivError` so callers can catch
the whole family with one clause.  The CLI maps these onto exit codes.
"""

from __future__ import annotations


class MatDerivError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(MatDerivError):
    """Operand dimensions are incompatible or an array has the wrong rank."""


class ContractError(MatDerivError):
    """A documented precondition was violated (asymmetric input, cross-tape
    mixing, odd step counts, size caps, non-finite data, ...)."""


class DomainError(MatDerivError):
    """Input outside the mathematical domain of an operation (log of a
    non-positive primal, division by a zero primal, zero vector where a
    direction is required)."""


class DivisionByZeroError(DomainError, ZeroDivisionError):
    """Division by a zero primal in forward or reverse mode; also a
    ZeroDivisionError, so one clause catches it as it catches float
    division by zero."""


class SingularMatrixError(MatDerivError):
    """Elimination hit a pivot below tolerance, or a denominator vanished.

    ``pivot_index`` records the failing elimination step when applicable.
    """

    def __init__(self, msg: str, pivot_index: int | None = None):
        super().__init__(msg)
        self.pivot_index = pivot_index


class ConvergenceError(MatDerivError):
    """An iteration exhausted its budget. ``last`` holds the final iterate."""

    def __init__(self, msg: str, last=None):
        super().__init__(msg)
        self.last = last


class DegenerateEigenvaluesError(MatDerivError):
    """Eigenvalue gap below the perturbation-theory threshold."""


class BlowUpError(MatDerivError):
    """Time integration produced a non-finite state. ``step_index`` is the
    step at which it happened."""

    def __init__(self, msg: str, step_index: int | None = None):
        super().__init__(msg)
        self.step_index = step_index
