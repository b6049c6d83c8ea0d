"""Exception types shared across the package.

Distinguishes input mistakes (bad arguments, malformed patterns) from sequencing
mistakes (valid objects used in an invalid order) and from internal contract
violations, so callers and the CLI can map them to exit codes.
"""

from __future__ import annotations


class InputError(ValueError):
    """A caller-supplied value violates a documented precondition."""


class StructuralError(ValueError):
    """A pattern or its parts are malformed (duplicate edge, bad role, loose reference)."""


class SequencingError(RuntimeError):
    """Valid objects used in an invalid order (measuring a removed qubit, ...)."""


class ContractViolation(AssertionError):
    """An internal invariant failed; indicates a bug, not a usage error."""


class DegenerateBranchError(RuntimeError):
    """A forced measurement branch has (numerically) zero probability."""


class EstimationError(ArithmeticError):
    """A resource estimate is undefined for the given parameters (bound collapsed)."""
