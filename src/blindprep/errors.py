"""Exception types shared across the package, one per way a caller handles it.

- InputError: a caller mistake (bad flag, config or argument, malformed
  pattern, a valid object used out of order); the CLI prints one `error:`
  line and exits 1.
- EstimationError: a resource estimate is undefined; the sweep writes an NA row.
- DegenerateBranchError: a forced branch is impossible; enumerate_branches
  prunes its subtree.
- ContractViolation: an internal invariant failed, such as the one norm check
  at run time (a measurement's p0 + p1 is not 1); a bug, so it keeps its traceback.
"""

from __future__ import annotations


class InputError(ValueError):
    """A caller-supplied value violates a documented precondition."""


class ContractViolation(AssertionError):
    """An internal invariant failed; indicates a bug, not a usage error."""


class DegenerateBranchError(RuntimeError):
    """A forced measurement branch has (numerically) zero probability."""


class EstimationError(ArithmeticError):
    """A resource estimate is undefined for the given parameters (bound collapsed)."""
