"""Exception types shared across the package.

The CLI maps these onto its exit-code contract (see cli.py):
DomainError -> 2, ParseError -> 3, BudgetError -> 4, NonAdmissibleError and
InternalInvariantError -> 5.
"""


class CyclicZetaError(Exception):
    """Base class for all package errors."""


class DomainError(CyclicZetaError):
    """Arguments lie outside the required convergence domain."""


class ParseError(CyclicZetaError):
    """A serialized shape/argument/exponent string could not be parsed."""


class BudgetError(CyclicZetaError):
    """A configured resource cap (cutoff, weight, matrix size) was exceeded."""


class NonAdmissibleError(CyclicZetaError):
    """A decomposition produced a divergent (non-admissible) symbol.

    Carries the offending ordered set partition and the raw parts so the
    caller can report exactly which case split failed.
    """

    def __init__(self, message, partition=None, parts=None):
        super().__init__(message)
        self.partition = partition
        self.parts = parts


class InternalInvariantError(CyclicZetaError):
    """A state the implementation treats as unreachable was reached."""
