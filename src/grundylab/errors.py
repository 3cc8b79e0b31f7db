"""Exception types shared across the library.

Bad input raises ValueError; these are the outcomes a caller tells apart
from it: a size cap (exit 3 in the CLI) and a wall-time budget (also exit 3).
"""


class GrundylabError(Exception):
    """Base class for all library-specific errors."""


class TooLargeError(GrundylabError):
    """A constructor, solver or inductive oracle would exceed its size cap."""


class BudgetExceededError(GrundylabError):
    """A computation ran past its configured wall-time budget."""
