"""Exception types shared across the library.

Bad input raises ValueError; these are the outcomes a caller tells apart
from it: a size cap (exit 3 in the CLI) and a wall-time budget (also exit 3).
"""


class GrundylabError(Exception):
    """Base class for all library-specific errors."""


class TooLargeError(GrundylabError):
    """Past a size cap: the CLI's spec, row or byte cap, or a brute-force or inductive oracle's."""


class BudgetExceededError(GrundylabError):
    """A computation ran past its configured wall-time budget."""
