"""Exception types shared across the library."""


class GrundylabError(Exception):
    """Base class for all library-specific errors."""


class CapExceededError(GrundylabError):
    """An inductive oracle was asked for inputs above its configured cap."""


class TooLargeError(GrundylabError):
    """A constructor or solver would exceed its configured size cap."""


class BudgetExceededError(GrundylabError):
    """A computation ran past its configured wall-time budget."""


class UnsupportedFieldError(GrundylabError):
    """Requested field order is not a supported prime power."""


class NotGradedError(GrundylabError):
    """The poset admits no rank function."""


class NoMinimumError(GrundylabError):
    """The poset has no unique minimum element."""


class NotADivisorError(GrundylabError):
    """The queried element is not a divisor of the poset's modulus."""


class WeightMismatchError(GrundylabError):
    """Two integer partitions do not partition the same number."""


class PosetValidationError(GrundylabError):
    """The supplied relation violates the partial-order axioms."""
