"""Exception types shared across the package.

Plain ``ValueError`` is used for ordinary input validation; the classes here
exist where callers plausibly branch on the failure kind.
"""


class TableParseError(ValueError):
    """Malformed function-table text. ``position`` is the failing entry index,
    or None when the entry count itself is wrong."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class NotSplitError(ValueError):
    """A splitting-case operation was applied to a structure that does not
    consist of exactly two components."""


class TheoremViolationError(RuntimeError):
    """A structural guarantee failed to verify on valid input; this indicates
    a bug in the library, never a property of the input."""


class SearchBudgetError(RuntimeError):
    """The requested search or enumeration exceeds its budget."""
