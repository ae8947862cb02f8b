"""Exception types shared across the package."""


class SuperellipticError(Exception):
    """Base class for all package errors."""


class WordSyntaxError(SuperellipticError, ValueError):
    """A word, curve or generator expression failed to parse."""


class ContextMismatchError(SuperellipticError, ValueError):
    """Two values built over different contexts were combined."""


class BudgetError(SuperellipticError, RuntimeError):
    """A word to act on exceeded the configured letter budget.

    For the coordinate oracle that is the cyclic core it acts on (in the
    sphere group, of the rewrite of the cyclic core of ``u v^-1``); for the
    free-group action, any intermediate free word.

    Raised instead of silently truncating; callers may retry with a larger
    budget (``--budget-letters``, or the ``budget`` argument in Python).
    """


class DoesNotLiftError(SuperellipticError, ValueError):
    """A curve with nonzero monodromy was asked for its lifts."""
