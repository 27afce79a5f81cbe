"""Exception types shared across the package."""


class CfdimError(Exception):
    """Base class for all package-specific errors."""


class InputOutOfRange(CfdimError):
    """Input value or parameter outside its documented range."""


class Overflow(CfdimError):
    """A partial quotient exceeds machine-word magnitude."""


class Exhausted(CfdimError):
    """Requested digits beyond the certified prefix of a sequence."""


class NoBlocks(CfdimError):
    """The target digit never occurs in the sequence."""


class InsufficientBlocks(CfdimError):
    """Fewer record blocks than required for an estimate."""


class EmptyWindow(CfdimError):
    """Tail window contains no index."""


class BudgetExceeded(CfdimError):
    """Enumeration would exceed the configured node budget."""


class NoConvergence(CfdimError):
    """Iterative solver failed to converge within its cap."""


class OutOfRange(CfdimError):
    """Parameter outside every branch of a piecewise formula."""


class Inadmissible(CfdimError):
    """Digit prefix violates the constrained-run pattern."""
