"""Exception types shared across the package."""


class CfdimError(Exception):
    """Base class for all package-specific errors."""


class InputOutOfRange(CfdimError):
    """A value outside its documented range: an input or parameter outside
    every branch of a piecewise formula, a target digit that never occurs in
    the sequence, or a tail window that holds no index."""


class Overflow(CfdimError):
    """A partial quotient exceeds machine-word magnitude."""


class Exhausted(CfdimError):
    """Requested digits beyond the certified prefix of a sequence."""


class InsufficientBlocks(CfdimError):
    """Fewer record blocks than required for an estimate."""


class NoConvergence(CfdimError):
    """Iterative solver failed to converge within its cap."""


class Inadmissible(CfdimError):
    """Digit prefix violates the constrained-run pattern."""
