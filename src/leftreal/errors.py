"""Exception hierarchy shared by all workbench modules."""


class LeftrealError(Exception):
    """Base class for all workbench errors."""


class HorizonExceeded(LeftrealError):
    """A finite view or stream was queried beyond its declared horizon."""


class MonotonicityViolation(LeftrealError):
    """A stream or rate that must be (weakly/strictly) increasing is not."""


class RangeViolation(LeftrealError):
    """A value left its required range (usually [0, 1])."""


class InvalidName(LeftrealError):
    """Partial sums of a dyadic series exceeded 1."""


class NotASet(LeftrealError):
    """An enumerator emitted a duplicate element."""


class PrefixViolation(LeftrealError):
    """Two strings in a supposedly prefix-free set are comparable."""

    def __init__(self, shorter: str, longer: str):
        self.shorter = shorter
        self.longer = longer
        super().__init__(f"prefix violation: {shorter!r} is a prefix of {longer!r}")


class WeightExceeded(LeftrealError):
    """A codeword request would push the committed weight above 1."""


class BudgetGuard(LeftrealError):
    """A budget exceeds the configured safety guard."""


class RateError(LeftrealError):
    """A rate function violates a precondition (growth or start value)."""


class PreconditionRefuted(LeftrealError):
    """A certified-input precondition failed its budgeted check."""


class DegenerateMachine(LeftrealError):
    """A finite machine violates a strictness property that holds for
    machines with infinite domain (e.g. a complete finite prefix code)."""


class LevelEmpty(LeftrealError):
    """A test-family level needed for a rate read-off has no strings."""

    def __init__(self, level: int):
        self.level = level
        super().__init__(f"level {level} is empty; rate undefined there")


class DisjointnessViolation(LeftrealError):
    """Blocks that must be pairwise disjoint overlap."""


class InsufficientElements(LeftrealError):
    """A view does not contain enough elements for the requested check."""
