"""Exception types shared across the package."""


class VCStreamError(Exception):
    """Base class for all package errors."""


class ParseError(VCStreamError):
    """Malformed instance or family file."""


class DuplicateEdge(VCStreamError):
    pass


class InvalidCover(VCStreamError):
    """Declared cover leaves some edge uncovered."""


class BadPermutation(VCStreamError):
    pass


class BadParams(VCStreamError):
    pass


class NotALModel(VCStreamError):
    """Operation requires an adjacency-list stream."""


class NeighborOutsideCover(VCStreamError):
    pass


class DimensionMismatch(VCStreamError):
    pass


class BadI(VCStreamError):
    pass


class PreconditionViolated(VCStreamError):
    pass


class TooLarge(VCStreamError):
    """Input exceeds the size guard of an exhaustive reference routine."""


class NotDegreeTwo(VCStreamError):
    pass


class HTooSmall(VCStreamError):
    pass


class OracleFault(VCStreamError):
    """Wrapped oracle consumed a pass count different from its declaration."""


class MemoryBudgetExceeded(VCStreamError):
    pass


class MeterUnderflow(VCStreamError):
    """More words released than were allocated."""
