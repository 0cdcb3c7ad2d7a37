"""Exception types shared across the library."""


class TrimodError(Exception):
    """Base class for all library errors."""


class RingSpecError(TrimodError):
    """A ring description failed validation."""


class AssociativityViolation(RingSpecError):
    def __init__(self, i, j, k):
        self.indices = (i, j, k)
        super().__init__(f"associativity fails on basis triple ({i}, {j}, {k})")


class CommutativityViolation(RingSpecError):
    def __init__(self, i, j):
        self.indices = (i, j)
        super().__init__(f"graded commutativity fails on basis pair ({i}, {j})")


class DegreeMismatch(RingSpecError):
    pass


class NoUnit(RingSpecError):
    pass


class UnsupportedCoefficients(TrimodError):
    pass


class NotSemiperfect(TrimodError):
    pass


class NotLocal(TrimodError):
    pass


class NotLocalInput(TrimodError):
    pass


class SizeCapExceeded(TrimodError):
    pass


class IllFormedMap(TrimodError):
    pass


class NotQuasiFrobenius(TrimodError):
    pass


class ParityObstruction(TrimodError):
    pass


class WeightOverflow(TrimodError):
    pass


class WindowTooWideForWeightBound(TrimodError):
    pass


class NotChainMap(TrimodError):
    pass


class LiftFailure(TrimodError):
    pass


class ShapeMismatch(TrimodError):
    pass


class WindowEmpty(TrimodError):
    pass


class ParseError(TrimodError):
    def __init__(self, message, path=None):
        self.path = path
        super().__init__(message if path is None else f"{path}: {message}")
