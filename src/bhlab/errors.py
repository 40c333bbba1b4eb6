"""Exception types shared across the package."""


class BhLabError(Exception):
    """Base class for all package-specific errors."""


class NotAPrimePower(BhLabError):
    pass


class ZeroTarget(BhLabError):
    pass


class NotAGenerator(BhLabError):
    pass


class DegenerateModulus(BhLabError):
    pass


class CharacteristicTooSmall(BhLabError):
    pass


class NonPrimeFieldUnsupported(BhLabError):
    pass


class CapExceeded(BhLabError):
    pass


class InvalidParams(BhLabError):
    pass


class InvalidDistribution(InvalidParams):
    pass


class EmptyFamily(BhLabError):
    pass


class Infeasible(BhLabError):
    pass
