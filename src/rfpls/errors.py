"""Exception and warning classes shared by the library and the command line tool."""


class RfplsError(Exception):
    """Base class for errors raised by this package."""


class InputError(RfplsError):
    """A user-supplied file or table cannot be parsed or is inconsistent."""


class ConfigError(RfplsError):
    """An experiment configuration is malformed or has invalid values."""


class NumericalError(RfplsError):
    """Base class for numerical breakdowns during estimation."""


class DegenerateScaleError(NumericalError):
    """A residual or distance scale estimate is zero where a division is required."""


class BreakdownError(NumericalError):
    """A weighted fit retains too few effective observations to continue."""


class EfficiencyUndefinedError(NumericalError):
    """The efficiency factor is undefined because every residual was rejected."""


class SpatialMedianCapWarning(RuntimeWarning):
    """``l1_median`` stopped at its iteration cap before its step fell below tolerance."""
