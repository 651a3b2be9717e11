"""Exception and warning classes shared by the library and the command line tool."""


class RfplsError(Exception):
    """Base class for errors raised by this package."""


class InputError(RfplsError):
    """A user-supplied file or table cannot be parsed or is inconsistent."""


class ConfigError(RfplsError):
    """An experiment configuration is malformed or has invalid values."""


class NumericalError(RfplsError):
    """Estimation broke down on the data: a zero scale, too few weighted cases, no component."""


class SpatialMedianCapWarning(RuntimeWarning):
    """``l1_median`` stopped at its iteration cap before its step fell below tolerance."""
