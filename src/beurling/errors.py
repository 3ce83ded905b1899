class BeurlingError(Exception):
    """Base class for all errors raised by this package."""


class GridMismatchError(BeurlingError):
    """Two measures with different lattices were combined."""


class RangeError(BeurlingError):
    """An evaluation point or limit lies outside the lattice range."""


class ConstructionError(BeurlingError):
    """A built number system failed its defining invariants."""


class FitError(BeurlingError):
    """A least-squares fit could not be carried out."""


class ConfigError(BeurlingError):
    """Text that could not be read, parsed or compiled: a config file, a
    density expression, a command-line value.  A parsed value that a
    library rule refuses is a ParameterError."""


class ParameterError(BeurlingError, ValueError):
    """A numerical parameter (grid step, grid size, ...) is out of range."""
