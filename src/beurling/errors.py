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
    """A system description file is malformed."""


class ParameterError(BeurlingError, ValueError):
    """A numerical parameter (grid step, grid size, ...) is out of range."""
