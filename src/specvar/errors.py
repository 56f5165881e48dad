"""Exception types shared across the package."""


class UnsupportedPointError(ValueError):
    """A formula's standing hypothesis fails at the evaluation point.

    The message names the violated hypothesis so callers (and the CLI exit
    path) can report it verbatim.
    """


class InvalidSubgradientError(ValueError):
    """A purported subgradient fails the membership test."""


class EigenSolveError(RuntimeError):
    """The dense symmetric eigensolver failed to converge."""


class OracleError(ValueError):
    """A brute-force oracle had no grid level or no finite value to use."""
