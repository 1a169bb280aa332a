"""Exception types shared across the package."""


class CurvspecError(Exception):
    """Base class for domain errors raised by this package."""


class InvariantViolation(CurvspecError):
    """A structural requirement on input data failed (non-free group action,
    lattice not preserved, coset system not closed, torsion, ...)."""


class IntegralityError(CurvspecError):
    """A quantity that must be a nonnegative integer came out otherwise, or
    an exact count found its input without the structure it relies on."""
