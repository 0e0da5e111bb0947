"""Exception types shared across the package."""


class InputError(ValueError):
    """Invalid user-supplied data (bad rationals, dimensions, ranges)."""


class MalformedRational(InputError):
    """A rational literal that is not of the form ``n`` or ``p/q``."""


class DimensionMismatch(InputError):
    """Vector or matrix dimensions do not agree."""


class NotInLattice(InputError):
    """A vector required to be a lattice element is not one."""


class NotPrimitive(InputError):
    """A lattice vector required to be primitive is a proper multiple.

    ``scale`` is the largest k such that x/k stays in the lattice.
    """

    def __init__(self, message: str, scale: int):
        super().__init__(message)
        self.scale = scale


class NotLogCanonical(InputError):
    """A state that must be log canonical has a negative value somewhere."""


class AlreadyFlat(InputError):
    """The operation requires a germ that is not yet flat."""


class CheckFailed(Exception):
    """A verification run found a counterexample."""


class ModelViolation(RuntimeError):
    """An internal invariant failed; indicates a bug, not bad input."""


class ResourceLimit(RuntimeError):
    """An explicit cap (row count, step count) was exceeded."""
