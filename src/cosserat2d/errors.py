"""Exception types shared across the package."""


class PlanarCosseratError(ValueError):
    """Base class for all domain errors raised by this package."""


class NonPositiveDeterminant(PlanarCosseratError):
    """A deformation gradient left the admissible set det F > 0."""


class NotARotation(PlanarCosseratError):
    """A matrix passed as a rotation failed the SO(2) membership check."""


class RequiresNonClassical(PlanarCosseratError):
    """An operation defined only for mu > muc received classical weights."""


class NonPositiveSingularValue(PlanarCosseratError):
    """A singular value was zero, negative, or non-finite."""


class LogUndefined(PlanarCosseratError):
    """The principal matrix logarithm does not exist (eigenvalue on (-inf, 0])."""


class NonFiniteEnergy(PlanarCosseratError):
    """An energy evaluation produced NaN or infinity."""
