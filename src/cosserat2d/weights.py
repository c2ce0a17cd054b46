"""Material weight pairs and the rescaling onto the two limit cases.

A weight pair (mu, muc) is classical when muc >= mu and non-classical when
mu > muc. Non-classical pairs reduce to the zero-couple-modulus limit by
shrinking the deformation gradient with the scaling parameter; classical
pairs reduce to the equal-weights limit, where the polar factor is the
unique minimizer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .errors import RequiresNonClassical
from .planar import Mat2, _isfinite, require_gl_plus


class Regime(enum.Enum):
    CLASSICAL = "classical"
    NON_CLASSICAL = "non_classical"


# On CPython 3.11 a member lookup such as Regime.CLASSICAL takes about 120 ns,
# against 35 ns for a plain class attribute, because EnumType defines
# __getattr__; the per-call paths here, in energy and in minimizers compare
# against members bound once at import (Branch's are bound in energy).
_REGIME_CLASSICAL = Regime.CLASSICAL
_REGIME_NON_CLASSICAL = Regime.NON_CLASSICAL


class _DerivedWeights:
    # Slots outside the dataclass fields, fixed by Weights.__init__: the regime and,
    # for a non-classical pair, the singular radius 2*lam (else None); scaling()
    # halves it exactly, as 1 <= lam <= 2**53.
    __slots__ = ("regime", "_radius")


@dataclass(frozen=True, slots=True, init=False)
class Weights(_DerivedWeights):
    """Shear modulus mu > 0 and couple modulus muc >= 0.

    Immutable; the regime (classical iff muc >= mu, non-classical iff
    mu > muc) and the scaling parameter are fixed at construction.
    """

    mu: float
    muc: float = 0.0

    def __init__(self, mu: float, muc: float = 0.0):
        mu_f, muc_f = float(mu), float(muc)
        if not (_isfinite(mu_f) and mu_f > 0.0):
            raise ValueError(f"mu must be finite and positive, got {mu!r}")
        if not (_isfinite(muc_f) and muc_f >= 0.0):
            raise ValueError(f"muc must be finite and nonnegative, got {muc!r}")
        _set_mu(self, mu_f)
        _set_muc(self, muc_f)
        if muc_f >= mu_f:
            _set_regime(self, _REGIME_CLASSICAL)
            _set_radius(self, None)
        else:
            _set_regime(self, _REGIME_NON_CLASSICAL)
            _set_radius(self, 2.0 * (mu_f / (mu_f - muc_f)))

    def __reduce__(self):
        # pickle and copy rebuild through __init__, which fixes the derived slots
        return type(self), (self.mu, self.muc)

    def scaling(self) -> float:
        """Scaling parameter mu / (mu - muc) >= 1; requires mu > muc."""
        if self._radius is None:
            raise RequiresNonClassical(
                f"scaling parameter needs mu > muc, got mu={self.mu}, muc={self.muc}"
            )
        return 0.5 * self._radius

    def singular_radius(self) -> float:
        """Bifurcation threshold 2*mu / (mu - muc) on the stretch trace.

        Kept as exactly twice the scaling parameter so the bifurcation
        predicate is bit-identical everywhere it is evaluated.
        """
        self.scaling()  # raises RequiresNonClassical for a classical pair
        return self._radius


# The slot descriptors' setters store past the frozen __setattr__.
_set_mu, _set_muc = (Weights.__dict__[name].__set__ for name in ("mu", "muc"))
_set_regime = _DerivedWeights.regime.__set__
_set_radius = _DerivedWeights._radius.__set__

# The zero-couple-modulus limit pair, onto which non-classical pairs reduce.
_ZERO_COUPLE = Weights(1.0, 0.0)


class ReductionData(NamedTuple):
    """Stored rescaling data: singular radius, scaling parameter and the

    shrunk deformation gradient. rho == 2 * lam holds exactly.
    """

    rho: float
    lam: float
    ftilde: Mat2


def reduction_data(f: Mat2, w: Weights) -> ReductionData:
    """Rescaling that maps (f, w) onto the zero-couple-modulus limit case."""
    require_gl_plus(f)
    lam = w.scaling()
    return ReductionData(rho=w.singular_radius(), lam=lam, ftilde=(1.0 / lam) * f)
