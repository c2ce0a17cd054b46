"""Material weight pairs and the rescaling onto the two limit cases.

A weight pair (mu, muc) is classical when muc >= mu and non-classical when
mu > muc. Non-classical pairs reduce to the zero-couple-modulus limit by
shrinking the deformation gradient with the scaling parameter; classical
pairs reduce to the equal-weights limit, where the polar factor is the
unique minimizer.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import RequiresNonClassical
from .planar import Mat2, require_gl_plus, trace_invariants


class Regime(enum.Enum):
    CLASSICAL = "classical"
    NON_CLASSICAL = "non_classical"


@dataclass(frozen=True)
class Weights:
    """Shear modulus mu > 0 and couple modulus muc >= 0."""

    mu: float
    muc: float = 0.0

    def __post_init__(self):
        mu, muc = float(self.mu), float(self.muc)
        if not (math.isfinite(mu) and mu > 0.0):
            raise ValueError(f"mu must be finite and positive, got {self.mu!r}")
        if not (math.isfinite(muc) and muc >= 0.0):
            raise ValueError(f"muc must be finite and nonnegative, got {self.muc!r}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "muc", muc)

    @property
    def regime(self) -> Regime:
        """Classical iff muc >= mu, non-classical iff mu > muc."""
        return Regime.CLASSICAL if self.muc >= self.mu else Regime.NON_CLASSICAL

    def scaling(self) -> float:
        """Scaling parameter mu / (mu - muc) >= 1; requires mu > muc."""
        if self.regime is Regime.CLASSICAL:
            raise RequiresNonClassical(
                f"scaling parameter needs mu > muc, got mu={self.mu}, muc={self.muc}"
            )
        return self.mu / (self.mu - self.muc)

    def singular_radius(self) -> float:
        """Bifurcation threshold 2*mu / (mu - muc) on the stretch trace.

        Kept as exactly twice the scaling parameter so the bifurcation
        predicate is bit-identical everywhere it is evaluated.
        """
        return 2.0 * self.scaling()


@dataclass(frozen=True)
class ReductionData:
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
    return ReductionData(rho=2.0 * lam, lam=lam, ftilde=(1.0 / lam) * f)


def rescaled_stretch_trace(f: Mat2, w: Weights) -> float:
    """Stretch trace of the shrunk gradient, tr U / lam.

    The bifurcation predicate is invariant under the rescaling:
    tr U >= rho exactly when the rescaled trace is >= 2.
    """
    lam = w.scaling()
    return trace_invariants(f).tr_u / lam
