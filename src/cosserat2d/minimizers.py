"""Closed-form critical rotations and optimal rotation sets.

Checked calls over energy's float cores. For classical weights the polar
factor is the unique minimizer. For non-classical weights a pitchfork
opens at tr U = singular radius (energy._pitchfork): the minimizer splits
into the symmetric pair alpha_p +/- arccos(rho / tr U). At the threshold
the pair coincides with the polar angle and is still tagged as the
pitchfork branch, keeping the branch map right-continuous in tr U.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .energy import (
    Branch,
    EnergyLevels,
    Profile,
    _cos_sin,
    _optimal_angles,
    _pitchfork,
    critical_energy_levels,
    shear_stretch_energy,
)
from .planar import (
    Mat2,
    normalize_angle,
    polar_angle,
    require_gl_plus,
    rotation,
    trace_invariants,
)
from .weights import _ZERO_COUPLE, Weights


class MinimizerSet(NamedTuple):
    """Global minimizers of the shear-stretch energy for one (F, weights).

    angles holds one angle on the classical branch and the ordered pair
    (alpha_p + beta, alpha_p - beta) on the pitchfork branch; the two
    entries coincide exactly at the bifurcation threshold. beta is the
    relative rotation magnitude, zero on the classical branch.
    """

    branch: Branch
    angles: tuple[float, ...]
    energy: float
    beta: float

    @property
    def alpha_plus(self) -> float:
        return self.angles[0]

    @property
    def alpha_minus(self) -> float:
        return self.angles[-1]


class CriticalSet(NamedTuple):
    """All critical rotations of the zero-couple-modulus energy.

    The pair with symmetric microstrain (the polar angle and its opposite)
    always exists; the non-classical pair solving tr(R^T F) = 2 exists if
    and only if tr U >= 2 and degenerates to the polar angle at equality.
    """

    classical_pair: tuple[float, float]
    nonclassical: tuple[float, float] | None
    levels: EnergyLevels


def critical_set(f: Mat2) -> CriticalSet:
    inv = trace_invariants(f)
    alpha_p = polar_angle(f)
    pair = (alpha_p, normalize_angle(alpha_p + math.pi))
    _, nonclassical = _pitchfork(inv.tr_u, 2.0, alpha_p)
    return CriticalSet._make((pair, nonclassical, critical_energy_levels(f)))


def relative_rotation_magnitude(tr_u: float, w: Weights) -> float:
    """The bifurcation diagram: beta(tr U) for non-classical weights.

    Zero below the singular radius, arccos(rho / tr U) at and above it.
    Continuous but with unbounded one-sided slope at the threshold.
    """
    if not tr_u > 0.0:
        raise ValueError(f"tr U must be positive, got {tr_u!r}")
    return _pitchfork(tr_u, w.singular_radius())[0]


def optimal_set(f: Mat2, w: Weights) -> MinimizerSet:
    """The set of energy-minimizing rotations in closed form.

    The energy field equals the reduced energy; on the pitchfork branch
    both angles realize it.
    """
    branch, angles, beta = _optimal_angles(trace_invariants(f), w)
    value = shear_stretch_energy(rotation(angles[0]), f, w)
    return MinimizerSet._make((branch, angles, value, beta))


def stationarity_residual(alpha: float, f: Mat2, w: Weights = _ZERO_COUPLE) -> float:
    """Analytic d/dalpha of the shear-stretch energy along the circle.

    With t(alpha) = tr(R(alpha)^T F) the derivative factors as
    ((mu - muc) * t - 2 mu) * t'(alpha); for the default weights this is
    (t - 2) * t'. Vanishes at every angle reported by critical_set.
    """
    inv = trace_invariants(f)
    c, s = math.cos(alpha), math.sin(alpha)
    t = inv.tr_f * c - inv.tr_jf * s
    t_prime = -inv.tr_f * s - inv.tr_jf * c
    return ((w.mu - w.muc) * t - 2.0 * w.mu) * t_prime


def signed_defect_profile(f: Mat2) -> Profile:
    """Signed skew entry of R(alpha)^T F; float -> float, array -> array.

    Crosses zero transversally at the polar angle and its opposite, which
    makes it the natural input for a sign-change root scan.
    """
    require_gl_plus(f)

    def profile(alpha):
        c, s = _cos_sin(alpha)
        x12 = c * f.e12 + s * f.e22
        x21 = -s * f.e11 + c * f.e21
        return 0.5 * (x12 - x21)

    return profile
