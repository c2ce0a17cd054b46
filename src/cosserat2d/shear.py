"""Simple shear: closed-form optimal rotations and critical energy levels.

For a simple shear of amount gamma the stretch trace is sqrt(4 + gamma^2),
so the pitchfork branch of the zero-couple-modulus energy is always active
and one of the two optimal microrotations is the identity; the other is a
rotation by twice the polar angle.
"""

from __future__ import annotations

from typing import NamedTuple

from .energy import _critical_levels, _energy_at, _pitchfork
from .planar import Mat2, _entry_error, _invariants, _isfinite, _polar_angle
from .weights import _ZERO_COUPLE

_RHO = _ZERO_COUPLE.singular_radius()


def simple_shear(gamma: float) -> Mat2:
    """Volume-preserving shear (1, gamma; 0, 1)."""
    return Mat2(1.0, float(gamma), 0.0, 1.0)


class ShearSolution(NamedTuple):
    """Optimal zero-couple-modulus response to a simple shear.

    angles contains the identity rotation (angle 0) and the rotation by
    2 * alpha_p, coinciding at gamma = 0; energy equals gamma^2 / 2. The
    first entry of angles is alpha_p + beta under this package's sign
    convention.
    """

    gamma: float
    alpha_p: float
    angles: tuple[float, float]
    energy: float
    tr_u: float


def shear_solution(gamma: float) -> ShearSolution:
    """optimal_set(simple_shear(gamma), Weights(1, 0)) on floats.

    tr U = sqrt(4 + gamma^2) >= 2 = rho, so the pitchfork branch applies;
    the operations are those of optimal_set, so the results are identical.
    """
    if not _isfinite(gamma := float(gamma)):  # the check Mat2 makes on simple_shear(gamma)
        raise _entry_error("e12", gamma)
    tr_f, tr_jf, tr_u, _, _ = _invariants(1.0, gamma, 0.0, 1.0)
    alpha_p = _polar_angle(tr_f, tr_jf)
    _, pair = _pitchfork(tr_u, _RHO, alpha_p)
    energy = _energy_at(pair[0], 1.0, gamma, 0.0, 1.0, _ZERO_COUPLE.mu, _ZERO_COUPLE.muc)
    return ShearSolution(gamma, alpha_p, pair, energy, tr_u)


def _shear_levels(gamma: float):
    # critical_energy_levels(simple_shear(gamma)) as a tuple, unvalidated
    _, _, tr_u, det_f, frob_f = _invariants(1.0, gamma, 0.0, 1.0)
    return _critical_levels(tr_u, det_f, frob_f)
