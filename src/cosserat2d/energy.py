"""Energy functionals of the planar shear-stretch minimization problem.

The primary functional weights the symmetric and skew parts of the
microstrain R^T F - 1 by mu and muc. Algebraically equivalent forms
(expanded trace polynomial, trace-only form plus a rotation-independent
constant, rescaled form) are kept because their mutual agreement is part
of the verification contract, with the reduced (minimized-over-rotations)
energies and a variant built on the principal matrix logarithm. The
cofactor variant is the shear-stretch energy of cof F and has no formula
of its own. The sym/skew norm itself is written once, squaring by products,
for the checked energies, the profiles and the log. All identities are
expressed through t = tr(R^T F); dimension-specific constants use
||identity||^2 = 2.

It also holds the unvalidated float cores that minimizers and shear share:
microstretch, energy at an angle, critical levels, pitchfork, optimal angles.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import LogUndefined, NonPositiveSingularValue
from .planar import (
    Mat2,
    SingularPair,
    TraceInvariants,
    _polar_angle,
    _transpose_times,
    cofactor_transform,
    normalize_angle,
    require_gl_plus,
    require_rotation,
    trace_invariants,
)
from .weights import _REGIME_CLASSICAL, _REGIME_NON_CLASSICAL, Weights


class Branch(enum.Enum):
    """Which side of the pitchfork a minimizer set lives on."""

    CLASSICAL = "classical"
    PITCHFORK = "pitchfork"


# bound once, for the per-call paths, as weights binds Regime's members
_BRANCH_CLASSICAL = Branch.CLASSICAL
_BRANCH_PITCHFORK = Branch.PITCHFORK


def _sym_skew_energy(x11, x12, x21, x22, mu: float, muc: float, shift: float):
    # mu * ||sym(X - shift*1)||^2 + muc * ||skew(X - shift*1)||^2, on floats or
    # arrays; array arguments are overwritten. Every square is a product, which
    # rounds like numpy's elementwise product, so a float and an array of the
    # same entries get the same bits; a square beyond the floating-point range
    # is inf, on floats as on arrays.
    x11 -= shift
    x22 -= shift
    skew_sq = x12 - x21
    x12 += x21
    x11 *= x11
    x22 *= x22
    x12 *= x12
    skew_sq *= skew_sq
    x12 *= 0.5
    skew_sq *= 0.5
    x11 += x22
    x11 += x12  # sym_sq
    x11 *= mu
    skew_sq *= muc
    x11 += skew_sq
    return x11


def _microstretch(c, s, e11: float, e12: float, e21: float, e22: float):
    # entries of R(alpha)^T F from c = cos(alpha), s = sin(alpha), on floats or
    # arrays: an array sum is formed in place, a float one just rebinds. The
    # lower row, c*e21 - s*e11, has the bits of -s*e11 + c*e21 (addition
    # commutes, negation is exact), signed zeros included. The array route
    # keeps four one-row arrays: one stacked (4, n) array is 128 KiB at n = 4096,
    # glibc's mmap threshold, and freeing it per block made the heap trim and
    # fault its pages in again (3.5 to 10.5 minor faults per benchmark certify
    # operation, against 0.2 with one-row arrays).
    x11 = c * e11
    x11 += s * e21
    x12 = c * e12
    x12 += s * e22
    x21 = c * e21
    x21 -= s * e11
    x22 = c * e22
    x22 -= s * e12
    return x11, x12, x21, x22


def _energy_at(alpha: float, e11: float, e12: float, e21: float, e22: float,
               mu: float, muc: float) -> float:
    # shear_stretch_energy(rotation(alpha), F, (mu, muc)), unvalidated
    x11, x12, x21, x22 = _microstretch(math.cos(alpha), math.sin(alpha), e11, e12, e21, e22)
    return _sym_skew_energy(x11, x12, x21, x22, mu, muc, 1.0)


def _checked_microstretch(r: Mat2, f: Mat2) -> tuple[float, float, float, float]:
    # the entries of R^T F, after checking R in SO(2) and F in GL+(2); raises
    # OverflowError where an entry is beyond the floating-point range
    require_rotation(r)
    require_gl_plus(f)
    x = _transpose_times(r, f)
    if not all(map(math.isfinite, x)):
        raise OverflowError(f"R^T F has an entry beyond the floating-point range: {x!r}")
    return x


def shear_stretch_energy(r: Mat2, f: Mat2, w: Weights) -> float:
    """mu*||sym(R^T F - 1)||^2 + muc*||skew(R^T F - 1)||^2.

    Nonnegative; vanishes exactly when the microstrain is zero (muc > 0)
    or when its symmetric part is zero (muc = 0). Raises OverflowError when
    an entry of R^T F is beyond the floating-point range, and returns inf
    when R^T F is finite but the energy overflows.
    """
    x11, x12, x21, x22 = _checked_microstretch(r, f)
    return _sym_skew_energy(x11, x12, x21, x22, w.mu, w.muc, 1.0)


def energy_expanded(r: Mat2, f: Mat2, w: Weights) -> float:
    """Expanded trace-polynomial form of the shear-stretch energy.

    (mu-muc)/2 * tr((R^T F)^2) - 2 mu tr(R^T F) + (mu+muc)/2 ||F||^2 + 2 mu.
    Agrees with shear_stretch_energy identically; kept separate so the
    identity can be tested rather than assumed.
    """
    x11, x12, x21, x22 = _checked_microstretch(r, f)
    tr_x = x11 + x22
    tr_x_sq = x11**2 + 2.0 * x12 * x21 + x22**2  # tr(X @ X)
    return (
        0.5 * (w.mu - w.muc) * tr_x_sq
        - 2.0 * w.mu * tr_x
        + 0.5 * (w.mu + w.muc) * f.frobenius_sq()
        + 2.0 * w.mu
    )


class RingEnergy(NamedTuple):
    wring: float
    cring: float


def ring_energy(r: Mat2, f: Mat2) -> RingEnergy:
    """Split of the zero-couple-modulus energy into a part depending on R

    only through t = tr(R^T F), namely t^2/2 - 2t, plus the constant
    ||F||^2/2 - det F + 2. Their sum is shear_stretch_energy(r, f, (1, 0)).
    """
    x11, _, _, x22 = _checked_microstretch(r, f)
    t = x11 + x22
    wring = 0.5 * t * t - 2.0 * t
    cring = 0.5 * f.frobenius_sq() - f.det() + 2.0
    return RingEnergy(wring, cring)


def rescaled_energy(r: Mat2, f: Mat2, w: Weights) -> float:
    """The shear-stretch energy scaled by (singular radius / mu).

    Defined for non-classical weights only. Affinely related to the
    zero-couple-modulus rescaled energy of the shrunk gradient:
    value = lam^2 * rescaled_energy(r, ftilde, (1,0)) + c4(f), with c4
    independent of the rotation (see constants_chain).
    """
    rho = w.singular_radius()
    return (rho / w.mu) * shear_stretch_energy(r, f, w)


class ConstantsChain(NamedTuple):
    c1: float
    c2: float
    c3: float
    c4: float


def constants_chain(f: Mat2, w: Weights) -> ConstantsChain:
    """Rotation-independent constants of the reduction to the limit case.

    c1 = (mu+muc)/2 ||F||^2 + 2 mu, c2 = (rho/mu) c1, c3 = c2 - rho^2,
    c4 = c3 - lam^2 * c3_of_limit_case(ftilde). c4 is the offset in the
    affine relation documented at rescaled_energy.
    """
    require_gl_plus(f)
    rho = w.singular_radius()
    lam = w.scaling()
    frob_sq = f.frobenius_sq()
    c1 = 0.5 * (w.mu + w.muc) * frob_sq + 2.0 * w.mu
    c2 = (rho / w.mu) * c1
    c3 = c2 - rho * rho
    ftilde_frob_sq = frob_sq / (lam * lam)
    c3_limit = 2.0 * (0.5 * ftilde_frob_sq + 2.0) - 4.0
    c4 = c3 - lam * lam * c3_limit
    return ConstantsChain(c1, c2, c3, c4)


class EnergyLevels(NamedTuple):
    """Critical values of the zero-couple-modulus energy, largest first.

    w1 and w2 belong to the two rotations with symmetric microstrain; w3
    is the level of the non-classical branch and exists only when
    tr U >= 2. Always w1 >= w2, and w2 >= w3 whenever w3 exists, with
    equality w2 == w3 at tr U == 2.
    """

    w1: float
    w2: float
    w3: float | None


def critical_energy_levels(f: Mat2) -> EnergyLevels:
    inv = trace_invariants(f)
    return EnergyLevels(*_critical_levels(inv.tr_u, inv.det_f, inv.frob_f))


def _critical_levels(tr_u: float, det_f: float, frob_f: float):
    # (w1, w2, w3) from the invariants, unvalidated
    ring_const = 0.5 * frob_f**2 - det_f + 2.0
    base = 0.5 * tr_u**2
    w1 = base + 2.0 * tr_u + ring_const
    w2 = base - 2.0 * tr_u + ring_const
    w3 = -2.0 + ring_const if tr_u >= 2.0 else None
    return w1, w2, w3


def _pitchfork(tr_u: float, rho: float, alpha_p: float | None = None):
    # The pitchfork at tr U = rho, unvalidated. Returns (beta, pair): (0.0, None)
    # below rho; from rho on beta = arccos(rho / tr U) and alpha_p split into
    # pair = (alpha_p + beta, alpha_p - beta), or pair None when alpha_p is None.
    if tr_u < rho:
        return 0.0, None
    beta = math.acos(rho / tr_u)
    if alpha_p is None:
        return beta, None
    return beta, (normalize_angle(alpha_p + beta), normalize_angle(alpha_p - beta))


def _optimal_angles(inv: TraceInvariants, w: Weights):
    # (branch, angles, beta) of the optimal set from the invariants of F,
    # unvalidated: the pitchfork pair from tr U = singular radius on, for
    # non-classical weights, and the polar angle otherwise.
    alpha_p = _polar_angle(inv.tr_f, inv.tr_jf)
    if w.regime is _REGIME_NON_CLASSICAL:
        beta, pair = _pitchfork(inv.tr_u, w.singular_radius(), alpha_p)
        if pair:
            return _BRANCH_PITCHFORK, pair, beta
    return _BRANCH_CLASSICAL, (alpha_p,), 0.0


class ReducedEnergy(NamedTuple):
    value: float
    branch: Branch


def reduced_energy(f: Mat2, w: Weights) -> ReducedEnergy:
    """Minimum of the shear-stretch energy over all rotations.

    Classical weights: mu * (||F||^2 - 2 tr U + 2), the squared distance
    of F to the rotation group scaled by mu; realized by the polar factor.

    Non-classical weights: evaluated at the closed-form optimal rotation
    set. The branch switches from the polar factor to the pitchfork pair
    exactly at tr U = singular radius and is continuous there; the
    pitchfork tag applies from the threshold on (right-continuous).
    """
    inv = trace_invariants(f)
    if w.regime is _REGIME_CLASSICAL:
        return ReducedEnergy(
            w.mu * (inv.frob_f**2 - 2.0 * inv.tr_u + 2.0), _BRANCH_CLASSICAL
        )
    branch, angles, _ = _optimal_angles(inv, w)
    value = _energy_at(angles[0], f.e11, f.e12, f.e21, f.e22, w.mu, w.muc)
    return ReducedEnergy(value, branch)


def reduced_energy_sv(pair: SingularPair | tuple[float, float]) -> float:
    """Reduced zero-couple-modulus energy from the singular values alone.

    (s1-1)^2 + (s2-1)^2 below the threshold s1 + s2 = 2, and (s1-s2)^2/2
    at or above it; the two pieces agree on the threshold. Symmetric in
    its arguments.
    """
    s1, s2 = float(pair[0]), float(pair[1])
    if not (math.isfinite(s1) and math.isfinite(s2) and s1 > 0.0 and s2 > 0.0):
        raise NonPositiveSingularValue(f"singular values must be positive, got {pair!r}")
    if s1 + s2 < 2.0:
        return (s1 - 1.0) ** 2 + (s2 - 1.0) ** 2
    return 0.5 * (s1 - s2) ** 2


_LOG_BRANCH_TOL = 1e-14


def matrix_log_2x2(x: Mat2) -> Mat2:
    """Principal logarithm of a real 2x2 matrix, in closed form.

    Three cases: distinct positive real eigenvalues (spectral / divided
    difference form, with log1p to keep nearby eigenvalues accurate), a
    complex-conjugate pair (rotation-scaling form), and coincident
    eigenvalues (Jordan form; exact since the nilpotent part squares to
    zero). Raises LogUndefined when the spectrum touches (-inf, 0].
    """
    lg = _log_at(*x.entries(), x.det())
    if lg is None:
        raise LogUndefined(
            "an eigenvalue lies on the closed negative axis or its discriminant "
            f"leaves the floating-point range (tr={x.trace()!r}, det={x.det()!r})"
        )
    return Mat2(*lg)


# The three eigenvalue cases of the principal log of X, each written once. A
# case maps t = tr X, disc = t^2 - 4 det X and d = det X (a float) to
# (const, coeff, shift), with log X = const + coeff * (X - shift); it runs on
# floats with math's sqrt or on the arrays of one case's mask with numpy's, and
# on numpy's log, log1p and arctan2 for both. A coefficient is formed before
# the log of an eigenvalue, so that a float eigenvalue that underflowed to 0
# raises ZeroDivisionError before numpy's log can warn.

def _log_complex(t, disc, d, sqrt):
    # a complex-conjugate pair, in rotation-scaling form
    half_t = 0.5 * t
    b = 0.5 * sqrt(-disc)
    return 0.5 * math.log(d), np.arctan2(b, half_t) / b, half_t


def _log_distinct(t, disc, d, sqrt):
    # distinct positive eigenvalues lam1 > lam2, in divided-difference form
    sq = sqrt(disc)
    lam2 = d / (0.5 * (t + sq))
    coeff = np.log1p(sq / lam2) / sq
    return np.log(lam2), coeff, lam2


def _log_coincident(t, disc, d, sqrt):
    # coincident positive eigenvalues, in Jordan form
    lam = 0.5 * t
    coeff = 1.0 / lam
    return np.log(lam), coeff, lam


def _log_entries(x11, x12, x21, x22, const, coeff, shift):
    # the entries of const + coeff * (X - shift)
    return (const + coeff * (x11 - shift), coeff * x12,
            coeff * x21, const + coeff * (x22 - shift))


def _log_cases(x11, x12, x21, x22, d: float):
    # Principal log of X = (x11, x12; x21, x22) on arrays, with det X = d a float.
    # Yields (mask, l11, l12, l21, l22), the entries of log X on mask, per
    # eigenvalue case present; off every mask, log X is undefined.
    t = x11 + x22
    disc = t * t - 4.0 * d
    tol = _LOG_BRANCH_TOL * np.maximum(1.0, np.maximum(t * t, 4.0 * abs(d)))
    # a discriminant of +-inf makes tol inf too, so it must be finite in the last case
    for m, case in ((disc < -tol, _log_complex),
                    ((disc > tol) & (t > 0.0) & (d > 0.0), _log_distinct),
                    ((np.abs(disc) <= tol) & np.isfinite(disc) & (t > 0.0), _log_coincident)):
        if m.any():
            yield (m, *_log_entries(x11[m], x12[m], x21[m], x22[m],
                                    *case(t[m], disc[m], d, np.sqrt)))


def _log_at(x11: float, x12: float, x21: float, x22: float, d: float):
    # The entries of log X as floats, or None where log X is undefined: the case
    # _log_cases would pick, picked by one if chain, its formula run on floats.
    t = x11 + x22
    tt = t * t
    disc = tt - 4.0 * d
    # max() skips a NaN that np.maximum returns, but then disc is NaN and no case applies
    tol = _LOG_BRANCH_TOL * max(1.0, tt, 4.0 * abs(d))
    if disc < -tol:
        case = _log_complex
    elif disc > tol and t > 0.0 and d > 0.0:
        case = _log_distinct
    elif abs(disc) <= tol and math.isfinite(disc) and t > 0.0:
        case = _log_coincident
    else:
        return None
    try:
        const, coeff, shift = case(t, disc, d, math.sqrt)
    except ZeroDivisionError:
        # an eigenvalue underflowed to 0, where numpy's division gives inf:
        # the array route answers for this one matrix
        with np.errstate(all="ignore"):
            for _, *lg in _log_cases(*np.array([[x11], [x12], [x21], [x22]]), d):
                return tuple(float(v[0]) for v in lg)
    # Python floats from here on, which overflow without numpy's warnings
    return _log_entries(x11, x12, x21, x22, float(const), float(coeff), shift)


def log_strain_energy(r: Mat2, f: Mat2, w: Weights) -> float:
    """mu*||sym log(R^T F)||^2 + muc*||skew log(R^T F)||^2.

    Defined only where the principal logarithm of R^T F exists. Raises
    OverflowError when an entry of R^T F is beyond the floating-point range.
    """
    lg = matrix_log_2x2(Mat2(*_checked_microstretch(r, f)))
    return _sym_skew_energy(lg.e11, lg.e12, lg.e21, lg.e22, w.mu, w.muc, 0.0)


# ---------------------------------------------------------------------------
# Single-angle profiles for the brute-force grid. They evaluate the defining
# sym/skew forms entrywise, never the trace shortcuts used by the closed-form
# minimizers, so grid certification stays an independent route.
#
# The shear-stretch profile has one body for a single angle (Brent refinement,
# the parabolic polish and bisection) and for an array of angles: cos and sin,
# math's for a Python float and numpy's otherwise, which give math's bits; R^T F
# from _microstretch; then _sym_skew_energy. On an array, both form their sums
# in place. Each step is one correctly rounded product, sum or difference, so a
# single angle gets the bits it has in an array, and a square beyond the
# floating-point range is inf on both; the oracle reports it as NonFiniteEnergy.
# The log-strain profile picks its eigenvalue case by one if chain for a single
# angle, which it returns as a Python float, and by masks for an array, with the
# same formulas and bits. An infinite angle gives NaN, or the log's sentinel.
# The cofactor profile is the shear-stretch profile of cof F, with its bits.
# ---------------------------------------------------------------------------

#: A profile maps a float angle to a float energy, and an array of angles
#: to an array of energies.
Profile = Callable[[float | np.ndarray], float | np.ndarray]


def _cos_sin(alpha):
    # (cos, sin) of alpha: math's for a single Python float, numpy's for
    # anything else (arrays, numpy scalars, ints)
    if type(alpha) is float:
        try:
            return math.cos(alpha), math.sin(alpha)
        except ValueError:  # alpha is +-inf, where numpy's cos and sin are NaN
            return math.nan, math.nan
    a = np.asarray(alpha, dtype=float)
    return np.cos(a), np.sin(a)


def shear_stretch_profile(f: Mat2, w: Weights) -> Profile:
    """alpha -> shear_stretch_energy(R(alpha), f, w); float -> float, array -> array."""
    require_gl_plus(f)
    (e11, e12, e21, e22), mu, muc = f.entries(), w.mu, w.muc

    def profile(alpha):
        c, s = _cos_sin(alpha)
        x11, x12, x21, x22 = _microstretch(c, s, e11, e12, e21, e22)
        return _sym_skew_energy(x11, x12, x21, x22, mu, muc, 1.0)

    return profile


def cofactor_shear_profile(f: Mat2, w: Weights) -> Profile:
    """The shear-stretch profile of cofactor_transform(f), for the paper's cofactor remark."""
    return shear_stretch_profile(cofactor_transform(f), w)


#: Value log_strain_profile reports where the principal logarithm is undefined.
UNDEFINED_LOG_ENERGY = 1e9


def log_strain_profile(f: Mat2, w: Weights) -> Profile:
    """alpha -> log_strain_energy(R(alpha), f, w); float -> float, array -> array.

    Angles where the principal logarithm does not exist are reported with
    the finite sentinel UNDEFINED_LOG_ENERGY, so the profile stays total on
    the circle (grid minimizers reject non-finite values by contract). The
    sentinel only needs to exceed the attainable minimum.
    """
    require_gl_plus(f)
    (e11, e12, e21, e22), d, mu, muc = f.entries(), f.det(), w.mu, w.muc

    def profile(alpha):
        if type(alpha) is float or not np.ndim(alpha):
            c, s = _cos_sin(float(alpha))
            lg = _log_at(*_microstretch(c, s, e11, e12, e21, e22), d)
            if lg is None:
                return UNDEFINED_LOG_ENERGY
            return _sym_skew_energy(*lg, mu, muc, 0.0)
        # numpy's warnings about large entries or infinite angles are not shown,
        # and no value changes; a call may run outside the oracle's errstate
        with np.errstate(all="ignore"):
            x11, x12, x21, x22 = _microstretch(*_cos_sin(alpha), e11, e12, e21, e22)
            out = np.full(x11.shape, UNDEFINED_LOG_ENERGY)
            for m, l11, l12, l21, l22 in _log_cases(x11, x12, x21, x22, d):
                out[m] = _sym_skew_energy(l11, l12, l21, l22, mu, muc, 0.0)
        return out

    return profile
