"""The energy identities of the closed form, proved once in exact arithmetic.

Fischle & Neff (arXiv 1507.05480) build the closed form on identities of
the trace invariants of F and of W(alpha) = mu*||sym(R^T F - 1)||^2 +
muc*||skew(R^T F - 1)||^2 for a rotation R = R(alpha). Here sympy proves
them for symbolic F, alpha, mu and muc: a difference is an identity on the
circle when its numerator, a polynomial in c = cos(alpha) and
s = sin(alpha), reduces to 0 modulo c^2 + s^2 - 1. Each proven expression
is then evaluated on seeded floats and compared with the package code that
relies on it.
"""

import math
import zlib

import numpy as np
import pytest
import sympy as sp

from cosserat2d import Weights, polar_decompose, reduction_data, rotation, shear_stretch_energy
from cosserat2d.energy import _critical_levels
from cosserat2d.minimizers import stationarity_residual
from cosserat2d.planar import _invariants, trace_invariants
from cosserat2d.selfcheck import random_gl_plus, random_nonclassical_case

F11, F12, F21, F22, U1, U2, U3 = sp.symbols("f11 f12 f21 f22 u1 u2 u3", real=True)
ALPHA = sp.Symbol("alpha", real=True)
MU, MUC = sp.symbols("mu muc", positive=True)
C, S = sp.symbols("c s", real=True)  # cos(alpha) and sin(alpha)
F = sp.Matrix([[F11, F12], [F21, F22]])
ONE = sp.eye(2)


def rotation_matrix(c, s):
    return sp.Matrix([[c, -s], [s, c]])


def frob_sq(m):
    return sum(e**2 for e in m)


def energy(x, mu, muc):
    """W of the microstretch X = R^T F: mu ||sym(X - 1)||^2 + muc ||skew(X - 1)||^2."""
    shifted = x - ONE
    return (mu * frob_sq((shifted + shifted.T) / 2)
            + muc * frob_sq((shifted - shifted.T) / 2))


def on_circle(expr):
    """expr with cos(alpha), sin(alpha) as c, s, reduced modulo c^2 + s^2 - 1."""
    num, den = sp.fraction(sp.together(expr.subs({sp.cos(ALPHA): C, sp.sin(ALPHA): S})))
    return sp.expand(sp.rem(sp.expand(num), C**2 + S**2 - 1, S)) / den


def is_identity(lhs, rhs) -> bool:
    return on_circle(lhs - rhs) == 0


def c4(frob_sq_f, mu, muc):
    """The offset of the rescaled energy, the last link of the constants chain.

    c1 = (mu + muc)/2 ||F||^2 + 2 mu is W's rotation-independent part,
    c2 = (rho/mu) c1 that of the rescaled energy, c3 = c2 - rho^2, and
    c4 = c3 - lam^2 c3(F/lam) against the zero-couple limit, whose own
    rho is 2. Plain arithmetic, so it runs on floats and on sympy symbols.
    """
    lam = mu / (mu - muc)
    rho = 2 * lam
    c1 = (mu + muc) / 2 * frob_sq_f + 2 * mu
    c2 = rho / mu * c1
    c3 = c2 - rho**2
    c3_limit = 2 * (frob_sq_f / lam**2 / 2 + 2) - 2**2
    return c3 - lam**2 * c3_limit


TR_F = F.trace()
TR_JF = (rotation_matrix(0, 1) * F).trace()  # tr(JF), J the quarter turn


def test_trace_pythagoras():
    # (tr F)^2 + (tr JF)^2 = ||F||^2 + 2 det F, the square of tr U
    assert sp.expand(TR_F**2 + TR_JF**2 - frob_sq(F) - 2 * F.det()) == 0


X = rotation_matrix(sp.cos(ALPHA), sp.sin(ALPHA)).T * F
T = X.trace()  # t = tr(R^T F)
W = energy(X, MU, MUC)
RING = T**2 / 2 - 2 * T + frob_sq(F) / 2 - F.det() + 2
DW_FACTOR = ((MU - MUC) * T - 2 * MU) * sp.diff(T, ALPHA)
LAM = MU / (MU - MUC)
RHO = 2 * MU / (MU - MUC)
# (rho/mu) W(F) - lam^2 (2/1) W_limit(F/lam): the rescaled energy's affine offset
OFFSET = RHO / MU * W - LAM**2 * 2 * energy(X / LAM, 1, 0)


def test_expanded_form():
    expanded = ((MU - MUC) / 2 * (X * X).trace() - 2 * MU * T
                + (MU + MUC) / 2 * frob_sq(F) + 2 * MU)
    assert is_identity(W, expanded)


def test_ring_split_of_the_zero_couple_limit():
    assert is_identity(energy(X, 1, 0), RING)


def test_derivative_factors_through_the_trace():
    assert is_identity(sp.diff(W, ALPHA), DW_FACTOR)


def test_pitchfork_pair_has_one_energy():
    # F = R(alpha_p) U gives R(alpha_p +- delta)^T F = R(-+delta) U, so for a symmetric
    # U, W(R(delta) U) = W(R(-delta) U) is the energy symmetry of the pair alpha_p +- beta
    at_u = W.subs({F11: U1, F12: U2, F21: U2, F22: U3})
    assert is_identity(at_u, at_u.subs(ALPHA, -ALPHA))


def test_singular_radius_is_twice_the_scaling():
    assert sp.simplify(RHO - 2 * LAM) == 0
    assert (LAM.subs({MU: 1, MUC: 0}), RHO.subs({MU: 1, MUC: 0})) == (1, 2)


def test_rescaled_offset_is_free_of_the_angle():
    offset = on_circle(OFFSET)
    assert sp.diff(offset, C) == 0 and sp.diff(offset, S) == 0


def test_rescaled_offset_is_c4():
    assert sp.simplify(on_circle(OFFSET) - c4(frob_sq(F), MU, MUC)) == 0
    assert c4(frob_sq(F), sp.Integer(1), sp.Integer(0)) == 0  # the limit case onto itself


def harmonics():
    """W's coefficients on 1, cos(alpha), sin(alpha), cos(2 alpha), sin(2 alpha)."""
    p = sp.Poly(sp.expand(W.subs({sp.cos(ALPHA): C, sp.sin(ALPHA): S})), C, S)
    assert p.total_degree() == 2
    k = {(i, j): p.coeff_monomial(C**i * S**j) for i in range(3) for j in range(3 - i)}
    # c^2 = (1 + cos 2a)/2, s^2 = (1 - cos 2a)/2, c s = (sin 2a)/2
    return (k[0, 0] + (k[2, 0] + k[0, 2]) / 2, k[1, 0], k[0, 1],
            (k[2, 0] - k[0, 2]) / 2, k[1, 1] / 2)


def test_energy_is_a_trigonometric_polynomial_of_degree_two():
    a0, a1, b1, a2, b2 = harmonics()
    series = (a0 + a1 * sp.cos(ALPHA) + b1 * sp.sin(ALPHA)
              + a2 * sp.cos(2 * ALPHA) + b2 * sp.sin(2 * ALPHA))
    assert is_identity(W, sp.expand_trig(series))
    # the second harmonic's amplitude is (mu - muc)/4 (tr U)^2, as
    # tr_f^2 + tr_jf^2 = (tr U)^2: it vanishes only for mu == muc
    tr_u_sq = (F11 + F22) ** 2 + (F12 - F21) ** 2
    assert sp.expand(a2**2 + b2**2 - ((MU - MUC) / 4 * tr_u_sq) ** 2) == 0


# At the critical angles of the zero-couple limit, R^T F = R(beta)^T U with
# U = (u1, u2; u2, u3) the stretch and beta the angle from the polar factor.
U = sp.Matrix([[U1, U2], [U2, U3]])
TR_U = U.trace()
RING_CONST = frob_sq(U) / 2 - U.det() + 2
LEVELS = {  # name: (cos beta, sin beta, the level by _critical_levels' formula)
    "w1": (-1, 0, TR_U**2 / 2 + 2 * TR_U + RING_CONST),
    "w2": (1, 0, TR_U**2 / 2 - 2 * TR_U + RING_CONST),
    "w3": (2 / TR_U, S, -2 + RING_CONST),
}


def level_energy(name):
    cos_b, sin_b, _ = LEVELS[name]
    x = rotation_matrix(C, S).T * U
    reduced = sp.expand(sp.rem(sp.expand(energy(x, 1, 0)), C**2 + S**2 - 1, S))
    return reduced.subs({C: cos_b, S: sin_b})


@pytest.mark.parametrize("name", sorted(LEVELS))
def test_critical_levels_are_the_energy_at_the_critical_angles(name):
    cos_b, sin_b, level = LEVELS[name]
    t = cos_b * TR_U  # tr(R(beta)^T U), as U is symmetric
    t_prime = -sin_b * TR_U
    assert sp.simplify((t - 2) * t_prime) == 0  # the derivative's factor vanishes
    assert sp.simplify(level_energy(name) - level) == 0
    # tr U = sqrt(||F||^2 + 2 det F), the form _critical_levels reads
    assert sp.expand(TR_U**2 - frob_sq(U) - 2 * U.det()) == 0


GAPS = (4 * TR_U, (TR_U - 2) ** 2 / 2)  # w1 - w2 and w2 - w3


def test_level_ordering():
    # w1 - w2 = 4 tr U > 0 and w2 - w3 = (tr U - 2)^2 / 2 >= 0, so w1 > w2 >= w3
    w1, w2, w3 = (LEVELS[name][2] for name in ("w1", "w2", "w3"))
    assert sp.expand(w1 - w2 - GAPS[0]) == 0
    assert sp.expand(w2 - w3 - GAPS[1]) == 0


# ---------------------------------------------------------------------------
# The package code against the proven expressions, on seeded floats
# ---------------------------------------------------------------------------

ENTRIES = (F11, F12, F21, F22)


def _lambdified(expr, *symbols):
    return sp.lambdify(symbols, expr, modules="math")


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _weighted_case(rng):
    f, w = random_gl_plus(rng), Weights(rng.uniform(0.1, 3.0), rng.uniform(0.0, 3.0))
    return f, w, rng.uniform(-math.pi, math.pi)


# Each factory lambdifies its proven expression once and returns the case:
# rng -> the relative miss of the package code on one seeded draw.

def _energy_definition():
    w_of = _lambdified(W, *ENTRIES, ALPHA, MU, MUC)

    def case(rng):
        f, w, alpha = _weighted_case(rng)
        return _rel(shear_stretch_energy(rotation(alpha), f, w),
                    w_of(*f.entries(), alpha, w.mu, w.muc))

    return case


def _trigonometric_polynomial():
    coefficients = _lambdified(harmonics(), *ENTRIES, MU, MUC)

    def case(rng):
        f, w, alpha = _weighted_case(rng)
        a0, a1, b1, a2, b2 = coefficients(*f.entries(), w.mu, w.muc)
        value = (a0 + a1 * math.cos(alpha) + b1 * math.sin(alpha)
                 + a2 * math.cos(2.0 * alpha) + b2 * math.sin(2.0 * alpha))
        return _rel(shear_stretch_energy(rotation(alpha), f, w), value)

    return case


def _derivative():
    dw = _lambdified(DW_FACTOR, *ENTRIES, ALPHA, MU, MUC)

    def case(rng):
        f, w, alpha = _weighted_case(rng)
        return _rel(stationarity_residual(alpha, f, w), dw(*f.entries(), alpha, w.mu, w.muc))

    return case


def _reduction():
    lam_of, rho_of = _lambdified(LAM, MU, MUC), _lambdified(RHO, MU, MUC)

    def case(rng):
        f, w = random_nonclassical_case(rng)
        data, lam = reduction_data(f, w), lam_of(w.mu, w.muc)
        return max(_rel(data.lam, lam), _rel(data.rho, rho_of(w.mu, w.muc)),
                   *(_rel(a, e / lam) for a, e in zip(data.ftilde.entries(), f.entries())))

    return case


def _critical_levels_of_f():
    levels = [_lambdified(LEVELS[name][2], U1, U2, U3) for name in ("w1", "w2", "w3")]

    def case(rng):
        f = random_gl_plus(rng)
        inv, u = trace_invariants(f), polar_decompose(f).stretch
        got = _critical_levels(inv.tr_u, inv.det_f, inv.frob_f)
        want = [level(u.e11, 0.5 * (u.e12 + u.e21), u.e22) for level in levels]
        if (got[2] is None) != (inv.tr_u < 2.0):  # w3 exists from tr U = 2 on
            return math.inf
        return max(_rel(g, v) for g, v in zip(got, want) if g is not None)

    return case


def _trace_pythagoras():
    traces = _lambdified((TR_F, TR_JF, sp.sqrt(TR_F**2 + TR_JF**2)), *ENTRIES)

    def case(rng):
        f = random_gl_plus(rng)
        got = _invariants(*f.entries())[:3]  # tr U from ||F||^2 + 2 det F
        return max(_rel(g, v) for g, v in zip(got, traces(*f.entries())))

    return case


def _level_ordering():
    gaps = _lambdified(GAPS, U1, U2, U3)

    def case(rng):
        f = random_gl_plus(rng)
        inv, u = trace_invariants(f), polar_decompose(f).stretch
        w1, w2, w3 = _critical_levels(inv.tr_u, inv.det_f, inv.frob_f)
        gap12, gap23 = gaps(u.e11, 0.5 * (u.e12 + u.e21), u.e22)
        return max(_rel(w1 - w2, gap12), 0.0 if w3 is None else _rel(w2 - w3, gap23))

    return case


#: identity: (the package code it is compared with, the case factory)
FOLLOWERS = {
    "energy_definition": ("shear_stretch_energy", _energy_definition),
    "trigonometric_polynomial": ("shear_stretch_energy", _trigonometric_polynomial),
    "derivative_factor": ("stationarity_residual", _derivative),
    "rescaling": ("reduction_data", _reduction),
    "critical_levels": ("_critical_levels", _critical_levels_of_f),
    "trace_pythagoras": ("_invariants", _trace_pythagoras),
    "level_ordering": ("_critical_levels", _level_ordering),
}


@pytest.mark.parametrize("identity", FOLLOWERS)
def test_package_follows_the_proven_expression(identity):
    code, factory = FOLLOWERS[identity]
    case, rng = factory(), np.random.default_rng([20151017, zlib.crc32(identity.encode())])
    worst = max(case(rng) for _ in range(1000))
    assert worst < 1e-12, f"{code} misses the proven {identity} by {worst:.2e} (relative)"
