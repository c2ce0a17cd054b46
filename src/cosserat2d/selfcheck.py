"""Seeded verification suite: every closed form against an independent route.

Each property is one registered per-case definition in `PROPERTIES`, and
`Property.worst` folds its cases into the worst residual (NaN if any case
is NaN). `run_suite`, behind the CLI `verify` command, runs every property
on its own stream, keyed by the seed and the CRC-32 of the property's name,
so adding or removing one property leaves every other one's draws as they
were. The acceptance criteria run the same definitions, and the tests reuse
the samplers.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import bruteforce, energy, minimizers, shear
from .planar import (
    Mat2,
    circular_distance,
    cofactor_transform,
    normalize_angle,
    polar_angle,
    polar_decompose,
    rotation,
    singular_values,
    trace_invariants,
)
from .weights import _ZERO_COUPLE, Weights, reduction_data


# ---------------------------------------------------------------------------
# Random samplers shared with the test suite
# ---------------------------------------------------------------------------

def random_gl_plus(rng: np.random.Generator) -> Mat2:
    """Entries uniform in [-2, 2] (random_unconstrained), rejected unless det >= 0.05.

    The rejection keeps samples away from the boundary of GL+(2), where
    the problem is ill-conditioned.
    """
    while True:
        f = random_unconstrained(rng)
        if f.det() >= 0.05:
            return f


def random_rotation(rng: np.random.Generator) -> Mat2:
    return rotation(rng.uniform(-math.pi, math.pi))


def random_classical_weights(rng: np.random.Generator) -> Weights:
    mu = rng.uniform(0.1, 2.5)
    return Weights(mu, mu * rng.uniform(1.0, 3.0))


def random_nonclassical_weights(rng: np.random.Generator) -> Weights:
    mu = rng.uniform(0.2, 2.5)
    return Weights(mu, mu * rng.uniform(0.0, 0.85))


def random_nonclassical_case(
    rng: np.random.Generator, bifurcation_gap: float = 0.0
) -> tuple[Mat2, Weights]:
    """A random (F, weights) pair with mu > muc.

    With bifurcation_gap > 0, pairs whose stretch trace lies within the
    given relative gap of the singular radius are rejected: immediately at
    the threshold the two pitchfork minima merge below the resolution of
    any value-tolerance grid clustering, so set comparison against the
    brute-force oracle is not meaningful there. The threshold itself is
    covered by dedicated continuity checks.
    """
    while True:
        f = random_gl_plus(rng)
        w = random_nonclassical_weights(rng)
        ratio = trace_invariants(f).tr_u / w.singular_radius()
        if abs(ratio - 1.0) > bifurcation_gap:
            return f, w


def random_unconstrained(rng: np.random.Generator) -> Mat2:
    e = rng.uniform(-2.0, 2.0, size=4)
    return Mat2(e[0], e[1], e[2], e[3])


# ---------------------------------------------------------------------------
# Property registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Property:
    """A registered property: `case(rng, i, grid_n)` is the residual of case i, and
    a suite of `samples` holds `cases(samples)` cases to `tolerance`."""

    name: str
    tolerance: float
    cases: Callable[[int], int]
    case: Callable[[np.random.Generator, int, int], float]

    def worst(self, rng: np.random.Generator, cases: int, grid_n: int = 2048) -> float:
        """Worst residual over cases 0..cases-1 from `rng`; NaN if any case is NaN."""
        if cases < 1:
            raise ValueError(f"cases must be at least 1, got {cases}")
        return float(_worst(self.case(rng, i, grid_n) for i in range(cases)))


class CheckResult(NamedTuple):
    name: str
    passed: bool
    residual: float
    tolerance: float


#: Every property by name, in suite order.
PROPERTIES: dict[str, Property] = {}


def _property(name: str, tolerance: float, per: int = 1, cap: int | None = None):
    """Register a case function that runs samples // per cases, at least 1, at most `cap`."""

    def cases(samples: int) -> int:
        return min(max(1, samples // per), cap or samples)

    def register(case):
        PROPERTIES[name] = Property(name, tolerance, cases, case)
        return case

    return register


def _worst(residuals) -> float:
    """The largest residual, and at least 0.0; NaN as soon as one is NaN."""
    worst = 0.0
    for residual in residuals:
        if math.isnan(residual):
            return math.nan
        worst = max(worst, residual)
    return worst


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


_LOG_STRAIN_WEIGHTS = (Weights(1.0, 1.0), _ZERO_COUPLE, Weights(2.0, 0.5), Weights(1.0, 3.0))


def _oracle(profile, grid_n: int) -> bruteforce.GridResult:
    return bruteforce.grid_minimize(profile, grid_n, vectorized=True)


def _polar_miss(grid: bruteforce.GridResult, f: Mat2) -> float:
    """Distance of a single grid minimum from the polar angle; inf unless single."""
    if len(grid.angles) != 1:
        return math.inf
    return circular_distance(grid.angles[0], polar_angle(f))


def _critical_angles(f: Mat2) -> list[float]:
    cs = minimizers.critical_set(f)
    return list(cs.classical_pair) + list(cs.nonclassical or ())


@_property("stretch_trace_vs_eigensolver", 1e-9)
def _stretch_trace(rng, i, grid_n):
    f = random_gl_plus(rng)
    a = np.array([[f.e11, f.e12], [f.e21, f.e22]])
    gram = a.T @ a
    return abs(trace_invariants(f).tr_u - float(np.sqrt(np.linalg.eigvalsh(gram)).sum()))


@_property("polar_factorization", 1e-10)
def _polar_factorization(rng, i, grid_n):
    f = random_gl_plus(rng)
    dec = polar_decompose(f)
    residual = dec.rotation @ dec.stretch - f
    return _worst((residual.frobenius_norm(), abs(dec.stretch.e12 - dec.stretch.e21)))


@_property("classical_distance_formula", 1e-10)
def _dist_formula(rng, i, grid_n):
    f = random_gl_plus(rng)
    sv = singular_values(f)
    value = energy.reduced_energy(f, Weights(1.0, 1.0)).value
    return _rel(value, (sv.sigma1 - 1.0) ** 2 + (sv.sigma2 - 1.0) ** 2)


@_property("reduced_energy_singular_values", 1e-10)
def _reduced_sv(rng, i, grid_n):
    f = random_gl_plus(rng)
    value = energy.reduced_energy(f, _ZERO_COUPLE).value
    return _rel(value, energy.reduced_energy_sv(singular_values(f)))


@_property("classical_lower_bound", 1e-12)
def _classical_bound(rng, i, grid_n):
    f = random_gl_plus(rng)
    w = random_classical_weights(rng)
    r = random_rotation(rng)
    x = r.transpose() @ f - Mat2.identity()
    polar = polar_decompose(f)
    u = polar.stretch - Mat2.identity()
    below = w.mu * x.frobenius_sq() - energy.shear_stretch_energy(r, f, w)
    at_polar = energy.shear_stretch_energy(polar.rotation, f, w)
    return _worst((below, abs(at_polar - w.mu * u.frobenius_sq())))


@_property("argmin_transport_to_limit_case", 1e-6, per=20)
def _transport(rng, i, grid_n):
    f, w = random_nonclassical_case(rng, bifurcation_gap=1e-3)
    full = _oracle(energy.shear_stretch_profile(f, w), grid_n)
    reduced = _oracle(energy.shear_stretch_profile(reduction_data(f, w).ftilde, _ZERO_COUPLE), grid_n)
    return bruteforce.angle_set_distance(full.angles, reduced.angles)


@_property("closed_form_vs_oracle", 1e-6)
def _closed_form_oracle(rng, i, grid_n):
    f, w = random_nonclassical_case(rng, bifurcation_gap=1e-3)
    ms = minimizers.optimal_set(f, w)
    grid = _oracle(energy.shear_stretch_profile(f, w), grid_n)
    angle_miss = bruteforce.angle_set_distance(ms.angles, grid.angles)
    # energy agreement is held three decades tighter than the angles
    return _worst((angle_miss, 1e3 * _rel(ms.energy, grid.best_value)))


@_property("minimality_over_criticals", 1e-12)
def _minimality(rng, i, grid_n):
    f = random_gl_plus(rng)
    best = minimizers.optimal_set(f, _ZERO_COUPLE).energy
    return _worst(
        best - energy.shear_stretch_energy(rotation(a), f, _ZERO_COUPLE) for a in _critical_angles(f)
    )


@_property("stationarity_at_criticals", 1e-8)
def _stationarity(rng, i, grid_n):
    # at the zero-couple critical angles and at optimal_set's angles (its float core, no energy)
    # for non-classical weights: (mu - muc) t - 2 mu vanishes on the pitchfork, t' at the polar angle
    f = random_gl_plus(rng)
    w = random_nonclassical_weights(rng)
    residuals = [minimizers.stationarity_residual(a, f) for a in _critical_angles(f)]
    _, optimal, _ = energy._optimal_angles(trace_invariants(f), w)
    residuals += [minimizers.stationarity_residual(a, f, w) for a in optimal]
    return _worst(abs(r) for r in residuals)


@_property("branch_continuity_at_threshold", 1e-5, cap=50)
def _continuity(rng, i, grid_n):
    w = random_nonclassical_weights(rng)
    return minimizers.relative_rotation_magnitude(w.singular_radius() * (1.0 + 1e-11), w)


@_property("bifurcation_sharpness", 0.0, cap=1)
def _sharpness(rng, i, grid_n):
    # residual is the margin by which the quotient bound fails; 0 when it holds
    return _worst(
        0.5 * h**-0.5 - minimizers.relative_rotation_magnitude(w.singular_radius() + h, w) / h
        for w in (_ZERO_COUPLE, Weights(1.0, 0.5), Weights(2.0, 0.5))
        for h in (1e-2, 1e-4, 1e-6)
    )


@_property("skew_defect_two_roots", 1e-8, per=5)
def _skew_roots(rng, i, grid_n):
    f = random_gl_plus(rng)
    roots = bruteforce.sign_change_scan(minimizers.signed_defect_profile(f), vectorized=True)
    if len(roots) != 2:
        return math.inf
    alpha_p = polar_angle(f)
    return bruteforce.angle_set_distance(roots, [alpha_p, normalize_angle(alpha_p + math.pi)])


@_property("shear_level_consistency", 1e-10, cap=200)
def _shear_levels(rng, i, grid_n):
    gamma = rng.uniform(-6.0, 6.0)
    f = shear.simple_shear(gamma)
    lv = energy.critical_energy_levels(f)
    cs = minimizers.critical_set(f)
    assert cs.nonclassical is not None
    pairs = ((lv.w1, cs.classical_pair[1]), (lv.w2, cs.classical_pair[0]),
             (lv.w3, cs.nonclassical[0]))
    residuals = [_rel(w, energy.shear_stretch_energy(rotation(a), f, _ZERO_COUPLE)) for w, a in pairs]
    return _worst(residuals + [_rel(lv.w3, 0.5 * gamma * gamma)])


@_property("shear_arctan_identity", 1e-12, cap=1)
def _arctan_identity(rng, i, grid_n):
    # shear_solution against alpha_p = -atan(gamma / 2) and the pair {0, 2 alpha_p}
    residuals = []
    for g in np.arange(-10.0, 10.0 + 1e-9, 1e-2).tolist():
        sol = shear.shear_solution(g)
        alpha_p = -math.atan(g / 2.0)
        residuals += (bruteforce.angle_set_distance(sol.angles, (0.0, 2.0 * alpha_p)),
                      abs(sol.alpha_p - alpha_p))
    return _worst(residuals)


@_property("oracle_self_consistency", 1e-8, cap=20)
def _oracle_consistency(rng, i, grid_n):
    f, w = random_nonclassical_case(rng, bifurcation_gap=1e-3)
    profile = energy.shear_stretch_profile(f, w)
    coarse = _oracle(profile, grid_n)
    return bruteforce.angle_set_distance(coarse.angles, _oracle(profile, 2 * grid_n).angles)


@_property("log_strain_polar_optimality", 1e-5, per=10)
def _log_strain(rng, i, grid_n):
    # case i takes the weight set i mod 4, so every fourth case shares one
    while True:
        f = random_gl_plus(rng)
        sv = singular_values(f)
        if sv.sigma1 / sv.sigma2 <= 10.0:
            break
    w = _LOG_STRAIN_WEIGHTS[i % len(_LOG_STRAIN_WEIGHTS)]
    return _polar_miss(_oracle(energy.log_strain_profile(f, w), grid_n), f)


@_property("cofactor_argmin_transport", 1e-6, per=10)
def _cofactor_transport(rng, i, grid_n):
    f, w = random_nonclassical_case(rng, bifurcation_gap=1e-3)
    grid = _oracle(energy.cofactor_shear_profile(f, w), grid_n)
    ms = minimizers.optimal_set(cofactor_transform(f), w)
    return bruteforce.angle_set_distance(grid.angles, ms.angles)


@_property("classical_oracle_is_polar", 1e-6, per=5)
def _classical_oracle(rng, i, grid_n):
    f = random_gl_plus(rng)
    w = random_classical_weights(rng)
    return _polar_miss(_oracle(energy.shear_stretch_profile(f, w), grid_n), f)


@_property("log_strain_at_polar_factor", 1e-10, per=10)
def _log_strain_polar(rng, i, grid_n):
    # at the polar factor R^T F = U, whose logarithm is symmetric with eigenvalues log(sigma)
    f = random_gl_plus(rng)
    w = Weights(rng.uniform(0.1, 3.0), rng.uniform(0.0, 3.0))
    sv = singular_values(f)
    value = energy.log_strain_energy(polar_decompose(f).rotation, f, w)
    return _rel(value, w.mu * (math.log(sv.sigma1) ** 2 + math.log(sv.sigma2) ** 2))


def _stream(seed: int, name: str) -> np.random.Generator:
    """The generator run_suite draws the property `name` from."""
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def run_suite(seed: int = 0, samples: int = 300, grid_n: int = 2048) -> list[CheckResult]:
    """Run every registered property, each on its own stream `_stream(seed, name)`."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    results = []
    for prop in PROPERTIES.values():
        rng = _stream(seed, prop.name)
        residual = prop.worst(rng, prop.cases(samples), grid_n)
        results.append(CheckResult(prop.name, residual <= prop.tolerance, residual, prop.tolerance))
    return results


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:<36} max_residual={r.residual:.3e}  tol={r.tolerance:.1e}")
    n_pass = sum(1 for r in results if r.passed)
    lines.append(f"{n_pass}/{len(results)} properties passed")
    return "\n".join(lines)
