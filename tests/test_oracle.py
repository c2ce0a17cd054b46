"""Tests for the brute-force grid minimizer and root scanner."""

import math

import numpy as np
import pytest

from cosserat2d import (
    Mat2,
    NonFiniteEnergy,
    Weights,
    angle_set_distance,
    circular_distance,
    grid_minimize,
    log_strain_profile,
    normalize_angle,
    polar_angle,
    shear_stretch_energy,
    shear_stretch_profile,
    sign_change_scan,
    signed_defect_profile,
    stationarity_residual,
    rotation,
)
from cosserat2d.bruteforce import MIN_GRID_N, _bisect, _evaluate_grid, _sample
from cosserat2d.energy import UNDEFINED_LOG_ENERGY
from cosserat2d.selfcheck import random_gl_plus, random_nonclassical_case

RNG = np.random.default_rng(20260814)
LIMIT = Weights(1.0, 0.0)


class TestGridMinimize:
    def test_single_classical_minimum(self):
        grid = grid_minimize(
            shear_stretch_profile(Mat2.diagonal(2.0, 1.0), Weights(1.0, 1.0)),
            vectorized=True,
        )
        assert len(grid.minima) == 1
        assert grid.angles[0] == pytest.approx(0.0, abs=1e-8)
        assert not grid.plateau

    def test_two_pitchfork_minima(self):
        grid = grid_minimize(
            shear_stretch_profile(Mat2.diagonal(3.0, 1.0), LIMIT), vectorized=True
        )
        assert len(grid.minima) == 2
        assert angle_set_distance(grid.angles, (-math.pi / 3.0, math.pi / 3.0)) < 1e-8
        v1, v2 = (v for _, v in grid.minima)
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_scalar_callable_path(self):
        f = Mat2.diagonal(3.0, 1.0)
        grid = grid_minimize(
            lambda a: shear_stretch_energy(rotation(a), f, LIMIT), grid_n=720
        )
        assert angle_set_distance(grid.angles, (-math.pi / 3.0, math.pi / 3.0)) < 1e-8

    def test_constant_function_plateau(self):
        grid = grid_minimize(lambda a: 5.0, grid_n=720)
        assert grid.plateau
        assert len(grid.minima) == 1
        assert grid.minima[0][1] == 5.0

    def test_minimum_at_pi_reported_once(self):
        grid = grid_minimize(lambda a: -math.cos(a - math.pi), grid_n=720)
        assert len(grid.minima) == 1
        assert abs(grid.angles[0]) == pytest.approx(math.pi, abs=1e-8)

    def test_reported_values_near_best(self):
        for _ in range(20):
            f, w = random_nonclassical_case(RNG, bifurcation_gap=1e-3)
            grid = grid_minimize(shear_stretch_profile(f, w), 2048, vectorized=True)
            for _, value in grid.minima:
                assert value <= grid.best_value + grid.value_tol

    def test_minima_pairwise_separated(self):
        for _ in range(20):
            f, w = random_nonclassical_case(RNG, bifurcation_gap=1e-3)
            grid = grid_minimize(shear_stretch_profile(f, w), 2048, vectorized=True)
            angles = grid.angles
            for i in range(len(angles)):
                for j in range(i + 1, len(angles)):
                    d = abs(
                        math.remainder(angles[i] - angles[j], math.tau)
                    )
                    assert d > 2.0 * grid.angle_tol

    def test_self_consistency_under_step_halving(self):
        for _ in range(10):
            f, w = random_nonclassical_case(RNG, bifurcation_gap=1e-3)
            profile = shear_stretch_profile(f, w)
            coarse = grid_minimize(profile, 2048, vectorized=True)
            fine = grid_minimize(profile, 4096, vectorized=True)
            assert angle_set_distance(coarse.angles, fine.angles) < 1e-8

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            grid_minimize(lambda a: 0.0, grid_n=100)

    def test_non_finite_energy(self):
        with pytest.raises(NonFiniteEnergy):
            grid_minimize(lambda a: float("nan"), grid_n=720)
        with pytest.raises(NonFiniteEnergy):
            grid_minimize(
                lambda a: float("inf") if a > 0 else 1.0, grid_n=720
            )
        with pytest.raises(NonFiniteEnergy) as exc:
            grid_minimize(lambda a: np.where(a > 0, np.inf, 1.0), grid_n=720, vectorized=True)
        # plain floats in the message, not numpy scalar reprs
        first_positive = float(-math.pi + math.tau / 720 * 361.0)
        assert str(exc.value) == f"energy is inf at angle {first_positive!r}"
        assert "np.float64(" not in str(exc.value)

    def test_large_grids_evaluated_in_blocks(self):
        profile = shear_stretch_profile(Mat2(1.4, 0.2, -0.3, 0.9), Weights(1.2, 0.1))
        for grid_n, sizes in ((20000, [4096] * 4 + [3616]), (4096, [4096]), (720, [720])):
            seen = []

            def energy(alpha):
                seen.append(np.size(alpha))
                return profile(alpha)

            values = _grid_samples(energy, grid_n)
            assert seen == sizes
            one_shot = profile(-math.pi + math.tau / grid_n * (1.0 + np.arange(grid_n)))
            assert values.tobytes() == one_shot.tobytes()

    def test_deterministic(self):
        profile = shear_stretch_profile(Mat2(1.4, 0.2, -0.3, 0.9), Weights(1.2, 0.1))
        g1 = grid_minimize(profile, 2048, vectorized=True)
        g2 = grid_minimize(profile, 2048, vectorized=True)
        assert g1 == g2


class TestSignChangeScan:
    def test_sine(self):
        roots = sign_change_scan(math.sin)
        assert len(roots) == 2
        assert angle_set_distance(roots, (0.0, math.pi)) < 1e-9

    def test_skew_defect_of_identity(self):
        roots = sign_change_scan(signed_defect_profile(Mat2.identity()), vectorized=True)
        assert angle_set_distance(roots, (0.0, math.pi)) < 1e-9

    def test_stationarity_roots(self):
        f = Mat2.diagonal(3.0, 1.0)
        roots = sign_change_scan(lambda a: stationarity_residual(a, f))
        assert len(roots) == 4
        expected = (0.0, math.pi, math.pi / 3.0, -math.pi / 3.0)
        assert angle_set_distance(roots, expected) < 1e-9

    def test_skew_defect_always_two_roots(self):
        for _ in range(100):
            f = random_gl_plus(RNG)
            roots = sign_change_scan(signed_defect_profile(f), vectorized=True)
            assert len(roots) == 2
            expected = (polar_angle(f), polar_angle(f) + math.pi)
            assert angle_set_distance(roots, expected) < 1e-8

    def test_exact_zero_at_node(self):
        roots = sign_change_scan(lambda a: math.sin(a - math.pi / 2.0), grid_n=720)
        # 720 cells put nodes exactly on pi/2 up to float formation
        assert len(roots) == 2
        assert angle_set_distance(roots, (math.pi / 2.0, -math.pi / 2.0)) < 1e-9

    def test_non_finite(self):
        with pytest.raises(NonFiniteEnergy, match=r"^energy is nan at angle -3\.14"):
            sign_change_scan(lambda a: float("nan"))
        # finite on the grid, NaN between samples: bisection reports the same way
        with pytest.raises(NonFiniteEnergy) as exc:
            sign_change_scan(
                lambda a: np.sin(a) if np.ndim(a) else float("nan"), 720, vectorized=True
            )
        # sin is exactly 0 at sample 360; the first bisected cell is the seam cell
        h = math.tau / 720
        a0 = -math.pi + h * 719
        assert str(exc.value) == f"energy is nan at angle {0.5 * (a0 + (a0 + h))!r}"

    def test_both_scans_share_the_grid_floor(self):
        assert MIN_GRID_N == 360
        for scan in (grid_minimize, sign_change_scan):
            with pytest.raises(ValueError, match="^grid_n must be at least 360, got 359$"):
                scan(math.sin, grid_n=MIN_GRID_N - 1)
            assert scan(math.sin, grid_n=MIN_GRID_N)


def _grid_samples(energy, grid_n):
    """The samples grid_minimize takes of a vectorized energy: angles -pi + h * (1 + i)."""
    return _sample(energy, grid_n, True, 1.0)[2]


class TestRefinement:
    """Brent refinement from the best sample of each cluster."""

    @staticmethod
    def _landscapes():
        a0 = 0.7
        seam = -math.pi + 0.5 * math.tau / 720  # between the samples at pi and -pi + h
        cliff = 0.4
        log_profile = log_strain_profile(Mat2.diagonal(1.2, 1.0 / 1.2), Weights(1.0, 0.5))

        def log_sentinel_floor(a):
            value = log_profile(a)
            return np.where(value == UNDEFINED_LOG_ENERGY, -1.0, value)

        return {
            "kink": lambda a: np.abs(np.sin((a - a0) / 2.0)),
            "kink_across_seam": lambda a: np.abs(np.sin((a - seam) / 2.0)),
            # the sentinel moved below every defined value makes a flat floor
            # with a step up at each end of the undefined arc
            "log_sentinel_floor": log_sentinel_floor,
            "cliff": lambda a: np.where(np.asarray(a) < cliff, 1e9, (np.asarray(a) - cliff) ** 2),
            "constant": lambda a: np.full(np.shape(a), 5.0)[()],
            "cusp": lambda a: np.sqrt(np.abs(np.asarray(a) - a0)),
            # many shallow local minima inside every grid cell
            "rough": lambda a: np.abs(a - a0) + 1e-3 * np.abs(np.sin(3000.0 * np.asarray(a))),
        }

    @pytest.mark.parametrize(
        "name",
        ["kink", "kink_across_seam", "log_sentinel_floor", "cliff", "constant", "cusp", "rough"],
    )
    def test_never_above_best_sample(self, name):
        energy = self._landscapes()[name]
        for grid_n in (720, 4096, 5000):
            grid = grid_minimize(energy, grid_n, vectorized=True)
            assert grid.best_value <= float(_grid_samples(energy, grid_n).min())
            for angle, value in grid.minima:
                assert float(energy(angle)) == value
            # the safeguards keep the parabolic steps from stalling refinement
            assert grid.refine_evaluations <= 60 * grid.clusters

    def test_kink_minimum(self):
        landscapes = self._landscapes()
        for name, expected in (("kink", 0.7), ("kink_across_seam", -math.pi + math.pi / 720)):
            grid = grid_minimize(landscapes[name], 720, vectorized=True)
            assert len(grid.minima) == 1
            assert circular_distance(grid.angles[0], expected) < 1e-7

    def test_sentinel_floor_stays_on_floor(self):
        profile = self._landscapes()["log_sentinel_floor"]
        grid = grid_minimize(profile, 2880, vectorized=True)
        assert grid.minima
        assert all(value == -1.0 for _, value in grid.minima)
        # the floor is the undefined arc around the polar angle + pi
        for angle in grid.angles:
            assert circular_distance(angle, math.pi) < 0.2

    def test_cliff_approached_from_the_defined_side(self):
        grid = grid_minimize(self._landscapes()["cliff"], 720, vectorized=True)
        assert len(grid.minima) == 1
        angle, value = grid.minima[0]
        # Brent ends next to the step; the parabola polish (spacing 1e-5)
        # sees the step as curvature and may move up to 1e-5 to its right
        assert 0.4 <= angle <= 0.4 + 2e-5
        assert value <= 4e-10

    def test_refine_evaluations_counted(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            profile = shear_stretch_profile(*random_nonclassical_case(rng, bifurcation_gap=1e-3))
            scalar_calls = 0

            def energy(alpha):
                nonlocal scalar_calls
                scalar_calls += isinstance(alpha, float)
                return profile(alpha)

            grid = grid_minimize(energy, 720, vectorized=True)
            assert grid.refine_evaluations == scalar_calls
            assert grid.clusters >= len(grid.minima)

    def test_refinement_cost_per_minimum(self):
        # well below the ~40 a golden-section search to a 1e-10 bracket needs
        rng = np.random.default_rng(20261018)
        for k in range(60):
            if k % 2:
                f, w = random_nonclassical_case(rng, bifurcation_gap=1e-3)
            else:
                f, w = random_gl_plus(rng), Weights(1.0, 1.0)
            grid = grid_minimize(shear_stretch_profile(f, w), 720, vectorized=True)
            assert grid.refine_evaluations <= 25 * len(grid.minima)


def _reference_scan(f, grid_n=1440, vectorized=False):
    """sign_change_scan as a per-cell loop, the form it had before."""
    h = math.tau / grid_n
    alphas = -math.pi + h * np.arange(grid_n)
    values = _evaluate_grid(f, alphas, vectorized)
    roots = []
    for i in range(grid_n):
        a0 = float(alphas[i])
        v0 = float(values[i])
        a1 = a0 + h
        v1 = float(values[(i + 1) % grid_n])
        if v0 == 0.0:
            roots.append(normalize_angle(a0))
        elif v0 * v1 < 0.0:
            roots.append(normalize_angle(_bisect(f, a0, a1, v0, 1e-10)))
    roots.sort()
    deduped = []
    for r in roots:
        if all(circular_distance(r, q) > 5e-9 for q in deduped):
            deduped.append(r)
    return deduped


class TestSignChangeScanMatchesLoop:
    """The array detection finds the same cells, so the roots are bit-identical."""

    def test_skew_defect_profiles(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            f = random_gl_plus(rng)
            for grid_n in (360, 1440):
                profile = signed_defect_profile(f)
                expected = _reference_scan(profile, grid_n, vectorized=True)
                assert sign_change_scan(profile, grid_n, vectorized=True) == expected

    def test_exact_zero_at_sample(self):
        grid_n = 1440
        node = float(-math.pi + math.tau / grid_n * np.arange(grid_n)[300])
        f = lambda a: np.sin(np.asarray(a) - node)  # noqa: E731
        roots = sign_change_scan(f, grid_n, vectorized=True)
        assert node in roots
        assert roots == _reference_scan(f, grid_n, vectorized=True)

    def test_root_in_seam_cell(self):
        grid_n = 720
        h = math.tau / grid_n
        root = math.pi - 0.3 * h  # between the last sample pi - h and pi
        f = lambda a: np.sin(np.asarray(a) - root)  # noqa: E731
        roots = sign_change_scan(f, grid_n, vectorized=True)
        assert any(circular_distance(r, root) < 1e-9 for r in roots)
        assert roots == _reference_scan(f, grid_n, vectorized=True)

    def test_scalar_path(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            f = random_gl_plus(rng)
            residual = lambda a, f=f: stationarity_residual(a, f)  # noqa: E731
            assert sign_change_scan(residual, 720) == _reference_scan(residual, 720)
