"""Tests for the simple-shear specialization and the glide family.

The glide family is the simple shear perturbed by kappa * diag(1, -1),
Mat2(1 + kappa, gamma, 0, 1 - kappa) with |kappa| < 1: it keeps tr F = 2
and the stretch trace of the shear, so the identity stays optimal.
"""

import math

import numpy as np
import pytest

from cosserat2d import (
    Mat2,
    Weights,
    angle_set_distance,
    critical_energy_levels,
    critical_set,
    grid_minimize,
    optimal_set,
    rotation,
    shear_solution,
    shear_stretch_energy,
    shear_stretch_profile,
    signed_defect_profile,
    simple_shear,
    trace_invariants,
)
from cosserat2d import shear
from cosserat2d.selfcheck import PROPERTIES
from cosserat2d.shear import ShearSolution
from record_checks import check_record

LIMIT = Weights(1.0, 0.0)


class TestSimpleShear:
    def test_zero_is_identity(self):
        assert (simple_shear(0.0) - Mat2.identity()).frobenius_norm() == 0.0

    def test_entries(self):
        f = simple_shear(2.0)
        assert f.entries() == (1.0, 2.0, 0.0, 1.0)

    def test_volume_preserving(self):
        for gamma in np.linspace(-8.0, 8.0, 33):
            f = simple_shear(gamma)
            assert f.det() == 1.0
            inv = trace_invariants(f)
            assert inv.tr_f == 2.0
            assert inv.tr_jf == gamma
            assert inv.tr_u == pytest.approx(math.sqrt(4.0 + gamma * gamma), rel=1e-15)


class TestShearSolution:
    def test_record(self):
        check_record(
            shear_solution(0.0),
            "ShearSolution(gamma=0.0, alpha_p=-0.0, angles=(0.0, -0.0), energy=0.0, tr_u=2.0)",
            gamma=0.0, alpha_p=-0.0, angles=(0.0, -0.0), energy=0.0, tr_u=2.0,
        )
        assert ShearSolution._field_defaults == {}

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf, "1e400"])
    def test_rejects_what_simple_shear_rejects(self, gamma):
        for call in (simple_shear, shear_solution):
            with pytest.raises(ValueError, match=r"^matrix entry e12 must be finite, got"):
                call(gamma)

    def test_gamma_two(self):
        sol = shear_solution(2.0)
        assert sol.alpha_p == pytest.approx(-math.pi / 4.0, abs=1e-14)
        assert angle_set_distance(sol.angles, (0.0, -math.pi / 2.0)) < 1e-14
        assert sol.energy == pytest.approx(2.0, abs=1e-13)
        assert sol.tr_u == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-14)

    def test_gamma_zero_degenerate(self):
        sol = shear_solution(0.0)
        assert sol.angles == (0.0, 0.0)
        assert sol.energy == 0.0

    def test_relative_angle_identity(self):
        # |beta| = arccos(2 / sqrt(4 + g^2)) = arctan(g / 2)
        for gamma in (0.5, 1.0, 2.0, -3.0):
            f = simple_shear(gamma)
            inv = trace_invariants(f)
            beta = math.acos(2.0 / inv.tr_u)
            assert beta == pytest.approx(math.atan(abs(gamma) / 2.0), abs=1e-14)

    def test_identity_always_optimal(self):
        for gamma in np.linspace(-6.0, 6.0, 25):
            sol = shear_solution(gamma)
            assert min(abs(a) for a in sol.angles) < 1e-12
            assert sol.energy == pytest.approx(0.5 * gamma * gamma, abs=1e-12)

    def test_other_angle_is_twice_polar(self):
        for gamma in (-4.0, -1.0, 0.5, 3.0):
            sol = shear_solution(gamma)
            others = [a for a in sol.angles if abs(a) > 1e-12]
            if gamma != 0.0:
                assert len(others) == 1
                assert others[0] == pytest.approx(2.0 * sol.alpha_p, abs=1e-12)

    def test_agrees_with_oracle(self):
        sol = shear_solution(2.0)
        grid = grid_minimize(
            shear_stretch_profile(simple_shear(2.0), LIMIT), vectorized=True
        )
        assert angle_set_distance(sol.angles, grid.angles) < 1e-7

    def test_levels_two_ways(self):
        for gamma in np.linspace(-6.0, 6.0, 41):
            f = simple_shear(gamma)
            lv = critical_energy_levels(f)
            cs = critical_set(f)
            assert lv.w1 >= lv.w2 >= lv.w3
            assert lv.w3 == pytest.approx(0.5 * gamma * gamma, abs=1e-10)
            by_eval_w2 = shear_stretch_energy(rotation(cs.classical_pair[0]), f, LIMIT)
            by_eval_w1 = shear_stretch_energy(rotation(cs.classical_pair[1]), f, LIMIT)
            assert lv.w2 == pytest.approx(by_eval_w2, rel=1e-10, abs=1e-10)
            assert lv.w1 == pytest.approx(by_eval_w1, rel=1e-10, abs=1e-10)
            assert cs.nonclassical is not None
            by_eval_w3 = shear_stretch_energy(rotation(cs.nonclassical[0]), f, LIMIT)
            assert lv.w3 == pytest.approx(by_eval_w3, rel=1e-10, abs=1e-10)

    def test_microstrain_not_symmetric_for_nonzero_shear(self):
        for gamma in (0.5, 1.0, 2.0, -3.0):
            f = simple_shear(gamma)
            for a in shear_solution(gamma).angles:
                assert abs(signed_defect_profile(f)(a)) > 0.1 * abs(gamma)


class TestArctanIdentity:
    def test_dense_sweep(self):
        # one case: shear_solution at gamma from -10 to 10 in steps of 0.01,
        # against alpha_p = -atan(gamma / 2) and the pair {0, 2 alpha_p}; the
        # worst miss, 1.07e-13, is beta = acos(2 / tr U) near gamma = 0
        rng = np.random.default_rng([20260815, 1])
        assert PROPERTIES["shear_arctan_identity"].worst(rng, 1) < 1e-12

    @pytest.mark.parametrize("field", ["alpha_p", "angles"])
    def test_checks_the_package_shear_solution(self, monkeypatch, field):
        def moved(gamma):
            sol = shear_solution(gamma)
            if field == "alpha_p":
                return sol._replace(alpha_p=sol.alpha_p + 1e-9)
            return sol._replace(angles=(sol.angles[0] + 1e-9, sol.angles[1]))

        monkeypatch.setattr(shear, "shear_solution", moved)
        rng = np.random.default_rng([20260815, 1])
        assert PROPERTIES["shear_arctan_identity"].worst(rng, 1) > 1e-12


class TestGlideFamily:
    def test_determinant_and_invariant_traces(self):
        f = Mat2(1.0 + 0.5, 2.0, 0.0, 1.0 - 0.5)
        assert f.det() == pytest.approx(0.75, abs=1e-15)
        inv = trace_invariants(f)
        assert inv.tr_u == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-14)
        assert inv.tr_f == 2.0
        assert inv.tr_jf == 2.0

    def test_identity_still_optimal_near_degeneracy(self):
        f = Mat2(1.0 + 0.9, 1.0, 0.0, 1.0 - 0.9)
        grid = grid_minimize(shear_stretch_profile(f, LIMIT), vectorized=True)
        assert min(abs(a) for a in grid.angles) < 1e-7


class TestCancellationCheck:
    """On the set tr F = 2, tr U >= 2 one optimal rotation cancels the polar
    rotation: the identity belongs to the zero-couple-modulus optimal set."""

    def test_simple_shears(self):
        for gamma in (-5.0, -0.5, 0.0, 0.5, 5.0):
            assert min(abs(a) for a in optimal_set(simple_shear(gamma), LIMIT).angles) < 1e-12

    def test_glide_family(self):
        for kappa in (-0.9, -0.3, 0.4, 0.99):
            f = Mat2(1.0 + kappa, 2.0, 0.0, 1.0 - kappa)
            assert min(abs(a) for a in optimal_set(f, LIMIT).angles) < 1e-12

    def test_trace_condition_implies_stretch_condition(self):
        # tr U^2 = tr F^2 + tr JF^2, so tr F = 2 already forces tr U >= 2
        rng = np.random.default_rng([20260815, 2])
        for _ in range(100):
            x = rng.uniform(-0.8, 0.8)
            f = Mat2(1.0 + x, rng.uniform(-2, 2), rng.uniform(-2, 2), 1.0 - x)
            if f.det() <= 0.05:
                continue
            inv = trace_invariants(f)
            assert abs(inv.tr_f - 2.0) <= 1e-10 and inv.tr_u >= 2.0 - 1e-12

    def test_cancellation_implies_zero_in_argmin(self):
        for gamma, kappa in ((1.0, 0.0), (2.0, 0.5), (-3.0, -0.2)):
            f = Mat2(1.0 + kappa, gamma, 0.0, 1.0 - kappa)
            inv = trace_invariants(f)
            assert inv.tr_f == 2.0 and inv.tr_u >= 2.0
            grid = grid_minimize(shear_stretch_profile(f, LIMIT), vectorized=True)
            assert min(abs(a) for a in grid.angles) < 1e-7
