"""Tests for the closed-form critical and optimal rotation sets."""

import math

import numpy as np
import pytest

from cosserat2d import (
    Branch,
    Mat2,
    Weights,
    circular_distance,
    critical_set,
    normalize_angle,
    optimal_set,
    polar_angle,
    reduced_energy,
    relative_rotation_magnitude,
    rotation,
    shear_stretch_energy,
    signed_defect_profile,
    stationarity_residual,
    trace_invariants,
)
from cosserat2d.energy import EnergyLevels
from cosserat2d.minimizers import CriticalSet, MinimizerSet
from cosserat2d.selfcheck import PROPERTIES, random_gl_plus, random_nonclassical_case
from record_checks import check_record

LIMIT = Weights(1.0, 0.0)


class TestCriticalSet:
    def test_compressive_has_no_third_branch(self):
        cs = critical_set(Mat2.diagonal(0.5, 0.5))
        assert cs.nonclassical is None
        assert cs.classical_pair[0] == pytest.approx(0.0)
        assert cs.classical_pair[1] == pytest.approx(math.pi)

    def test_stretched_diagonal(self):
        cs = critical_set(Mat2.diagonal(3.0, 1.0))
        assert cs.nonclassical is not None
        plus, minus = cs.nonclassical
        assert plus == pytest.approx(math.pi / 3.0, abs=1e-12)
        assert minus == pytest.approx(-math.pi / 3.0, abs=1e-12)
        # the defining equation of the third branch
        f = Mat2.diagonal(3.0, 1.0)
        for a in (plus, minus):
            assert (rotation(a).transpose() @ f).trace() == pytest.approx(2.0, abs=1e-12)

    def test_identity_degenerates(self):
        cs = critical_set(Mat2.identity())
        assert cs.nonclassical == (0.0, 0.0)

    def test_angles_zero_the_derivative(self):
        # the property also checks optimal_set's angles under drawn non-classical weights
        rng = np.random.default_rng([20260813, 1])
        assert PROPERTIES["stationarity_at_criticals"].worst(rng, 300) < 1e-8


class TestRecords:
    """MinimizerSet and CriticalSet are named tuples with the fields and repr they had."""

    def test_minimizer_set(self):
        ms = optimal_set(Mat2.diagonal(3.0, 1.0), LIMIT)
        assert ms.branch is Branch.PITCHFORK
        third = 1.0471975511965979
        check_record(
            ms,
            "MinimizerSet(branch=<Branch.PITCHFORK: 'pitchfork'>, angles=(1.0471975511965979, "
            "-1.0471975511965979), energy=1.9999999999999996, beta=1.0471975511965979)",
            branch=Branch.PITCHFORK, angles=(third, -third), energy=1.9999999999999996, beta=third,
        )
        assert (ms.alpha_plus, ms.alpha_minus) == (third, -third)
        assert MinimizerSet._field_defaults == {}

    def test_classical_minimizer_set(self):
        ms = optimal_set(Mat2.identity(), Weights(1.0, 2.0))
        assert ms.branch is Branch.CLASSICAL
        check_record(
            ms, "MinimizerSet(branch=<Branch.CLASSICAL: 'classical'>, angles=(-0.0,), "
            "energy=0.0, beta=0.0)",
            branch=Branch.CLASSICAL, angles=(-0.0,), energy=0.0, beta=0.0,
        )
        assert ms.alpha_plus is ms.alpha_minus is ms.angles[0]

    def test_critical_set(self):
        cs = critical_set(Mat2.identity())
        check_record(
            cs, "CriticalSet(classical_pair=(-0.0, 3.141592653589793), nonclassical=(0.0, -0.0), "
            "levels=EnergyLevels(w1=8.0, w2=0.0, w3=0.0))",
            classical_pair=(-0.0, math.pi), nonclassical=(0.0, -0.0),
            levels=EnergyLevels(8.0, 0.0, 0.0),
        )
        assert type(cs.levels) is EnergyLevels
        assert CriticalSet._field_defaults == {}


class TestOptimalSet:
    def test_stretched_diagonal_pitchfork(self):
        ms = optimal_set(Mat2.diagonal(3.0, 1.0), LIMIT)
        assert ms.branch is Branch.PITCHFORK
        assert ms.alpha_plus == pytest.approx(math.pi / 3.0, abs=1e-12)
        assert ms.alpha_minus == pytest.approx(-math.pi / 3.0, abs=1e-12)
        assert ms.energy == pytest.approx(2.0, abs=1e-12)
        assert ms.beta == pytest.approx(math.acos(0.5), abs=1e-12)

    def test_general_weights_pitchfork(self):
        ms = optimal_set(Mat2.diagonal(3.0, 3.0), Weights(1.0, 0.5))
        assert ms.branch is Branch.PITCHFORK
        assert ms.beta == pytest.approx(math.acos(4.0 / 6.0), abs=1e-12)

    def test_classical_weights_give_polar(self):
        rng = np.random.default_rng([20260813, 2])
        for _ in range(100):
            f = random_gl_plus(rng)
            ms = optimal_set(f, Weights(1.0, 1.0))
            assert ms.branch is Branch.CLASSICAL
            assert ms.angles == (polar_angle(f),)
            assert ms.beta == 0.0

    def test_energy_equals_reduced(self):
        # equal bits: the non-classical reduced_energy rounds exactly like
        # shear_stretch_energy(rotation(a), f, w), at any scale of F
        rng = np.random.default_rng([20260813, 3])
        for _ in range(300):
            f, w = random_nonclassical_case(rng)
            for g in (f, f * 10.0 ** rng.uniform(-3.0, 3.0)):
                ms = optimal_set(g, w)
                red = reduced_energy(g, w)
                assert ms.energy == red.value
                assert ms.branch is red.branch

    def test_energy_realized_at_every_listed_angle(self):
        rng = np.random.default_rng([20260813, 4])
        for _ in range(300):
            f, w = random_nonclassical_case(rng)
            ms = optimal_set(f, w)
            for a in ms.angles:
                value = shear_stretch_energy(rotation(a), f, w)
                assert value == pytest.approx(ms.energy, rel=1e-12, abs=1e-12)

    def test_pitchfork_angles_are_symmetric_about_polar(self):
        rng = np.random.default_rng([20260813, 5])
        for _ in range(300):
            f, w = random_nonclassical_case(rng)
            ms = optimal_set(f, w)
            if ms.branch is Branch.PITCHFORK:
                ap = polar_angle(f)
                assert circular_distance(ms.alpha_plus, ap + ms.beta) < 1e-12
                assert circular_distance(ms.alpha_minus, ap - ms.beta) < 1e-12

    def test_degenerate_pitchfork_at_threshold(self):
        # exactly at tr U = rho both angles coincide with the polar angle
        # and the branch tag stays pitchfork (right-continuity)
        f0 = Mat2.diagonal(1.0, 1.0)
        ms = optimal_set(f0, LIMIT)  # tr U = 2 = rho
        assert ms.branch is Branch.PITCHFORK
        assert ms.alpha_plus == ms.alpha_minus == 0.0
        assert ms.beta == 0.0

    def test_branch_continuity_along_ray(self):
        f0 = Mat2(1.2, 0.4, -0.1, 0.8)
        w = Weights(1.0, 0.3)
        rho = w.singular_radius()
        tr0 = trace_invariants(f0).tr_u
        previous = math.inf
        for delta in (1e-2, 1e-4, 1e-6, 1e-8):
            ms = optimal_set((rho / tr0) * (1.0 + delta) * f0, w)
            assert ms.branch is Branch.PITCHFORK
            assert ms.beta < previous
            assert circular_distance(ms.alpha_plus, polar_angle(f0)) < 2.0 * math.sqrt(delta)
            previous = ms.beta
        assert previous < 2e-4

    def test_minimality_over_criticals(self):
        rng = np.random.default_rng([20260813, 6])
        assert PROPERTIES["minimality_over_criticals"].worst(rng, 300) <= 1e-12


class TestRelativeRotationMagnitude:
    def test_branch_function(self):
        w = LIMIT
        assert relative_rotation_magnitude(1.0, w) == 0.0
        assert relative_rotation_magnitude(2.0, w) == 0.0
        assert relative_rotation_magnitude(4.0, w) == pytest.approx(math.pi / 3.0)

    def test_unbounded_right_derivative(self):
        # one case, no draws: the quotient is at least 0.5 / sqrt(h) at h = 1e-2, 1e-4
        # and 1e-6 above the radius, for the zero-couple limit and two other weights
        assert PROPERTIES["bifurcation_sharpness"].worst(None, 1) <= 0.0

    def test_rejects_nonpositive_trace(self):
        with pytest.raises(ValueError):
            relative_rotation_magnitude(0.0, LIMIT)


class TestStationarityResidual:
    def test_zero_at_polar_pair(self):
        rng = np.random.default_rng([20260813, 7])
        for _ in range(100):
            f = random_gl_plus(rng)
            ap = polar_angle(f)
            assert abs(stationarity_residual(ap, f)) < 1e-10
            assert abs(stationarity_residual(normalize_angle(ap + math.pi), f)) < 1e-10

    def test_zero_on_trace_two_set(self):
        assert stationarity_residual(math.pi / 3.0, Mat2.diagonal(3.0, 1.0)) == pytest.approx(
            0.0, abs=1e-12
        )


class TestMicrostrainSymmetryDefect:
    """|signed_defect_profile(f)(a)|, the skew entry of R(a)^T F in magnitude."""

    def test_zero_at_polar_and_opposite(self):
        rng = np.random.default_rng([20260813, 9])
        for _ in range(100):
            f = random_gl_plus(rng)
            alpha_p = polar_angle(f)
            defect = signed_defect_profile(f)
            assert abs(defect(alpha_p)) < 1e-14
            assert abs(defect(normalize_angle(alpha_p + math.pi))) < 1e-14

    def test_nonclassical_minimizer_example(self):
        value = abs(signed_defect_profile(Mat2.diagonal(3.0, 1.0))(math.pi / 3.0))
        assert value == pytest.approx(math.sqrt(3.0), abs=1e-12)

    def test_relative_angle_formula(self):
        # |sin(beta)| * tr U / 2, beta the rotation of R(a) relative to the polar factor
        rng = np.random.default_rng([20260813, 10])
        for _ in range(300):
            f = random_gl_plus(rng)
            a = rng.uniform(-math.pi, math.pi)
            inv = trace_invariants(f)
            expected = abs(math.sin(polar_angle(f) - a)) * inv.tr_u / 2.0
            assert abs(signed_defect_profile(f)(a)) == pytest.approx(expected, abs=1e-10)


class TestOracleAgreementSpot:
    def test_classical_weights_pick_polar(self):
        # a case whose oracle finds other than one minimum has residual inf
        rng = np.random.default_rng([20260813, 11])
        assert PROPERTIES["classical_oracle_is_polar"].worst(rng, 20, 2048) < 1e-6
