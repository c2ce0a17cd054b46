"""Tests for weight classification and the parameter rescaling."""

import numpy as np
import pytest

from cosserat2d import (
    Mat2,
    Regime,
    RequiresNonClassical,
    Weights,
    angle_set_distance,
    grid_minimize,
    polar_decompose,
    reduction_data,
    rescaled_stretch_trace,
    shear_stretch_energy,
    shear_stretch_profile,
    trace_invariants,
)
from cosserat2d.selfcheck import (
    PROPERTIES,
    random_classical_weights,
    random_gl_plus,
    random_nonclassical_case,
    random_rotation,
)

RNG = np.random.default_rng(20260812)
LIMIT = Weights(1.0, 0.0)


class TestClassify:
    @pytest.mark.parametrize(
        "mu, muc, expected",
        [
            (1.0, 1.0, Regime.CLASSICAL),
            (1.0, 0.0, Regime.NON_CLASSICAL),
            (2.0, 3.0, Regime.CLASSICAL),
            (3.0, 1.0, Regime.NON_CLASSICAL),
            (1.0, 0.999999, Regime.NON_CLASSICAL),
        ],
    )
    def test_regimes(self, mu, muc, expected):
        assert Weights(mu, muc).regime is expected

    def test_exhaustive_and_disjoint(self):
        for _ in range(200):
            w = Weights(RNG.uniform(0.05, 3.0), RNG.uniform(0.0, 3.0))
            assert w.regime is (
                Regime.CLASSICAL if w.muc >= w.mu else Regime.NON_CLASSICAL
            )

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            Weights(0.0, 1.0)
        with pytest.raises(ValueError):
            Weights(-1.0, 0.0)
        with pytest.raises(ValueError):
            Weights(1.0, -0.5)


class TestReductionData:
    def test_zero_couple_modulus_is_identity_rescaling(self):
        f = random_gl_plus(RNG)
        data = reduction_data(f, LIMIT)
        assert data.rho == 2.0
        assert data.lam == 1.0
        assert (data.ftilde - f).frobenius_norm() == 0.0

    def test_half_couple_modulus(self):
        f = Mat2.diagonal(2.0, 1.0)
        data = reduction_data(f, Weights(1.0, 0.5))
        assert data.rho == pytest.approx(4.0)
        assert data.lam == pytest.approx(2.0)
        assert (data.ftilde - Mat2.diagonal(1.0, 0.5)).frobenius_norm() < 1e-15

    def test_three_one(self):
        data = reduction_data(Mat2.identity(), Weights(3.0, 1.0))
        assert data.lam == pytest.approx(1.5)
        assert data.rho == pytest.approx(3.0)

    def test_invariants(self):
        for _ in range(200):
            f, w = random_nonclassical_case(RNG)
            data = reduction_data(f, w)
            assert data.rho == 2.0 * data.lam  # exact by construction
            assert data.lam >= 1.0
            assert data.ftilde.det() > 0.0

    def test_rejects_classical(self):
        with pytest.raises(RequiresNonClassical):
            reduction_data(Mat2.identity(), Weights(1.0, 1.0))
        with pytest.raises(RequiresNonClassical):
            reduction_data(Mat2.identity(), Weights(1.0, 2.0))


class TestRescaledStretchTrace:
    def test_examples(self):
        assert rescaled_stretch_trace(Mat2.diagonal(3.0, 3.0), Weights(1.0, 0.5)) == pytest.approx(3.0)
        assert rescaled_stretch_trace(Mat2.identity(), LIMIT) == pytest.approx(2.0)
        assert rescaled_stretch_trace(Mat2.diagonal(0.5, 0.5), LIMIT) == pytest.approx(1.0)

    def test_bifurcation_predicate_transport(self):
        for _ in range(300):
            f, w = random_nonclassical_case(RNG)
            data = reduction_data(f, w)
            direct = trace_invariants(f).tr_u >= data.rho
            rescaled = rescaled_stretch_trace(f, w) >= 2.0
            transported = trace_invariants(data.ftilde).tr_u >= 2.0 - 1e-13
            assert direct == rescaled
            # the matrix route may differ by float roundoff only at the
            # exact threshold, which random sampling does not hit
            assert rescaled == transported


class TestPolarScalingInvariance:
    def test_polar_factor_unchanged(self):
        assert PROPERTIES["polar_invariant_under_rescaling"].worst(RNG, 300) < 1e-12


class TestArgminTransport:
    def test_oracle_argmin_sets_coincide(self):
        # the original, rescaled, and limit-case energies share one argmin set
        for _ in range(20):
            f, w = random_nonclassical_case(RNG, bifurcation_gap=1e-3)
            data = reduction_data(f, w)
            scale = w.singular_radius() / w.mu
            base_profile = shear_stretch_profile(f, w)
            full = grid_minimize(base_profile, 2048, vectorized=True)
            rescaled = grid_minimize(
                lambda a: scale * base_profile(a), 2048, vectorized=True
            )
            limit = grid_minimize(
                shear_stretch_profile(data.ftilde, LIMIT), 2048, vectorized=True
            )
            assert angle_set_distance(full.angles, rescaled.angles) < 1e-6
            assert angle_set_distance(full.angles, limit.angles) < 1e-6


class TestClassicalLowerBound:
    def test_bound_and_equality_at_polar(self):
        for _ in range(300):
            f = random_gl_plus(RNG)
            w = random_classical_weights(RNG)
            r = random_rotation(RNG)
            full = shear_stretch_energy(r, f, w)
            misfit = r.transpose() @ f - Mat2.identity()
            assert full >= w.mu * misfit.frobenius_sq() - 1e-12
            polar_rot = polar_decompose(f).rotation
            at_polar = shear_stretch_energy(polar_rot, f, w)
            polar_misfit = polar_rot.transpose() @ f - Mat2.identity()
            assert at_polar == pytest.approx(
                w.mu * polar_misfit.frobenius_sq(), rel=1e-12, abs=1e-12
            )

    def test_scaling_raises_for_classical(self):
        with pytest.raises(RequiresNonClassical):
            Weights(1.0, 1.5).scaling()
        with pytest.raises(RequiresNonClassical):
            rescaled_stretch_trace(Mat2.identity(), Weights(1.0, 1.0))
