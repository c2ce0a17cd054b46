"""Tests for weight classification and the parameter rescaling."""

import copy
import dataclasses
import math
import pickle

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
    shear_stretch_energy,
    shear_stretch_profile,
    stationarity_residual,
    trace_invariants,
)
from cosserat2d import selfcheck, shear
from cosserat2d.selfcheck import (
    random_classical_weights,
    random_gl_plus,
    random_nonclassical_case,
    random_rotation,
)
from cosserat2d.weights import _ZERO_COUPLE, ReductionData
from record_checks import check_record

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
        rng = np.random.default_rng([20260812, 1])
        for _ in range(200):
            w = Weights(rng.uniform(0.05, 3.0), rng.uniform(0.0, 3.0))
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



class TestWeightsValue:
    """Weights is an immutable value whose regime and scaling are fixed at construction."""

    def test_value_semantics(self):
        w = Weights(2, np.float64(0.5))
        assert repr(w) == "Weights(mu=2.0, muc=0.5)"
        assert type(w.mu) is float and type(w.muc) is float
        assert w == Weights(2.0, 0.5) and w != Weights(2.0, 0.25)
        assert hash(w) == hash((2.0, 0.5)) == hash(dataclasses.astuple(w))
        assert [f.name for f in dataclasses.fields(w)] == ["mu", "muc"]
        assert not hasattr(w, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.mu = 3.0
        # nor the regime slot, nor new attributes; CPython 3.11's frozen-slots
        # __setattr__ raises TypeError for a name that is not a field
        for name, value in (("regime", Regime.CLASSICAL), ("extra", 1.0)):
            with pytest.raises((AttributeError, TypeError)):
                setattr(w, name, value)
        assert w.regime is Regime.NON_CLASSICAL

    def test_regime_members_are_the_public_ones(self):
        # the per-call paths compare against members bound at import
        assert Weights(1, 0.5).regime is Regime.NON_CLASSICAL
        assert Weights(1, 1).regime is Regime.CLASSICAL

    def test_muc_defaults_to_zero(self):
        assert Weights(1.5) == Weights(1.5, 0.0) == Weights(mu=1.5)
        assert Weights(1.5).regime is Regime.NON_CLASSICAL
        assert dataclasses.fields(Weights)[1].default == 0.0

    @pytest.mark.parametrize("clone", [
        lambda w: pickle.loads(pickle.dumps(w)),
        copy.copy,
        copy.deepcopy,
        dataclasses.replace,
    ], ids=["pickle", "copy", "deepcopy", "replace"])
    @pytest.mark.parametrize("w", [Weights(2.0, 0.5), Weights(1.0, 1.0), Weights(0.3)])
    def test_clones_keep_regime_and_scaling(self, clone, w):
        c = clone(w)
        assert c == w and c.regime is w.regime
        if w.regime is Regime.CLASSICAL:
            with pytest.raises(RequiresNonClassical):
                c.scaling()
            with pytest.raises(RequiresNonClassical):
                c.singular_radius()
        else:
            assert c.scaling() == w.scaling()
            # the stored radius keeps the bits of twice the scaling parameter
            assert c.singular_radius().hex() == (2.0 * w.scaling()).hex()

    def test_replace_fixes_the_new_regime(self):
        w = dataclasses.replace(Weights(2.0, 0.5), muc=3.0)
        assert w == Weights(2.0, 3.0) and w.regime is Regime.CLASSICAL
        with pytest.raises(RequiresNonClassical):
            w.singular_radius()
        with pytest.raises(ValueError, match="muc must be finite and nonnegative, got -1.0"):
            dataclasses.replace(w, muc=-1.0)

    @pytest.mark.parametrize("args, message", [
        ((math.nan,), "mu must be finite and positive, got nan"),
        ((math.inf,), "mu must be finite and positive, got inf"),
        ((-1.0,), "mu must be finite and positive, got -1.0"),
        ((0,), "mu must be finite and positive, got 0"),
        (("nan",), "mu must be finite and positive, got 'nan'"),
        ((1.0, math.nan), "muc must be finite and nonnegative, got nan"),
        ((1.0, math.inf), "muc must be finite and nonnegative, got inf"),
        ((1.0, -0.5), "muc must be finite and nonnegative, got -0.5"),
        ((1.0, "-inf"), "muc must be finite and nonnegative, got '-inf'"),
        (("abc",), "could not convert string to float: 'abc'"),
        # both entries are converted before either is checked
        ((-1.0, "x"), "could not convert string to float: 'x'"),
    ])
    def test_error_texts(self, args, message):
        with pytest.raises(ValueError) as info:
            Weights(*args)
        assert str(info.value) == message

    def test_derived_values_match_the_formulas_bit_for_bit(self):
        rng = np.random.default_rng(20261018)
        mus = 10.0 ** rng.uniform(-6.0, 6.0, 10_000)
        kinds = rng.integers(0, 5, 10_000)
        for mu, kind in zip(mus.tolist(), kinds.tolist()):
            muc = (0.0, mu, math.nextafter(mu, 0.0), mu * rng.uniform(0.0, 1.0),
                   mu * rng.uniform(1.0, 3.0))[kind]
            w = Weights(mu, muc)
            classical = muc >= mu
            assert w.regime is (Regime.CLASSICAL if classical else Regime.NON_CLASSICAL)
            if classical:
                with pytest.raises(RequiresNonClassical, match="scaling parameter needs mu > muc"):
                    w.scaling()
                with pytest.raises(RequiresNonClassical):
                    w.singular_radius()
            else:
                assert w.scaling().hex() == (mu / (mu - muc)).hex()
                assert w.singular_radius().hex() == (2.0 * (mu / (mu - muc))).hex()

    def test_one_zero_couple_pair(self):
        # the limit pair is one object, shared by every module that uses it
        assert _ZERO_COUPLE == Weights(1.0, 0.0)
        assert stationarity_residual.__defaults__[0] is _ZERO_COUPLE
        assert shear._ZERO_COUPLE is _ZERO_COUPLE
        assert selfcheck._ZERO_COUPLE is _ZERO_COUPLE


class TestReductionData:
    def test_record(self):
        data = reduction_data(Mat2.identity(), Weights(2.0, 1.0))
        check_record(
            data,
            "ReductionData(rho=4.0, lam=2.0, ftilde=Mat2(e11=0.5, e12=0.0, e21=0.0, e22=0.5))",
            rho=4.0, lam=2.0, ftilde=Mat2.diagonal(0.5, 0.5),
        )
        assert ReductionData._field_defaults == {}

    def test_zero_couple_modulus_is_identity_rescaling(self):
        rng = np.random.default_rng([20260812, 2])
        f = random_gl_plus(rng)
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
        rng = np.random.default_rng([20260812, 3])
        for _ in range(200):
            f, w = random_nonclassical_case(rng)
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
    """The stretch trace of the shrunk gradient, tr U / lam."""

    @staticmethod
    def rescaled_tr_u(f, w):
        return trace_invariants(reduction_data(f, w).ftilde).tr_u

    def test_examples(self):
        assert self.rescaled_tr_u(Mat2.diagonal(3.0, 3.0), Weights(1.0, 0.5)) == pytest.approx(3.0)
        assert self.rescaled_tr_u(Mat2.identity(), LIMIT) == pytest.approx(2.0)
        assert self.rescaled_tr_u(Mat2.diagonal(0.5, 0.5), LIMIT) == pytest.approx(1.0)

    def test_bifurcation_predicate_transport(self):
        # tr U >= rho exactly when the rescaled trace is >= 2; the matrix route
        # may differ by float roundoff only at the exact threshold, which
        # random sampling does not hit
        rng = np.random.default_rng([20260812, 4])
        for _ in range(300):
            f, w = random_nonclassical_case(rng)
            direct = trace_invariants(f).tr_u >= w.singular_radius()
            assert direct == (self.rescaled_tr_u(f, w) >= 2.0 - 1e-13)


class TestPolarScalingInvariance:
    def test_polar_factor_unchanged(self):
        # F and the rescaled F / lam share one polar factor
        rng = np.random.default_rng([20260812, 5])
        for _ in range(300):
            f, w = random_nonclassical_case(rng)
            ftilde = reduction_data(f, w).ftilde
            miss = polar_decompose(f).rotation - polar_decompose(ftilde).rotation
            assert miss.frobenius_norm() < 1e-12


class TestArgminTransport:
    def test_oracle_argmin_sets_coincide(self):
        # the original, rescaled, and limit-case energies share one argmin set
        rng = np.random.default_rng([20260812, 6])
        for _ in range(20):
            f, w = random_nonclassical_case(rng, bifurcation_gap=1e-3)
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
        rng = np.random.default_rng([20260812, 7])
        for _ in range(300):
            f = random_gl_plus(rng)
            w = random_classical_weights(rng)
            r = random_rotation(rng)
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
