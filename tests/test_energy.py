"""Tests for the energy functionals; test_identities proves their algebraic identities, checked here on floats."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import logm

from cosserat2d import (
    Branch,
    LogUndefined,
    Mat2,
    NonPositiveDeterminant,
    NonPositiveSingularValue,
    NotARotation,
    Weights,
    critical_energy_levels,
    log_strain_energy,
    log_strain_profile,
    matrix_log_2x2,
    optimal_set,
    polar_decompose,
    reduced_energy,
    reduced_energy_sv,
    reduction_data,
    rotation,
    shear_stretch_energy,
    shear_stretch_profile,
    signed_defect_profile,
    singular_values,
    trace_invariants,
)
from cosserat2d.energy import (
    UNDEFINED_LOG_ENERGY,
    EnergyLevels,
    _energy_at,
    _log_cases,
    _microstretch,
    _sym_skew_energy,
)
from cosserat2d.planar import ROTATION_TOL
from cosserat2d.selfcheck import (
    random_gl_plus,
    random_nonclassical_case,
    random_rotation,
)
from cosserat2d.shear import simple_shear
from record_checks import check_record
from test_identities import constants_chain
from test_planar import as_array

LIMIT = Weights(1.0, 0.0)


def random_weights(rng):
    return Weights(rng.uniform(0.1, 3.0), rng.uniform(0.0, 3.0))


def expanded_form(r, f, w):
    """W in the expanded trace form that tests/test_identities.py proves."""
    x = r.transpose() @ f
    return (0.5 * (w.mu - w.muc) * (x @ x).trace() - 2.0 * w.mu * x.trace()
            + 0.5 * (w.mu + w.muc) * f.frobenius_sq() + 2.0 * w.mu)


def rescaled_energy(r, f, w):
    """(rho/mu) W, the energy rescaled onto the zero-couple limit's form."""
    return reduction_data(f, w).rho / w.mu * shear_stretch_energy(r, f, w)


class TestShearStretchEnergy:
    def test_zero_at_identity(self):
        assert shear_stretch_energy(Mat2.identity(), Mat2.identity(), Weights(1.0, 1.0)) == 0.0
        assert shear_stretch_energy(Mat2.identity(), Mat2.identity(), Weights(2.0, 0.0)) == 0.0

    def test_polar_factor_gives_stretch_distance(self):
        f = Mat2.diagonal(2.0, 1.0)
        value = shear_stretch_energy(polar_decompose(f).rotation, f, Weights(1.0, 1.0))
        assert value == pytest.approx(1.0, abs=1e-14)  # ||U - 1||^2 with U = F

    def test_pure_rotation_misfit(self):
        value = shear_stretch_energy(rotation(math.pi / 4.0), Mat2.identity(), LIMIT)
        assert value == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-14)

    def test_zero_iff_microstrain_vanishes(self):
        r = rotation(0.4)
        # R^T F = 1 exactly when F is that rotation
        assert shear_stretch_energy(r, rotation(0.4), Weights(1.0, 2.0)) < 1e-30
        # with muc = 0 a skew microstrain is invisible
        f = r @ Mat2(1.0, -0.5, 0.5, 1.0)
        assert shear_stretch_energy(r, f, LIMIT) < 1e-28
        assert shear_stretch_energy(r, f, Weights(1.0, 1.0)) > 0.1

    def test_matches_matrix_product(self):
        # R^T F from entries must keep the bits of the Mat2 transpose-and-multiply
        # route, in every checked function that forms it
        def log_strain(x, f, w):
            lg = matrix_log_2x2(x)
            return _sym_skew_energy(lg.e11, lg.e12, lg.e21, lg.e22, w.mu, w.muc, 0.0)

        routes = [
            (shear_stretch_energy,
             lambda x, f, w: _sym_skew_energy(x.e11, x.e12, x.e21, x.e22, w.mu, w.muc, 1.0)),
            (log_strain_energy, log_strain),
        ]

        def outcome(call, *args):
            # the value, or the type and text of the error raised (LogUndefined for the log)
            try:
                return call(*args)
            except ValueError as exc:
                return type(exc), str(exc)

        rng = np.random.default_rng(62)
        for _ in range(300):
            a = rng.uniform(-math.pi, math.pi)
            shift = rng.uniform(-1.0, 1.0, 4) * ROTATION_TOL / 8.0
            near = Mat2(*np.add(rotation(a).entries(), shift))  # entrywise, as Mat2 has no +
            w = random_weights(rng)
            f = random_gl_plus(rng)
            for r in (rotation(a), near):
                for scale in (1e-100, 1.0, 1e100):
                    g = f * scale
                    x = r.transpose() @ g
                    for checked, formula in routes:
                        assert outcome(checked, r, g, w) == outcome(formula, x, g, w)

    def test_overflowing_microstretch_in_every_checked_function(self):
        # R^T F = (inf, 7.1e299; 2.0e292, 7.1e299) has an entry beyond the
        # floating-point range, while the skew entry is finite; every checked
        # energy raises from the one check of R^T F
        r, f, w = rotation(math.pi / 4.0), Mat2(1.5e308, 1.0, 1.5e308, 1e300), Weights(1.0, 0.5)
        x12 = r.e11 * f.e12 + r.e21 * f.e22
        x21 = r.e12 * f.e11 + r.e22 * f.e21
        defect = abs(signed_defect_profile(f)(math.pi / 4.0))
        assert defect == abs(0.5 * (x12 - x21)) == pytest.approx(3.5e299, rel=0.02)
        for energy in (shear_stretch_energy, log_strain_energy):
            with pytest.raises(OverflowError, match=r"^R\^T F has an entry beyond"):
                energy(r, f, w)

    def test_overflowing_rotation_defect_in_every_checked_function(self):
        # R^T R = diag(1e200, 1e200) is finite, its squares are not: the defect is
        # inf, so R is no rotation, with no OverflowError from the check itself
        r, f, w = Mat2.diagonal(1e100, 1e100), Mat2(3.0, 0.5, -0.2, 1.0), Weights(1.0, 0.2)
        for energy in (shear_stretch_energy, log_strain_energy):
            with pytest.raises(NotARotation, match="defect inf"):
                energy(r, f, w)

    def test_gl_plus_verdict_stored_or_not(self):
        # the checked energies skip require_gl_plus for an F that stores its
        # invariants; an F outside GL+(2) stores none and raises on every call
        r, w = rotation(0.4), Weights(1.0, 0.2)
        fresh, used = Mat2(3.0, 0.5, -0.2, 1.0), Mat2(3.0, 0.5, -0.2, 1.0)
        trace_invariants(used)
        assert shear_stretch_energy(r, fresh, w) == shear_stretch_energy(r, used, w)
        assert fresh._checked_invariants is None
        for _ in range(2):
            with pytest.raises(NonPositiveDeterminant):
                shear_stretch_energy(r, Mat2.diagonal(1.0, -1.0), w)

    @pytest.mark.parametrize("f, w", [
        (Mat2.diagonal(1e155, 1.0), Weights(1.0, 0.5)),  # (x11 - 1)^2 overflows
        (Mat2.diagonal(3.0, 1.0), Weights(1e308, 0.0)),  # mu * 4 overflows
    ])
    def test_overflowing_energy_is_inf_on_every_route(self, f, w):
        # R^T F is finite at angle 0, so nothing raises: the energy is inf
        profile = shear_stretch_profile(f, w)
        assert shear_stretch_energy(rotation(0.0), f, w) == math.inf
        assert _energy_at(0.0, *f.entries(), w.mu, w.muc) == math.inf
        assert profile(0.0) == math.inf
        with np.errstate(over="ignore"):
            assert profile(np.float64(0.0)) == math.inf
            assert profile(np.zeros(3)).tolist() == [math.inf] * 3

    def test_norm_within_ulps_of_exact_value(self):
        # The norm of float entries against its exact rational value. Its seven
        # roundings act on nonnegative terms, so the error is at most 7u|W| to
        # first order (u = 2^-53), 7 ulps; these 20,000 draws reach 3.21 ulps.
        def exact(x11, x12, x21, x22, mu, muc):
            x11, x12, x21, x22, mu, muc = map(Fraction, (x11, x12, x21, x22, mu, muc))
            sym_sq = (x11 - 1) ** 2 + (x22 - 1) ** 2 + (x12 + x21) ** 2 / 2
            return mu * sym_sq + muc * (x12 - x21) ** 2 / 2

        rng = np.random.default_rng([20260811, 20])
        worst = 0.0
        for _ in range(20000):
            a = rng.uniform(-math.pi, math.pi)
            f, w = random_gl_plus(rng), random_weights(rng)
            x = _microstretch(math.cos(a), math.sin(a), *f.entries())
            value, expected = _sym_skew_energy(*x, w.mu, w.muc, 1.0), exact(*x, w.mu, w.muc)
            worst = max(worst, abs(Fraction(value) - expected) / Fraction(math.ulp(expected)))
        assert worst <= 3.5

    def test_overflowing_microstretch_raises_overflow(self):
        # R^T F has an infinite entry; its square is out of the floating-point range
        f = Mat2(1.5e308, 0.0, 1.5e308, 1.5e308)
        with pytest.raises(OverflowError):
            shear_stretch_energy(rotation(math.pi / 4.0), f, Weights(1.0, 0.5))

    def test_nonnegative(self):
        rng = np.random.default_rng([20260811, 1])
        for _ in range(200):
            value = shear_stretch_energy(
                random_rotation(rng), random_gl_plus(rng), random_weights(rng)
            )
            assert value >= 0.0


class TestExpandedForm:
    def test_matches_defining_form(self):
        rng = np.random.default_rng([20260811, 2])
        for _ in range(1000):
            f = random_gl_plus(rng)
            r = random_rotation(rng)
            w = random_weights(rng)
            assert expanded_form(r, f, w) == pytest.approx(
                shear_stretch_energy(r, f, w), rel=1e-10, abs=1e-12
            )

    def test_equal_weights_reduce_to_frobenius_misfit(self):
        rng = np.random.default_rng([20260811, 3])
        for _ in range(200):
            f = random_gl_plus(rng)
            r = random_rotation(rng)
            x = r.transpose() @ f - Mat2.identity()
            assert expanded_form(r, f, Weights(1.0, 1.0)) == pytest.approx(
                x.frobenius_sq(), rel=1e-10, abs=1e-12
            )

    def test_trivial(self):
        assert expanded_form(Mat2.identity(), Mat2.identity(), LIMIT) == pytest.approx(0.0, abs=1e-15)


class TestExpandingTheSquare:
    def test_identity(self):
        rng = np.random.default_rng([20260811, 7])
        for _ in range(300):
            f = random_gl_plus(rng)
            r = random_rotation(rng)
            rho = rng.uniform(0.5, 5.0)
            x = r.transpose() @ f
            shifted = x - rho * Mat2.identity()
            lhs = (shifted @ shifted).trace()
            rhs = (x @ x).trace() - 2.0 * rho * x.trace() + rho * rho * 2.0
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestRescaledEnergy:
    def test_trivial(self):
        assert rescaled_energy(Mat2.identity(), Mat2.identity(), LIMIT) == 0.0


class TestConstantsChain:
    def test_identity_zero_couple(self):
        chain = constants_chain(Mat2.identity().frobenius_sq(), LIMIT.mu, LIMIT.muc)
        assert chain == pytest.approx((3.0, 6.0, 2.0, 0.0))

    def test_zero_couple_modulus_self_reduction(self):
        rng = np.random.default_rng([20260811, 10])
        for _ in range(100):
            f = random_gl_plus(rng)
            c4 = constants_chain(f.frobenius_sq(), LIMIT.mu, LIMIT.muc)[3]
            assert c4 == pytest.approx(0.0, abs=1e-12)

    def test_worked_example(self):
        c1 = constants_chain(Mat2.diagonal(2.0, 1.0).frobenius_sq(), 2.0, 1.0)[0]
        assert c1 == pytest.approx(11.5)

    def test_c4_matches_empirical_offset(self):
        rng = np.random.default_rng([20260811, 11])
        for _ in range(50):
            f, w = random_nonclassical_case(rng)
            data = reduction_data(f, w)
            c4 = constants_chain(f.frobenius_sq(), w.mu, w.muc)[3]
            r = random_rotation(rng)
            offset = rescaled_energy(r, f, w) - data.lam**2 * rescaled_energy(
                r, data.ftilde, LIMIT
            )
            assert offset == pytest.approx(c4, abs=1e-9)


class TestCriticalEnergyLevels:
    def test_record(self):
        check_record(
            critical_energy_levels(Mat2.diagonal(0.5, 0.5)),
            "EnergyLevels(w1=4.5, w2=0.5, w3=None)", w1=4.5, w2=0.5, w3=None,
        )
        check_record(
            critical_energy_levels(Mat2.identity()),
            "EnergyLevels(w1=8.0, w2=0.0, w3=0.0)", w1=8.0, w2=0.0, w3=0.0,
        )
        assert EnergyLevels._field_defaults == {}

    def test_ordering(self):
        rng = np.random.default_rng([20260811, 12])
        for _ in range(500):
            lv = critical_energy_levels(random_gl_plus(rng))
            assert lv.w1 >= lv.w2 - 1e-12
            if lv.w3 is not None:
                assert lv.w2 >= lv.w3 - 1e-12

    def test_third_level_existence(self):
        assert critical_energy_levels(Mat2.diagonal(0.5, 0.5)).w3 is None
        assert critical_energy_levels(Mat2.diagonal(3.0, 1.0)).w3 is not None

    def test_coincidence_at_threshold(self):
        lv = critical_energy_levels(Mat2.identity())
        assert lv.w3 is not None
        assert lv.w2 == pytest.approx(lv.w3, abs=1e-12)


class TestReducedEnergy:
    def test_classical_example(self):
        value, branch = reduced_energy(Mat2.diagonal(2.0, 1.0), Weights(1.0, 1.0))
        assert value == pytest.approx(1.0, abs=1e-12)
        assert branch is Branch.CLASSICAL

    def test_shear_example(self):
        value, branch = reduced_energy(simple_shear(2.0), LIMIT)
        assert value == pytest.approx(2.0, abs=1e-12)
        assert branch is Branch.PITCHFORK

    def test_compressive_example(self):
        value, branch = reduced_energy(Mat2.diagonal(0.5, 0.5), LIMIT)
        assert value == pytest.approx(0.5, abs=1e-12)
        assert branch is Branch.CLASSICAL

    def test_continuity_across_switch(self):
        # scale a fixed direction through the threshold and compare both sides
        f0 = Mat2(1.1, 0.3, -0.2, 0.9)
        w = Weights(1.0, 0.4)
        rho = w.singular_radius()
        tr0 = trace_invariants(f0).tr_u
        for eps in (1e-7, 1e-9, 1e-11):
            below = reduced_energy((rho / tr0) * (1.0 - eps) * f0, w).value
            above = reduced_energy((rho / tr0) * (1.0 + eps) * f0, w).value
            # the reduced energy is Lipschitz in tr U across the switch
            assert below == pytest.approx(above, abs=1e3 * eps)

    def test_nonclassical_matches_optimal_set_bits(self):
        # the float route forms the same products as the Mat2 rotation
        rng = np.random.default_rng(20261019)
        for k in range(600):
            f, w = random_nonclassical_case(rng, bifurcation_gap=1e-3)
            f = 10.0 ** (150 * (k % 3 - 1)) * f
            value, branch = reduced_energy(f, w)
            ms = optimal_set(f, w)
            assert (value.hex(), branch) == (ms.energy.hex(), ms.branch)

    def test_branch_switch_at_threshold(self):
        f0 = Mat2(1.1, 0.3, -0.2, 0.9)
        w = Weights(1.0, 0.4)
        scale = w.singular_radius() / trace_invariants(f0).tr_u
        assert reduced_energy((scale * (1.0 - 1e-9)) * f0, w).branch is Branch.CLASSICAL
        assert reduced_energy((scale * (1.0 + 1e-9)) * f0, w).branch is Branch.PITCHFORK


class TestReducedEnergySingularValues:
    def test_examples(self):
        assert reduced_energy_sv((1.0, 1.0)) == 0.0
        assert reduced_energy_sv((3.0, 1.0)) == pytest.approx(2.0)
        assert reduced_energy_sv((0.5, 0.5)) == pytest.approx(0.5)

    def test_swap_symmetry(self):
        rng = np.random.default_rng([20260811, 13])
        for _ in range(100):
            s1, s2 = rng.uniform(0.05, 4.0, size=2)
            assert reduced_energy_sv((s1, s2)) == reduced_energy_sv((s2, s1))

    def test_agrees_with_reduced_energy(self):
        rng = np.random.default_rng([20260811, 14])
        for _ in range(500):
            f = random_gl_plus(rng)
            assert reduced_energy_sv(singular_values(f)) == pytest.approx(
                reduced_energy(f, LIMIT).value, rel=1e-10, abs=1e-12
            )

    def test_branches_agree_on_boundary(self):
        rng = np.random.default_rng([20260811, 15])
        for _ in range(100):
            s1 = rng.uniform(1.0, 1.999)
            s2 = 2.0 - s1
            below = (s1 - 1.0) ** 2 + (s2 - 1.0) ** 2
            above = 0.5 * (s1 - s2) ** 2
            assert below == pytest.approx(above, abs=1e-12)
            assert reduced_energy_sv((s1, s2)) == pytest.approx(above, abs=1e-12)

    def test_rejects_non_positive(self):
        with pytest.raises(NonPositiveSingularValue):
            reduced_energy_sv((1.0, 0.0))
        with pytest.raises(NonPositiveSingularValue):
            reduced_energy_sv((-1.0, 2.0))
        with pytest.raises(NonPositiveSingularValue):
            reduced_energy_sv((0.0, 1.0))


class TestMatrixLog:
    def test_distinct_real_eigenvalues(self):
        x = Mat2(2.0, 1.0, 0.5, 1.0)
        np.testing.assert_allclose(
            as_array(matrix_log_2x2(x)), np.real(logm(as_array(x))), atol=1e-12
        )

    def test_complex_pair(self):
        x = rotation(0.8) @ Mat2.diagonal(1.5, 0.7)
        np.testing.assert_allclose(
            as_array(matrix_log_2x2(x)), np.real(logm(as_array(x))), atol=1e-12
        )

    def test_defective(self):
        x = Mat2(2.0, 1.0, 0.0, 2.0)
        expected = np.array([[math.log(2.0), 0.5], [0.0, math.log(2.0)]])
        np.testing.assert_allclose(as_array(matrix_log_2x2(x)), expected, atol=1e-14)

    def test_near_defective_stays_accurate(self):
        for eps in (1e-6, 1e-9, 1e-12):
            x = Mat2(2.0 + eps, 1.0, 0.0, 2.0)
            np.testing.assert_allclose(
                as_array(matrix_log_2x2(x)), np.real(logm(as_array(x))), atol=1e-7
            )

    def test_random_against_scipy(self):
        rng = np.random.default_rng([20260811, 16])
        count = 0
        while count < 200:
            x = random_gl_plus(rng)
            try:
                lg = matrix_log_2x2(x)
            except LogUndefined:
                continue
            count += 1
            with warnings.catch_warnings():
                # as in test_profile_matches_scalar: an X with eigenvalues
                # -0.7592 +- 0.0384i made scipy estimate 1.1e-12; the package
                # and scipy are within 1.6e-12 of mpmath's eigendecomposition
                warnings.filterwarnings("ignore", "logm result may be inaccurate", RuntimeWarning)
                reference = np.real(logm(as_array(x)))
            np.testing.assert_allclose(as_array(lg), reference, atol=1e-9)

    def test_exp_roundtrip(self):
        from scipy.linalg import expm

        x = rotation(-1.2) @ Mat2.diagonal(2.5, 0.3)
        lg = matrix_log_2x2(x)
        np.testing.assert_allclose(expm(as_array(lg)), as_array(x), atol=1e-12)

    def test_float_route_has_the_array_bits(self):
        # the case that _log_cases picks on a one-matrix array, run on floats
        rng = np.random.default_rng(20261021)
        # a complex pair whose trace is subnormal, and distinct eigenvalues whose
        # smaller one, det / 1e150 = 1e-350, underflows to 0
        xs = [Mat2(5e-324, -1e-8, 1e-8, 0.0), Mat2(1e150, 1e-100, -1e-100, 0.0)]
        for _ in range(400):
            lam = 10.0 ** rng.uniform(-3.0, 3.0)
            xs += [Mat2(*rng.uniform(-2.0, 2.0, 4)), random_gl_plus(rng),
                   Mat2(lam, rng.uniform(-1.0, 1.0), 0.0, lam),
                   Mat2.diagonal(1e160 * lam, 1e-160 / lam)]
        outcomes = set()
        for x in xs:
            with np.errstate(all="ignore"):
                cases = [[float(v[0]) for v in lg]
                         for _, *lg in _log_cases(*np.array(x.entries())[:, None], x.det())]
            if not cases:
                outcomes.add("undefined")
                with pytest.raises(LogUndefined, match="^an eigenvalue lies on the closed"):
                    matrix_log_2x2(x)
            elif not all(map(math.isfinite, cases[0])):
                outcomes.add("non-finite")
                with pytest.raises(ValueError, match="^matrix entry e11 must be finite, got nan$"):
                    matrix_log_2x2(x)
            else:
                outcomes.add("defined")
                assert [v.hex() for v in matrix_log_2x2(x).entries()] == [
                    v.hex() for v in cases[0]]
        assert outcomes == {"undefined", "non-finite", "defined"}

    def test_undefined_on_negative_spectrum(self):
        with pytest.raises(LogUndefined):
            matrix_log_2x2(Mat2.diagonal(-1.0, -1.0))
        with pytest.raises(LogUndefined):
            matrix_log_2x2(Mat2.diagonal(-2.0, -0.5))
        with pytest.raises(LogUndefined):
            matrix_log_2x2(Mat2.diagonal(1.0, -1.0))

    def test_undefined_at_a_zero_eigenvalue(self):
        # distinct real eigenvalues 1 and 0: det X = 0 is on the closed negative axis
        with pytest.raises(LogUndefined):
            matrix_log_2x2(Mat2(1.0, 0.0, 0.0, 0.0))


class TestLogStrainEnergy:
    def test_zero_at_identity(self):
        assert log_strain_energy(Mat2.identity(), Mat2.identity(), Weights(1.0, 1.0)) == 0.0

    def test_polar_gives_principal_log_norm(self):
        rng = np.random.default_rng([20260811, 17])
        for _ in range(100):
            f = random_gl_plus(rng)
            mu = rng.uniform(0.1, 3.0)
            w = Weights(mu, rng.uniform(0.0, 3.0))
            sv = singular_values(f)
            expected = mu * (math.log(sv.sigma1) ** 2 + math.log(sv.sigma2) ** 2)
            value = log_strain_energy(polar_decompose(f).rotation, f, w)
            assert value == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_pure_rotation_penalizes_skew(self):
        for alpha in (-2.5, -0.9, 0.3, 1.4, 3.0):
            value = log_strain_energy(rotation(alpha), Mat2.identity(), Weights(1.0, 1.0))
            assert value == pytest.approx(2.0 * alpha * alpha, rel=1e-12)

    def test_undefined_at_half_turn(self):
        with pytest.raises(LogUndefined):
            log_strain_energy(rotation(math.pi), Mat2.identity(), Weights(1.0, 1.0))

    def test_profile_matches_scalar(self):
        # the scalar energy shares the profile's log; scipy's logm is independent
        rng = np.random.default_rng([20260811, 18])
        f = random_gl_plus(rng)
        w = Weights(1.5, 0.7)
        profile = log_strain_profile(f, w)
        for _ in range(50):
            a = rng.uniform(-math.pi, math.pi)
            try:
                expected = log_strain_energy(rotation(a), f, w)
            except LogUndefined:
                continue
            assert profile(a) == pytest.approx(expected, rel=1e-10, abs=1e-12)
            with warnings.catch_warnings():
                # scipy warns from an estimated error of 1000 eps on; near the
                # negative axis it reached 1.5e-12, far inside the comparison below
                warnings.filterwarnings("ignore", "logm result may be inaccurate", RuntimeWarning)
                lg = np.real(logm(as_array(rotation(a).transpose() @ f)))
            sym, skew = 0.5 * (lg + lg.T), 0.5 * (lg - lg.T)
            reference = w.mu * np.sum(sym**2) + w.muc * np.sum(skew**2)
            assert profile(a) == pytest.approx(reference, rel=1e-9, abs=1e-12)

    def test_profile_sentinel_on_undefined_arc(self):
        profile = log_strain_profile(Mat2.identity(), Weights(1.0, 1.0))
        assert profile(math.pi) == UNDEFINED_LOG_ENERGY == 1e9

    def test_spectrum_beyond_double_range_is_silent(self):
        # tr^2 and det of 1e160 * I overflow inside the log; the answer stays
        # the sentinel or LogUndefined, and numpy warns about nothing
        f = Mat2(1e160, 0.0, 0.0, 1e160)
        profile = log_strain_profile(f, Weights(1.0, 0.5))
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert profile(0.0) == UNDEFINED_LOG_ENERGY
            assert np.all(profile(np.linspace(-3.0, 3.0, 7)) == UNDEFINED_LOG_ENERGY)
            with pytest.raises(LogUndefined):
                matrix_log_2x2(f)
        assert np.geterr() == before

    @pytest.mark.parametrize("f, alpha", [
        (Mat2(1e160, 0.0, 0.0, 1e-160), 0.0),  # t * t overflows, det X is 1
        (Mat2.diagonal(1e154, 1e154), -1.4),  # det X is 1e308, 4 * det X overflows
    ])
    def test_discriminant_beyond_double_range_is_undefined(self, f, alpha):
        # an infinite discriminant once took the coincident-eigenvalue case and
        # returned a wrong log silently: diag(368.72, 366.72) for the first X,
        # whose log is diag(368.41, -368.41)
        x = rotation(alpha).transpose() @ f
        profile = log_strain_profile(f, Weights(1.0, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LogUndefined, match="leaves the floating-point range"):
                matrix_log_2x2(x)
            assert profile(alpha) == UNDEFINED_LOG_ENERGY
            assert profile(np.array([alpha])).tolist() == [UNDEFINED_LOG_ENERGY]


class TestShearStretchProfile:
    def test_matches_scalar_energy(self):
        rng = np.random.default_rng([20260811, 19])
        for _ in range(50):
            f = random_gl_plus(rng)
            w = random_weights(rng)
            profile = shear_stretch_profile(f, w)
            a = rng.uniform(-math.pi, math.pi)
            assert profile(a) == pytest.approx(
                shear_stretch_energy(rotation(a), f, w), rel=1e-12, abs=1e-14
            )

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_one_bit_pattern_on_every_route(self, scale):
        # the checked energy, the closed forms' float core and the profile at a
        # float, at a numpy scalar and in an array square by the same products
        rng = np.random.default_rng([20260811, 21])
        for _ in range(300):
            f, w = scale * random_gl_plus(rng), random_weights(rng)
            profile = shear_stretch_profile(f, w)
            angles = rng.uniform(-math.pi, math.pi, 8)
            for a, in_array in zip(angles.tolist(), profile(angles).tolist()):
                expected = shear_stretch_energy(rotation(a), f, w).hex()
                assert _energy_at(a, *f.entries(), w.mu, w.muc).hex() == expected
                assert profile(a).hex() == expected
                assert float(profile(np.float64(a))).hex() == expected
                assert in_array.hex() == expected

    def test_vectorized_shape(self):
        profile = shear_stretch_profile(Mat2.diagonal(2.0, 1.0), LIMIT)
        grid = np.linspace(-3.0, 3.0, 17)
        assert profile(grid).shape == grid.shape
