"""Tests for the 2x2 matrix primitives and angle handling."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cosserat2d import (
    Mat2,
    NonPositiveDeterminant,
    NotARotation,
    QUARTER_TURN,
    TraceInvariants,
    Weights,
    circular_distance,
    cofactor_shear_profile,
    cofactor_transform,
    critical_energy_levels,
    critical_set,
    normalize_angle,
    optimal_set,
    polar_angle,
    polar_decompose,
    reduced_energy,
    require_rotation,
    rotation,
    shear_stretch_profile,
    singular_values,
    trace_invariants,
)
from cosserat2d.planar import ROTATION_TOL, _invariants, rotation_defect
from cosserat2d.selfcheck import (
    PROPERTIES,
    random_classical_weights,
    random_gl_plus,
    random_nonclassical_weights,
    random_unconstrained,
)
from cosserat2d.shear import simple_shear


def as_array(m: Mat2) -> np.ndarray:
    """The entries of m as a 2x2 numpy array, for the numpy references."""
    return np.array([[m.e11, m.e12], [m.e21, m.e22]])


finite_angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


class TestAngles:
    def test_normalize_range(self):
        for x in (-10.0, -math.pi, 0.0, 2.5, math.pi, 7.0, 123.456):
            a = normalize_angle(x)
            assert -math.pi < a <= math.pi

    def test_pi_preferred_over_minus_pi(self):
        assert normalize_angle(math.pi) == math.pi
        assert normalize_angle(-math.pi) == math.pi
        assert normalize_angle(3.0 * math.pi) == pytest.approx(math.pi)

    @given(finite_angles)
    def test_idempotent(self, x):
        once = normalize_angle(x)
        assert normalize_angle(once) == once

    @given(finite_angles)
    def test_same_rotation(self, x):
        a = normalize_angle(x)
        diff = rotation(a) - rotation(x)
        assert diff.frobenius_norm() < 1e-12


class TestMat2:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Mat2(1.0, float("nan"), 0.0, 1.0)
        with pytest.raises(ValueError):
            Mat2(float("inf"), 0.0, 0.0, 1.0)

    def test_value_semantics(self):
        m = Mat2(1, -2.5, np.float64(0.0), 3)
        assert repr(m) == "Mat2(e11=1.0, e12=-2.5, e21=0.0, e22=3.0)"
        assert m == Mat2(1.0, -2.5, 0.0, 3.0) and m != Mat2(1.0, -2.5, 0.0, 3.5)
        assert hash(m) == hash(m.entries())  # a frozen dataclass hashes its field tuple
        assert not hasattr(m, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.e11 = 2.0
        # no new attributes either; CPython 3.11's frozen-slots __setattr__ raises TypeError
        with pytest.raises((AttributeError, TypeError)):
            m.extra = 2.0
        assert pickle.loads(pickle.dumps(m)) == m
        assert dataclasses.astuple(m) == m.entries()
        assert dataclasses.replace(m, e12=4) == Mat2(1.0, 4.0, 0.0, 3.0)
        with pytest.raises(ValueError, match="e22"):
            dataclasses.replace(m, e22=math.inf)

    def test_entries_are_python_floats(self):
        m = Mat2(np.float64(1), np.int64(0), 0, np.float32(1))
        assert all(type(e) is float for e in m.entries())
        assert type(Mat2(np.float64(1), 0, 0, 1).e11) is float

    @pytest.mark.parametrize("entries, error, match", [
        ((1.0, math.nan, math.inf, 1.0), ValueError, "entry e12 must be finite, got nan"),
        ((1.0, 0.0, -math.inf, math.nan), ValueError, "entry e21 must be finite, got -inf"),
        ((math.nan, "x", 0.0, 1.0), ValueError, "entry e11 must be finite"),
        ((1.0, "x", math.nan, 1.0), ValueError, "could not convert string to float"),
        ((1.0, 0.0, None, math.inf), TypeError, "NoneType"),
        ((1.0, 0.0, 0.0, "1e400"), ValueError, "entry e22 must be finite, got inf"),
    ])
    def test_first_bad_entry_in_order_is_reported(self, entries, error, match):
        with pytest.raises(error, match=match):
            Mat2(*entries)

    def test_matmul_matches_numpy(self):
        rng = np.random.default_rng([20260810, 1])
        a = random_unconstrained(rng)
        b = random_unconstrained(rng)
        np.testing.assert_allclose(as_array(a @ b), as_array(a) @ as_array(b))

    def test_no_matrix_sum(self):
        # nothing in the package adds two matrices; __sub__ stays, as selfcheck subtracts
        with pytest.raises(TypeError):
            Mat2.identity() + Mat2.identity()
        assert Mat2.identity() - Mat2.identity() == Mat2(0.0, 0.0, 0.0, 0.0)

    def test_gl_plus_membership(self):
        with pytest.raises(NonPositiveDeterminant):
            trace_invariants(Mat2.diagonal(1.0, -1.0))
        with pytest.raises(NonPositiveDeterminant):
            trace_invariants(Mat2(1.0, 2.0, 2.0, 4.0))  # det = 0

    def test_rotation_membership(self):
        require_rotation(rotation(0.3))
        with pytest.raises(NotARotation):
            require_rotation(Mat2.diagonal(1.0, -1.0))  # reflection
        with pytest.raises(NotARotation):
            require_rotation(Mat2.diagonal(2.0, 0.5))
        # against ROTATION_TOL = 1e-12: 1.1 R has defect 0.30 and |det - 1| = 0.21;
        # diag(1 + e, 1 - e) R keeps det 1 and has defect 2 sqrt(2) e, so at
        # e = 1e-12 it lies just outside and at e = 2e-13 inside
        for r in (1.1 * rotation(0.3), Mat2.diagonal(1.0 + 1e-12, 1.0 - 1e-12) @ rotation(0.3)):
            with pytest.raises(NotARotation):
                require_rotation(r)
        require_rotation(Mat2.diagonal(1.0 + 2e-13, 1.0 - 2e-13) @ rotation(0.3))
        # R^T R overflows to inf, or only its squares do: a rotation failure, not an
        # error about a hidden entry
        for big in (1e100, 1e200):
            with pytest.raises(NotARotation, match="defect inf"):
                require_rotation(Mat2.diagonal(big, big))

    def test_rotation_defect_matches_matrix_product(self):
        def via_mat2(r):
            g = r.transpose() @ r
            return math.sqrt((g.e11 - 1.0) ** 2 + g.e12**2 + g.e21**2 + (g.e22 - 1.0) ** 2)

        rng = np.random.default_rng(61)
        for _ in range(500):
            a = rng.uniform(-math.pi, math.pi)
            shift = rng.uniform(-1.0, 1.0, 4) * ROTATION_TOL / 8.0
            near = Mat2(*np.add(rotation(a).entries(), shift))  # entrywise, as Mat2 has no +
            require_rotation(near)
            for r in (rotation(a), near, random_unconstrained(rng)):
                assert rotation_defect(r) == via_mat2(r)

    def test_cayley_hamilton_trace_identity(self):
        rng = np.random.default_rng([20260810, 2])
        for _ in range(500):
            x = random_unconstrained(rng)
            lhs = (x @ x).trace()
            rhs = x.trace() ** 2 - 2.0 * x.det()
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestTraceInvariants:
    def test_identity(self):
        inv = trace_invariants(Mat2.identity())
        assert inv == pytest.approx((2.0, 0.0, 2.0, 1.0, math.sqrt(2.0)))

    def test_simple_shear_two(self):
        inv = trace_invariants(simple_shear(2.0))
        assert inv.tr_f == 2.0
        assert inv.tr_jf == 2.0
        assert inv.tr_u == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-14)
        assert inv.det_f == 1.0
        assert inv.frob_f == pytest.approx(math.sqrt(6.0), abs=1e-14)

    def test_simple_shear_against_eigensolver(self):
        f = simple_shear(2.0)
        gram = as_array(f).T @ as_array(f)
        eig_sum = float(np.sqrt(np.linalg.eigvalsh(gram)).sum())
        assert trace_invariants(f).tr_u == pytest.approx(eig_sum, abs=1e-12)

    def test_diagonal(self):
        inv = trace_invariants(Mat2.diagonal(3.0, 1.0))
        assert inv == pytest.approx((4.0, 0.0, 4.0, 3.0, math.sqrt(10.0)))

    def test_stretch_trace_vs_eigensolver_bulk(self):
        # 1000 random samples against an independent symmetric eigensolver
        rng = np.random.default_rng([20260810, 3])
        assert PROPERTIES["stretch_trace_vs_eigensolver"].worst(rng, 1000) < 1e-9


class TestPolar:
    def test_identity(self):
        dec = polar_decompose(Mat2.identity())
        assert dec.angle == 0.0
        assert (dec.rotation - Mat2.identity()).frobenius_norm() == 0.0
        assert (dec.stretch - Mat2.identity()).frobenius_norm() == 0.0

    def test_simple_shear_angle(self):
        # sin = -2/(2*sqrt(2)), cos = 2/(2*sqrt(2)) puts the angle at -pi/4
        dec = polar_decompose(simple_shear(2.0))
        assert dec.angle == pytest.approx(-math.pi / 4.0, abs=1e-14)
        assert abs(dec.stretch.e12 - dec.stretch.e21) < 1e-14

    def test_recovers_constructed_rotation(self):
        f = rotation(0.7) @ Mat2.diagonal(2.0, 0.5)
        assert polar_angle(f) == pytest.approx(0.7, abs=1e-14)

    def test_angle_satisfies_both_equations(self):
        rng = np.random.default_rng([20260810, 5])
        for _ in range(300):
            f = random_gl_plus(rng)
            inv = trace_invariants(f)
            a = polar_angle(f)
            assert math.cos(a) == pytest.approx(inv.tr_f / inv.tr_u, abs=1e-12)
            assert math.sin(a) == pytest.approx(-inv.tr_jf / inv.tr_u, abs=1e-12)

    def test_factorization_and_symmetry(self):
        # both the factorization residual and the asymmetry of U below 1e-12
        rng = np.random.default_rng([20260810, 6])
        assert PROPERTIES["polar_factorization"].worst(rng, 300) < 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng([20260810, 7])
        for _ in range(300):
            f = random_gl_plus(rng)
            c = rng.uniform(0.05, 20.0)
            assert circular_distance(polar_angle(f), polar_angle(c * f)) < 1e-12

    def test_trace_along_circle_matches_cosine_form(self):
        # tr(R(a)^T F) must equal tr U * cos(a - alpha_p); the sign of the
        # sin-term matters and is pinned here against direct matrix algebra.
        rng = np.random.default_rng([20260810, 8])
        for _ in range(200):
            f = random_gl_plus(rng)
            inv = trace_invariants(f)
            a = rng.uniform(-math.pi, math.pi)
            direct = (rotation(a).transpose() @ f).trace()
            cosine = inv.tr_u * math.cos(a - polar_angle(f))
            assert direct == pytest.approx(cosine, abs=1e-10)


class TestSingularValues:
    def test_examples(self):
        assert singular_values(Mat2.diagonal(3.0, 1.0)) == pytest.approx((3.0, 1.0))
        assert singular_values(Mat2.identity()) == pytest.approx((1.0, 1.0))
        sv = singular_values(simple_shear(2.0))
        assert sv.sigma1 == pytest.approx(math.sqrt(2.0) + 1.0, abs=1e-14)
        assert sv.sigma2 == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-14)
        assert sv.sigma1 * sv.sigma2 == pytest.approx(1.0, abs=1e-14)

    def test_invariants(self):
        rng = np.random.default_rng([20260810, 9])
        for _ in range(500):
            f = random_gl_plus(rng)
            sv = singular_values(f)
            assert sv.sigma1 >= sv.sigma2 > 0.0
            assert sv.sigma1 * sv.sigma2 == pytest.approx(f.det(), rel=1e-10)
            assert sv.sigma1**2 + sv.sigma2**2 == pytest.approx(
                f.frobenius_sq(), rel=1e-10
            )

    def test_matches_numpy_svd(self):
        rng = np.random.default_rng([20260810, 10])
        for _ in range(200):
            f = random_gl_plus(rng)
            expected = np.linalg.svd(as_array(f), compute_uv=False)
            np.testing.assert_allclose(singular_values(f), expected, atol=1e-10)


class TestRotation:
    def test_zero_is_identity(self):
        assert (rotation(0.0) - Mat2.identity()).frobenius_norm() == 0.0

    def test_quarter_turn(self):
        assert (rotation(math.pi / 2.0) - QUARTER_TURN).frobenius_norm() < 1e-16

    def test_periodicity_at_pi(self):
        assert (rotation(math.pi) - rotation(-math.pi)).frobenius_norm() < 1e-15
        assert (rotation(math.pi) - Mat2.diagonal(-1.0, -1.0)).frobenius_norm() < 1e-15

    @given(finite_angles)
    def test_membership(self, a):
        r = rotation(a)
        assert rotation_defect(r) <= 1e-15
        assert abs(r.det() - 1.0) <= 1e-15

    def test_is_the_checked_mat2_of_cos_and_sin(self):
        # rotation builds past Mat2's checks for a finite angle; pin that it builds
        # the same value, field for field, with nothing stored
        rng = np.random.default_rng(20261020)
        angles = [0.0, -0.0, math.pi, -math.pi, 1e300, *rng.uniform(-10.0, 10.0, 200)]
        for a in angles:
            r = rotation(a)
            c, s = math.cos(a), math.sin(a)
            assert type(r) is Mat2
            assert [v.hex() for v in r.entries()] == [v.hex() for v in (c, -s, s, c)]
            assert r == Mat2(c, -s, s, c) and r._checked_invariants is None

    def test_non_finite_angle(self):
        with pytest.raises(ValueError, match="matrix entry e11 must be finite, got nan"):
            rotation(math.nan)
        for a in (math.inf, -math.inf):
            with pytest.raises(ValueError, match="math domain error"):
                rotation(a)


class TestCofactorTransform:
    def test_identity(self):
        assert (cofactor_transform(Mat2.identity()) - Mat2.identity()).frobenius_norm() == 0.0

    def test_diagonal_swap(self):
        assert (cofactor_transform(Mat2.diagonal(2.0, 3.0)) - Mat2.diagonal(3.0, 2.0)).frobenius_norm() == 0.0

    def test_simple_shear(self):
        gamma = 1.7
        expected = Mat2(1.0, 0.0, -gamma, 1.0)
        tau = cofactor_transform(simple_shear(gamma))
        assert (tau - expected).frobenius_norm() == 0.0
        # against det(F) * F^{-1}, transposed
        f = as_array(simple_shear(gamma))
        oracle = (np.linalg.det(f) * np.linalg.inv(f)).T
        np.testing.assert_allclose(as_array(tau), oracle, atol=1e-14)

    def test_algebraic_relations(self):
        rng = np.random.default_rng([20260810, 11])
        for _ in range(300):
            f = random_gl_plus(rng)
            tau = cofactor_transform(f)
            assert tau.det() == pytest.approx(f.det(), rel=1e-12)
            product = tau @ f.transpose()
            expected = f.det() * Mat2.identity()
            assert (product - expected).frobenius_norm() < 1e-10 * max(1.0, f.det())
            # involution
            assert (cofactor_transform(tau) - f).frobenius_norm() < 1e-10

    def test_rejects_non_gl_plus(self):
        with pytest.raises(NonPositiveDeterminant):
            cofactor_transform(Mat2.diagonal(-1.0, 1.0))

    def test_keeps_polar_factor_and_stretch_trace(self):
        # tr F and tr JF of cof F are those of F, formed exactly, so the polar
        # angle keeps its bits; ||F||^2 is summed in another order, so tr U may
        # move by an ulp or two (2 at most over 20,000 draws)
        rng = np.random.default_rng(20261019)
        for k in range(2000):
            f = random_gl_plus(rng)
            if k % 3 == 1:
                f = 10.0 ** rng.uniform(-150.0, 150.0) * f
            tau = cofactor_transform(f)
            assert polar_angle(tau) == polar_angle(f)
            tr_u = trace_invariants(f).tr_u
            assert abs(trace_invariants(tau).tr_u - tr_u) <= 2.0 * math.ulp(tr_u)
            w = random_nonclassical_weights(rng) if k % 2 else random_classical_weights(rng)
            got, expected = optimal_set(tau, w), optimal_set(f, w)
            assert got.branch == expected.branch
            assert len(got.angles) == len(expected.angles)
            for a, b in zip(got.angles, expected.angles):
                assert circular_distance(a, b) <= 1e-13

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_cofactor_profile_is_the_shear_stretch_profile(self, scale):
        # The adjugate of X = R^T F has the sym and skew norms of X, so the
        # cofactor profile of F is its shear-stretch profile, bit for bit. A
        # cofactor formula that does not reduce to the same arithmetic must
        # change this test.
        rng = np.random.default_rng([20261019, int(math.log10(scale)) + 100])
        grid = np.linspace(-math.pi, math.pi, 721)
        for k in range(100):
            f = scale * random_gl_plus(rng)
            w = random_nonclassical_weights(rng) if k % 2 else random_classical_weights(rng)
            cofactor, shear_stretch = cofactor_shear_profile(f, w), shear_stretch_profile(f, w)
            assert cofactor(grid).tobytes() == shear_stretch(grid).tobytes()
            for a in (0.0, -0.0, math.pi, polar_angle(f), *rng.uniform(-math.pi, math.pi, 4)):
                assert cofactor(float(a)).hex() == shear_stretch(float(a)).hex()


class TestRelativeAngle:
    """The rotation of R(a) relative to the polar factor, R(a)^T polar(F),
    is the rotation by polar_angle(F) - a."""

    @staticmethod
    def relative(a, f):
        return rotation(a).transpose() @ polar_decompose(f).rotation

    def test_polar_factor_has_zero_relative_rotation(self):
        rng = np.random.default_rng([20260810, 12])
        f = random_gl_plus(rng)
        assert (self.relative(polar_angle(f), f) - Mat2.identity()).frobenius_norm() < 1e-15

    def test_identity_gradient(self):
        assert (self.relative(0.3, Mat2.identity()) - rotation(-0.3)).frobenius_norm() < 1e-15

    def test_simple_shear(self):
        product = self.relative(0.0, simple_shear(2.0))
        assert (product - rotation(-math.pi / 4.0)).frobenius_norm() < 1e-14

    def test_matches_matrix_product(self):
        rng = np.random.default_rng([20260810, 13])
        for _ in range(200):
            f = random_gl_plus(rng)
            a = rng.uniform(-math.pi, math.pi)
            beta = normalize_angle(polar_angle(f) - a)
            product = self.relative(a, f)
            assert (rotation(beta) - product).frobenius_norm() < 1e-12


#: Each way to clone a Mat2.
CLONES = pytest.mark.parametrize("clone", [
    lambda f: pickle.loads(pickle.dumps(f)),
    copy.copy,
    copy.deepcopy,
    dataclasses.replace,
], ids=["pickle", "copy", "deepcopy", "replace"])


def _stored(f):
    # the checked invariants f holds; None when it holds none
    return getattr(f, "_checked_invariants", None)


class TestStoredInvariants:
    """A Mat2 keeps its checked trace invariants; no result depends on it."""

    CALLS = {
        "trace_invariants": lambda f, w: trace_invariants(f),
        "polar_angle": lambda f, w: polar_angle(f),
        "singular_values": lambda f, w: singular_values(f),
        "critical_energy_levels": lambda f, w: critical_energy_levels(f),
        "critical_set": lambda f, w: critical_set(f),
        "optimal_set": lambda f, w: optimal_set(f, w),
        "reduced_energy": lambda f, w: reduced_energy(f, w),
    }

    @staticmethod
    def _cases(n):
        # (entries, weights): half at scale 1, half at scales 1e-100 .. 1e100,
        # classical and non-classical weights alternating
        rng = np.random.default_rng(20261018)
        for i in range(n):
            scale = 1.0 if i % 2 else 10.0 ** rng.uniform(-100.0, 100.0)
            f = random_gl_plus(rng) * scale
            draw = random_classical_weights if i % 4 < 2 else random_nonclassical_weights
            yield f.entries(), draw(rng)

    def test_reused_matches_fresh_bit_for_bit(self):
        rng = np.random.default_rng(7)
        names = list(self.CALLS)
        for entries, w in self._cases(600):
            reused = Mat2(*entries)
            for k in rng.permutation(len(names)):
                call = self.CALLS[names[k]]
                # repr tells every float apart by its bits, -0.0 from 0.0 too
                assert repr(call(reused, w)) == repr(call(Mat2(*entries), w)), names[k]
            assert trace_invariants(reused) == TraceInvariants._make(_invariants(*entries))

    def test_first_call_stores_and_later_calls_return_it(self):
        f = Mat2(3.0, 0.5, -0.2, 1.0)
        assert _stored(f) is None
        inv = trace_invariants(f)
        assert _stored(f) is inv and trace_invariants(f) is inv
        g = Mat2(3.0, 0.5, -0.2, 1.0)
        critical_set(g)
        assert _stored(g) == inv

    @pytest.mark.parametrize("entries, error", [
        ((1.0, 0.0, 0.0, -1.0), NonPositiveDeterminant),
        ((1.0, 2.0, 2.0, 4.0), NonPositiveDeterminant),  # det = 0
        ((1e200, 0.0, 0.0, 1e200), OverflowError),  # ||F||^2 beyond the double range
    ])
    def test_invalid_f_raises_on_every_call_and_stores_nothing(self, entries, error):
        f = Mat2(*entries)
        w = Weights(1.0, 0.5)
        for _ in range(2):
            for name, call in self.CALLS.items():
                with pytest.raises(error):
                    call(f, w)
                assert _stored(f) is None, name

    def test_slot_is_not_part_of_the_value(self):
        stored = Mat2(1.0, 2.0, 0.0, 1.0)
        trace_invariants(stored)
        fresh = Mat2(1.0, 2.0, 0.0, 1.0)
        assert _stored(stored) is not None and _stored(fresh) is None
        assert [fld.name for fld in dataclasses.fields(stored)] == ["e11", "e12", "e21", "e22"]
        assert dataclasses.astuple(stored) == stored.entries()
        assert repr(stored) == repr(fresh) == "Mat2(e11=1.0, e12=2.0, e21=0.0, e22=1.0)"
        assert stored == fresh and hash(stored) == hash(fresh) == hash(stored.entries())
        assert not hasattr(stored, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            stored._checked_invariants = None

    @CLONES
    def test_clones_rebuild_through_init(self, clone):
        # the clone's slot is set, to None, before its first trace_invariants
        f = Mat2(0.3, -1.2, -0.0, 1.7)
        inv = trace_invariants(f)
        g = clone(f)
        assert g._checked_invariants is None
        assert repr(g) == repr(f) and math.copysign(1.0, g.e21) == -1.0
        assert repr(trace_invariants(g)) == repr(inv) and g._checked_invariants == inv

    @CLONES
    def test_clones_compute_again_on_first_use(self, clone):
        f = Mat2(0.3, -1.2, 0.9, 1.7)
        inv = trace_invariants(f)
        g = clone(f)
        assert g == f and _stored(g) is None
        assert repr(trace_invariants(g)) == repr(inv)
        assert _stored(g) is not None and _stored(g) is not inv
