"""matrix_log_2x2 against a 50-digit principal logarithm.

The reference is V log(L) V^-1 from mpmath.eig, with mpmath's principal
complex log of each eigenvalue. It does not use mpmath.logm: for the
matrix FOUND below, mpmath 1.3.0's logm returns a non-principal log,
with -i*pi on its diagonal. Each seeded set is a similarity transform
V diag(...) V^-1 (or of a rotation-scaling block) with det V bounded away
from zero, so the eigenvector basis is well conditioned.
"""

import math

import mpmath
import numpy as np
import pytest

from cosserat2d import Mat2, matrix_log_2x2

EPS = 2.0**-52

#: Forward-error factor: ||log X - reference|| <= K * EPS * ||reference|| in the
#: Frobenius norm. The measured worst case over 9,000 draws of each generator
#: below (seeds 1-3 of 3,000 each) was 441 for distinct eigenvalues, 190 for a
#: complex pair and 240 for either scaled by 10^U(-150, -8); K leaves room for
#: other libms.
K = 1024

#: The factor for near-coincident eigenvalues, whose measured worst over 9,000
#: draws was 2.1. A tolerance band around a zero discriminant used to send them
#: to the Jordan form, which drops a term of size disc / (8 lam^2), and read 602.
NEAR_COINCIDENT_K = 4

#: Absolute bound near the identity, where the measured worst over 9,000 draws
#: was 1.4 eps (32 eps with the tolerance band).
NEAR_IDENTITY_ABS = 4

#: A complex pair near the negative real axis, -1.243 +- 0.037i.
FOUND = Mat2(-0.8084522505021428, -0.32225684609315647, 0.5917645357309529, -1.678108439583823)


def _reference(x: Mat2):
    # the real entries of V log(L) V^-1 as mpf, and the largest imaginary part
    with mpmath.workdps(50):
        e, v = mpmath.eig(mpmath.matrix([[x.e11, x.e12], [x.e21, x.e22]]))
        lg = v * mpmath.diag([mpmath.log(z) for z in e]) * mpmath.inverse(v)
        entries = [lg[i, j] for i in range(2) for j in range(2)]
        return [mpmath.re(z) for z in entries], max(abs(mpmath.im(z)) for z in entries)


def _errors(x: Mat2):
    # (absolute error, reference norm) in the Frobenius norm
    ref, imag = _reference(x)
    assert imag < 1e-40  # the principal log of a real matrix is real
    with mpmath.workdps(50):
        got = matrix_log_2x2(x).entries()
        err = mpmath.sqrt(sum((r - g) ** 2 for r, g in zip(ref, got)))
        return float(err), float(mpmath.sqrt(sum(r * r for r in ref)))


def _basis(rng):
    v = rng.normal(size=(2, 2))
    while abs(np.linalg.det(v)) < 0.2:
        v = rng.normal(size=(2, 2))
    return v


def _similar(rng, block):
    v = _basis(rng)
    return Mat2(*(v @ block @ np.linalg.inv(v)).ravel().tolist())


def _distinct(rng):
    return _similar(rng, np.diag(np.exp(rng.uniform(-3.0, 3.0, 2))))


def _complex_pair(rng):
    r = math.exp(rng.uniform(-3.0, 3.0))
    theta = rng.uniform(0.05, math.pi - 0.05)
    c, s = r * math.cos(theta), r * math.sin(theta)
    return _similar(rng, np.array([[c, -s], [s, c]]))


def _near_coincident(rng):
    # lam (1 +- gap), |log lam| >= 0.5; near the identity see the test below
    lam = math.exp(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0))
    gap = 10.0 ** rng.uniform(-12.0, -3.0)
    return _similar(rng, np.diag([lam * (1.0 + gap), lam * (1.0 - gap)]))


def _tiny(rng):
    # a distinct-positive or complex-pair draw scaled by 10^U(-150, -8)
    x = (_distinct, _complex_pair)[rng.integers(2)](rng)
    scale = 10.0 ** rng.uniform(-150.0, -8.0)
    return Mat2(*(scale * v for v in x.entries()))


def _near_identity(rng):
    # lam (1 +- gap), |log lam| <= 0.5
    lam = math.exp(rng.uniform(-0.5, 0.5))
    gap = 10.0 ** rng.uniform(-12.0, -3.0)
    return _similar(rng, np.diag([lam * (1.0 + gap), lam * (1.0 - gap)]))


@pytest.mark.parametrize(
    "index, draw, factor",
    [(1, _distinct, K), (2, _complex_pair, K), (3, _near_coincident, NEAR_COINCIDENT_K),
     (5, _tiny, K)],
    ids=["distinct_positive", "complex_pair", "near_coincident", "tiny"],
)
def test_seeded_sets_within_k_eps(index, draw, factor):
    rng = np.random.default_rng([20261019, index])
    for _ in range(150):
        x = draw(rng)
        err, norm = _errors(x)
        assert err <= factor * EPS * norm, (x, err / (EPS * norm))


def test_found_matrix_has_its_principal_log():
    err, norm = _errors(FOUND)
    assert err <= K * EPS * norm
    # the reference is a log of FOUND, and its eigenvalues' imaginary parts lie in (-pi, pi)
    ref, _ = _reference(FOUND)
    with mpmath.workdps(50):
        lg = mpmath.matrix([[ref[0], ref[1]], [ref[2], ref[3]]])
        back = mpmath.expm(lg)
        assert max(abs(back[i, j] - x) for (i, j), x in zip(
            ((0, 0), (0, 1), (1, 0), (1, 1)), FOUND.entries())) < 1e-40
        assert all(abs(mpmath.im(z)) < mpmath.pi for z in mpmath.eig(lg)[0])


def test_near_the_identity_within_absolute_eps():
    # Near the identity ||log X|| is small, and the error relative to it is not
    # within K: at diag(1 + 1e-7, 1 - 1e-7) it is about 2.7e6 eps, from the
    # cancellation in disc = t^2 - 4 det X. The absolute error is 0.38 eps there.
    rng = np.random.default_rng([20261019, 4])
    for _ in range(150):
        x = _near_identity(rng)
        err, _ = _errors(x)
        assert err <= NEAR_IDENTITY_ABS * EPS, (x, err / EPS)
    for gap in (1e-6, 1e-7, 1e-8):
        err, _ = _errors(Mat2.diagonal(1.0 + gap, 1.0 - gap))
        assert err <= NEAR_IDENTITY_ABS * EPS


def test_subnormal_trace_has_its_complex_log():
    # eigenvalues +-1e-8 i: the log is (-18.42, -pi/2; pi/2, -18.42)
    x = Mat2(5e-324, -1e-8, 1e-8, 0.0)
    err, norm = _errors(x)
    assert err <= K * EPS * norm
