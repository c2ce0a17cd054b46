"""Exact primitives for 2x2 real matrices and planar rotation angles.

Everything in this module is closed form: traces, determinants, the
rotation/stretch (polar) factorization, singular values and the
cofactor-transpose map. Membership in GL+(2) and SO(2) is validated,
never assumed, whenever a matrix crosses a function boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NonPositiveDeterminant, NotARotation

# Tolerance for SO(2) membership: orthogonality defect and |det - 1|.
ROTATION_TOL = 1e-12

# bound once for the per-call paths: a module global is one lookup, math.x two
_TAU, _PI, _remainder, _isfinite = math.tau, math.pi, math.remainder, math.isfinite


def normalize_angle(radians: float) -> float:
    """Map an angle to the half-open interval (-pi, pi].

    The boundary is resolved in favor of +pi, so normalization is
    idempotent and pi is always preferred over -pi.
    """
    a = _remainder(float(radians), _TAU)
    if a <= -_PI:
        a += _TAU
    return a


def circular_distance(a: float, b: float) -> float:
    """Distance between two angles modulo 2*pi, in [0, pi]."""
    return abs(normalize_angle(a - b))


def _entry_error(name: str, value: float) -> ValueError:
    return ValueError(f"matrix entry {name} must be finite, got {value!r}")


class _StoredInvariants:
    # A slot outside the dataclass fields, so fields(), astuple, repr, == and
    # hash never see it. It holds the checked TraceInvariants once known, or
    # None, which Mat2.__init__ sets, also for a copy or an unpickled Mat2.
    __slots__ = ("_checked_invariants",)


@dataclass(frozen=True, slots=True, init=False)
class Mat2(_StoredInvariants):
    """A 2x2 real matrix with row-major entries e11, e12, e21, e22.

    Entries must be finite; instances are immutable and safe to share.
    A Mat2 keeps its checked trace invariants once trace_invariants has
    computed them.
    """

    e11: float
    e12: float
    e21: float
    e22: float

    def __init__(self, e11: float, e12: float, e21: float, e22: float):
        # Entries are converted and checked in order, so the first bad one is named.
        if not _isfinite(e11 := float(e11)):
            raise _entry_error("e11", e11)
        if not _isfinite(e12 := float(e12)):
            raise _entry_error("e12", e12)
        if not _isfinite(e21 := float(e21)):
            raise _entry_error("e21", e21)
        if not _isfinite(e22 := float(e22)):
            raise _entry_error("e22", e22)
        _set_e11(self, e11)
        _set_e12(self, e12)
        _set_e21(self, e21)
        _set_e22(self, e22)
        _set_checked_invariants(self, None)

    def __reduce__(self):
        # pickle and copy rebuild through __init__, which clears the stored invariants
        return type(self), self.entries()

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def diagonal(cls, d1: float, d2: float) -> "Mat2":
        return cls(d1, 0.0, 0.0, d2)

    def as_array(self) -> np.ndarray:
        return np.array([[self.e11, self.e12], [self.e21, self.e22]], dtype=float)

    def entries(self) -> tuple[float, float, float, float]:
        return (self.e11, self.e12, self.e21, self.e22)

    def trace(self) -> float:
        return self.e11 + self.e22

    def det(self) -> float:
        return self.e11 * self.e22 - self.e12 * self.e21

    def frobenius_sq(self) -> float:
        return self.e11**2 + self.e12**2 + self.e21**2 + self.e22**2

    def frobenius_norm(self) -> float:
        return math.sqrt(self.frobenius_sq())

    def transpose(self) -> "Mat2":
        return Mat2(self.e11, self.e21, self.e12, self.e22)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.e11 * other.e11 + self.e12 * other.e21,
            self.e11 * other.e12 + self.e12 * other.e22,
            self.e21 * other.e11 + self.e22 * other.e21,
            self.e21 * other.e12 + self.e22 * other.e22,
        )

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.e11 - other.e11, self.e12 - other.e12,
                    self.e21 - other.e21, self.e22 - other.e22)

    def __mul__(self, scalar: float) -> "Mat2":
        s = float(scalar)
        return Mat2(s * self.e11, s * self.e12, s * self.e21, s * self.e22)

    __rmul__ = __mul__


# The slot descriptors' setters store past the frozen __setattr__.
_set_e11, _set_e12, _set_e21, _set_e22 = (
    Mat2.__dict__[name].__set__ for name in ("e11", "e12", "e21", "e22")
)
_set_checked_invariants = _StoredInvariants._checked_invariants.__set__

#: Quarter turn, i.e. rotation by +pi/2. Multiplying a vector by this matrix
#: corresponds to multiplication by the imaginary unit.
QUARTER_TURN = Mat2(0.0, -1.0, 1.0, 0.0)


def require_gl_plus(f: Mat2) -> Mat2:
    """Raise NonPositiveDeterminant unless det f > 0."""
    if not f.det() > 0.0:
        raise NonPositiveDeterminant(f"det F = {f.det()!r} must be positive")
    return f


def _transpose_times(r: Mat2, x: Mat2) -> tuple[float, float, float, float]:
    """Entries of R^T X, bit-identical to (r.transpose() @ x).entries() when finite.

    The checked functions' one R^T F route; an overflowing entry is inf, not an error.
    """
    return (
        r.e11 * x.e11 + r.e21 * x.e21,
        r.e11 * x.e12 + r.e21 * x.e22,
        r.e12 * x.e11 + r.e22 * x.e21,
        r.e12 * x.e12 + r.e22 * x.e22,
    )


def rotation_defect(r: Mat2) -> float:
    """Frobenius norm of R^T R - identity (orthogonality defect)."""
    g11, g12, g21, g22 = _transpose_times(r, r)
    try:
        return math.sqrt((g11 - 1.0) ** 2 + g12**2 + g21**2 + (g22 - 1.0) ** 2)
    except OverflowError:  # R^T R is finite but a square of it is not
        return math.inf


def require_rotation(r: Mat2) -> Mat2:
    """Raise NotARotation unless r is in SO(2) within ROTATION_TOL."""
    if rotation_defect(r) > ROTATION_TOL or abs(r.det() - 1.0) > ROTATION_TOL:
        raise NotARotation(
            f"matrix is not a rotation (defect {rotation_defect(r):.3e}, det {r.det()!r})"
        )
    return r


def rotation(alpha: float) -> Mat2:
    """Counterclockwise rotation by alpha radians."""
    c, s = math.cos(alpha), math.sin(alpha)
    if not _isfinite(c):  # a NaN angle; math raised already for +-inf
        return Mat2(c, -s, s, c)
    # a finite angle gives entries in [-1, 1], which pass Mat2's checks as they are
    r = object.__new__(Mat2)
    _set_e11(r, c)
    _set_e12(r, -s)
    _set_e21(r, s)
    _set_e22(r, c)
    _set_checked_invariants(r, None)
    return r


class TraceInvariants(NamedTuple):
    """The scalar invariants of F that drive every closed form here."""

    tr_f: float
    tr_jf: float
    tr_u: float
    det_f: float
    frob_f: float


def _invariants(e11: float, e12: float, e21: float, e22: float):
    """(tr F, tr JF, tr U, det F, ||F||) from the entries of F, unvalidated."""
    tr_f = e11 + e22
    tr_jf = e12 - e21
    det_f = e11 * e22 - e12 * e21
    frob_sq = e11**2 + e12**2 + e21**2 + e22**2
    tr_u = math.sqrt(frob_sq + 2.0 * det_f)
    return tr_f, tr_jf, tr_u, det_f, math.sqrt(frob_sq)


def trace_invariants(f: Mat2) -> TraceInvariants:
    """Traces, determinant and Frobenius norm of F, plus the stretch trace.

    tr_jf is the trace of (quarter turn) * F. The stretch trace satisfies
    tr U = sqrt(||F||^2 + 2 det F) and also tr_f^2 + tr_jf^2 = (tr U)^2.
    The first successful call stores the result on f and later calls return
    it; an F outside GL+(2) stores nothing and raises on every call.
    """
    inv = f._checked_invariants
    if inv is None:
        require_gl_plus(f)
        inv = TraceInvariants._make(_invariants(f.e11, f.e12, f.e21, f.e22))
        _set_checked_invariants(f, inv)
    return inv


class PolarDecomposition(NamedTuple):
    angle: float
    rotation: Mat2
    stretch: Mat2


def polar_angle(f: Mat2) -> float:
    """Rotation angle of the polar factor of F, in (-pi, pi].

    Determined from the simultaneous equations cos(a) = tr F / tr U and
    sin(a) = -tr_jf / tr U via the two-argument arctangent; a bare arccos
    would lose the sign.
    """
    inv = trace_invariants(f)
    return _polar_angle(inv.tr_f, inv.tr_jf)


def _polar_angle(tr_f: float, tr_jf: float) -> float:
    return math.atan2(-tr_jf, tr_f)


def polar_decompose(f: Mat2) -> PolarDecomposition:
    """Right polar decomposition F = R U with R in SO(2) and U symmetric

    positive definite. Returns the rotation angle, the rotation matrix and
    the stretch U = R^T F.
    """
    alpha_p = polar_angle(f)
    rot = rotation(alpha_p)
    stretch = rot.transpose() @ f
    return PolarDecomposition(alpha_p, rot, stretch)


class SingularPair(NamedTuple):
    """Singular values of a GL+(2) matrix, ordered sigma1 >= sigma2 > 0."""

    sigma1: float
    sigma2: float


def singular_values(f: Mat2) -> SingularPair:
    """Closed-form singular values: the roots of x^2 - (tr U) x + det F.

    The smaller one is recovered as det F / sigma1 to avoid cancellation
    for nearly singular inputs.
    """
    inv = trace_invariants(f)
    disc = max(inv.tr_u**2 - 4.0 * inv.det_f, 0.0)
    sigma1 = 0.5 * (inv.tr_u + math.sqrt(disc))
    sigma2 = inv.det_f / sigma1
    return SingularPair(sigma1, sigma2)


def cofactor_transform(f: Mat2) -> Mat2:
    """The transposed-cofactor map F -> det(F) * F^{-T}.

    An involution on GL+(2) that swaps the singular values' roles while
    preserving both the determinant and the stretch trace. It also keeps
    the polar factor, so in 2D the optimal rotations of cof F are those
    of F.
    """
    require_gl_plus(f)
    return Mat2(f.e22, -f.e21, -f.e12, f.e11)
