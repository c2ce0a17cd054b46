"""Brute-force certification on the circle of rotation angles.

grid_minimize evaluates an arbitrary single-angle energy on a dense
uniform grid over (-pi, pi], building the angles and evaluating them in
blocks of 4096, so the only grid-sized float array is the samples, one
float per grid angle. It finds the runs of near-minimal cells in one pass
over the grid-local minima and refines each run with Brent's method
(golden-section steps with safeguarded parabolic steps) from its best
sample. sign_change_scan brackets and bisects the roots of a
continuous periodic function. Both are deliberately derivative-free so
they remain robust at the non-smooth bifurcation threshold, and both treat
the supplied callable as a black box. A GridResult keeps only what the
oracle measured: the minima, the grid size and step, and the work counters.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import NonFiniteEnergy, PlanarCosseratError
from .planar import circular_distance, normalize_angle

#: Grid cells within this absolute distance of the best cell value are
#: considered near-minimal and grouped into clusters.
CLUSTER_VALUE_TOL = 1e-7

#: Refined minima within this many grid steps of a lower one merge into it.
MERGE_STEPS = 2.0

#: Fewest grid angles either scan accepts: one per degree.
MIN_GRID_N = 360

#: Angles per block of the grid: each block builds its own angles and, for
#: a vectorized energy, makes one energy call, so the angles and the energy's
#: temporaries stay in cache and no float array but the samples has the
#: size of the grid.
_GRID_BLOCK = 4096

#: Steps after which Brent's search or a bisection raises; a valid one takes a few dozen.
_MAX_STEPS = 500

_SQRT_EPS = math.sqrt(2.0**-52)
_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0


class GridResult(NamedTuple):
    """Outcome of a grid minimization: what the oracle measured.

    minima lists (angle, value) pairs for every global minimizer found up
    to CLUSTER_VALUE_TOL, pairwise separated by more than
    MERGE_STEPS * angle_tol, where angle_tol is the grid step. Work
    counters: the grid costs grid_n evaluations, clusters is the number of
    near-minimal runs refined, and refine_evaluations counts the
    single-angle energy calls of refinement and polish.
    """

    minima: tuple[tuple[float, float], ...]
    grid_n: int
    angle_tol: float
    refine_evaluations: int = 0
    clusters: int = 0

    @property
    def angles(self) -> tuple[float, ...]:
        return tuple(angle for angle, _ in self.minima)

    @property
    def best_value(self) -> float:
        return min(value for _, value in self.minima)


def _sample(energy, grid_n: int, vectorized: bool, offset: float):
    # The grid -pi + h * (offset + i), i = 0 .. grid_n-1, and the energy on it.
    try:
        grid_n = operator.index(grid_n)
    except TypeError:
        raise ValueError(f"grid_n must be an integer, got {grid_n!r}") from None
    if grid_n < MIN_GRID_N:
        raise ValueError(f"grid_n must be at least {MIN_GRID_N}, got {grid_n}")
    h = math.tau / grid_n
    values = np.empty(grid_n)
    # Overflow or invalid operations inside the energy surface below as
    # NonFiniteEnergy, so numpy's floating-point warnings are not shown.
    with np.errstate(all="ignore"):
        for start in range(0, grid_n, _GRID_BLOCK):
            stop = min(start + _GRID_BLOCK, grid_n)
            # elementwise the formula above, so each angle has the same bits
            # as in one array over the whole grid
            block = -math.pi + h * (offset + np.arange(start, stop))
            if vectorized:
                # the energy acts elementwise, so blocking does not change the values
                out = np.asarray(energy(block), dtype=float)
                if out.shape != block.shape:
                    raise ValueError("vectorized energy must return one value per angle")
            else:
                out = np.fromiter(
                    (float(energy(a)) for a in block), dtype=float, count=block.size
                )
            values[start:stop] = out
    finite = np.isfinite(values)
    if not finite.all():
        idx = int(np.argmin(finite))
        raise NonFiniteEnergy(
            f"energy is {float(values[idx])!r} at angle {-math.pi + h * (offset + idx)!r}"
        )
    return h, values


def _scalar(energy, alpha: float) -> float:
    try:
        value = float(energy(alpha))
    except OverflowError:  # a float energy beyond the floating-point range
        value = math.inf
    if not math.isfinite(value):
        raise NonFiniteEnergy(f"energy is {value!r} at angle {alpha!r}")
    return value


def _brent(energy, lo: float, hi: float, x: float, fx: float, tol: float):
    # Brent's minimizer (Algorithms for Minimization without Derivatives,
    # 1973, ch. 5) on (lo, hi) from a known point x inside it with value fx:
    # safeguarded parabolic steps through the three best points, golden-
    # section steps whenever a parabola is rejected. Stops once the bracket
    # around x is about 4 * (tol + sqrt(eps) |x|) wide; only ever moves x to
    # a point of lower or equal value, so fx never rises above the seed.
    w = v = x
    fw = fv = fx
    d = e = 0.0
    for _ in range(_MAX_STEPS):
        m = 0.5 * (lo + hi)
        tol1 = _SQRT_EPS * abs(x) + tol
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (hi - lo):
            return x, fx
        p = q = r = 0.0
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (lo - x) < p < q * (hi - x):
            d = p / q  # parabolic step, kept tol2 away from the ends
            if (x + d) - lo < tol2 or hi - (x + d) < tol2:
                d = tol1 if x < m else -tol1
        else:
            e = (hi if x < m else lo) - x  # golden-section step into the larger part
            d = _GOLDEN_STEP * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = _scalar(energy, u)
        if fu <= fx:
            if u < x:
                hi = x
            else:
                lo = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                lo = u
            else:
                hi = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    raise PlanarCosseratError(f"Brent's search on [{lo!r}, {hi!r}] took {_MAX_STEPS} steps")


def _parabolic_polish(energy, x: float, fx: float) -> tuple[float, float]:
    # Brent's placement stops where value differences near the minimum
    # fall below floating-point noise; a single three-point parabola
    # fit with a spacing of 1e-5, well above that noise floor, recovers the vertex.
    # Still derivative-free; rejected whenever the fit is not convex or the
    # vertex leaves the sampled neighborhood.
    delta = 1e-5
    f_minus = _scalar(energy, x - delta)
    f_plus = _scalar(energy, x + delta)
    denom = f_minus - 2.0 * fx + f_plus
    if not (denom > 0.0 and math.isfinite(denom)):
        return x, fx
    shift = 0.5 * delta * (f_minus - f_plus) / denom
    if abs(shift) > delta:
        return x, fx
    candidate = x + shift
    f_candidate = _scalar(energy, candidate)
    # Lenient on purpose: the energy is flat to rounding over about 1e-8 rad
    # around a minimum, and Brent stops anywhere in that band. The vertex is
    # fixed by samples 1e-5 apart, far above the rounding, so it is the
    # better angle even when its value reads a little above fx. Accepting
    # only f_candidate <= fx leaves Brent's angle in place, and the suite's
    # oracle_self_consistency (grid_n against 2 * grid_n) then reads up to
    # 3.1e-8 against its 1e-8 tolerance (seeds 2 and 3, 5 samples).
    if f_candidate <= fx + CLUSTER_VALUE_TOL:
        return candidate, f_candidate
    return x, fx


def _near_runs(values: np.ndarray, best: float) -> list[tuple[int, int]]:
    # Runs of the near-minimal cells as (first, last) index pairs, where last
    # exceeds n-1 for a run across the seam: the grid-local minima (each
    # compared with its two circular neighbours) within CLUSTER_VALUE_TOL
    # plus their slack of the best sample, found in one pass over them.
    # Near a true minimum the closest sample sits up to f''h^2/8 above the
    # true value, so equal minima can show unequal samples. The local second
    # difference estimates exactly that discretization slack per cell; only
    # grid-local minima are eligible, which keeps the slack from leaking
    # across discontinuities. grid_minimize re-applies the strict value
    # tolerance to the refined values.
    n = values.size
    local = np.empty(n, dtype=bool)
    np.less_equal(values[1:], values[:-1], out=local[1:])
    local[0] = values[0] <= values[-1]
    local[:-1] &= values[:-1] <= values[1:]
    local[-1] &= values[-1] <= values[0]
    limit = best + CLUSTER_VALUE_TOL
    get = values.item  # a float, so each operation below rounds as numpy's would
    runs: list[tuple[int, int]] = []
    first = last = -2  # the open run; none yet, as no cell follows -2
    for i in np.flatnonzero(local).tolist():
        v = get(i)
        # a cell at the limit needs no slack, which is never negative; get(-1) is the last cell
        if v > limit and v > limit + abs(get((i + 1) % n) - 2.0 * v + get(i - 1)):
            continue
        if i != last + 1:
            if first >= 0:
                runs.append((first, last))
            first = i
        last = i
    if runs and runs[0][0] == 0 and last == n - 1:
        last = runs.pop(0)[1] + n  # the open run continues across the seam
    runs.append((first, last))
    return runs


def grid_minimize(
    energy: Callable,
    grid_n: int = 20000,
    vectorized: bool = False,
) -> GridResult:
    """Locate all global minimizers of a 2*pi-periodic energy.

    The energy is sampled at grid_n uniformly spaced angles covering
    (-pi, pi]; cells within CLUSTER_VALUE_TOL of the best sample are
    grouped into circular clusters (the wrap-around cell is treated as
    adjacent to the first). Each cluster is refined by Brent's method,
    started at its best sample, until the bracket is about
    4 * (1e-10 + 1.5e-8 * |angle|) wide, below which value comparisons
    are rounding noise, and then polished by a three-point parabola fit.
    Deterministic for fixed inputs. Pass vectorized=True when the energy
    accepts an ndarray of angles and returns an ndarray of values; grids
    above 4096 angles are then evaluated in consecutive blocks of 4096.
    The angles are built block by block and the near-minimal test runs at
    the grid-local minima only, so the one grid-sized float array is the
    samples: about 8 * grid_n bytes. grid_n must be an integer (an
    np.int64 is accepted, 720.0 is not) of at least MIN_GRID_N; otherwise
    ValueError is raised.
    """
    h, values = _sample(energy, grid_n, vectorized, 1.0)
    grid_n = values.size  # a plain int, also for an np.int64 argument

    refine_evaluations = 0

    def refine_energy(alpha: float):
        nonlocal refine_evaluations
        refine_evaluations += 1
        return energy(alpha)

    candidates: list[tuple[float, float]] = []  # one per cluster
    for first, last in _near_runs(values, float(values.min())):
        lo = -math.pi + h * first  # one cell to the left of the first sample
        hi = -math.pi + h * (last + 2.0)  # one cell to the right of the last
        # Each cell of a run is a grid-local minimum, so all its samples are
        # equal and the first is a best one: Brent starts there at no cost.
        seed = -math.pi + h * (1.0 + first)
        angle, value = _brent(refine_energy, lo, hi, seed, float(values[first]), 1e-10)
        angle, value = _parabolic_polish(refine_energy, angle, value)
        candidates.append((normalize_angle(angle), float(value)))

    best_refined = min(value for _, value in candidates)
    kept = [c for c in candidates if c[1] <= best_refined + CLUSTER_VALUE_TOL]

    # Merge refined minima within MERGE_STEPS grid steps, keeping the lower value.
    kept.sort(key=lambda c: c[1])
    merged: list[tuple[float, float]] = []
    for angle, value in kept:
        if all(circular_distance(angle, a) > MERGE_STEPS * h for a, _ in merged):
            merged.append((angle, value))
    merged.sort(key=lambda c: c[0])

    return GridResult(
        minima=tuple(merged),
        grid_n=grid_n,
        angle_tol=h,
        refine_evaluations=refine_evaluations,
        clusters=len(candidates),
    )


def _bisect(f, lo: float, hi: float, flo: float, tol: float) -> float:
    for _ in range(_MAX_STEPS):
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        fm = _scalar(f, mid)
        if fm == 0.0:
            return mid
        if (flo < 0.0) != (fm < 0.0):
            hi = mid
        else:
            lo, flo = mid, fm
    raise PlanarCosseratError(f"bisection on [{lo!r}, {hi!r}] took {_MAX_STEPS} steps")


def sign_change_scan(
    f: Callable,
    grid_n: int = 1440,
    vectorized: bool = False,
) -> list[float]:
    """All roots of a continuous 2*pi-periodic function found by bracketing.

    Samples grid_n points around the circle, brackets each cell between
    neighbouring samples, the seam cell included, and bisects every sign
    change down to 1e-10. Exact zeros at sample points are reported
    directly. Returns normalized angles in increasing order with
    near-duplicates removed. grid_n must be an integer of at least
    MIN_GRID_N, as for grid_minimize.
    """
    h, values = _sample(f, grid_n, vectorized, 0.0)

    # cell i runs from sample i to sample i + 1, the last one across the seam, and
    # brackets a root where its ends' signs differ: signs, whose product cannot
    # underflow. Slices, not np.roll, whose own overhead is larger at 1440 samples.
    sign = np.sign(values)
    hit = values == 0.0
    hit[:-1] |= sign[:-1] * sign[1:] < 0.0
    hit[-1] |= sign[-1] * sign[0] < 0.0
    roots: list[float] = []
    for i in np.flatnonzero(hit).tolist():
        a0 = -math.pi + h * i
        v0 = float(values[i])
        if v0 == 0.0:
            roots.append(normalize_angle(a0))
        else:
            roots.append(normalize_angle(_bisect(f, a0, a0 + h, v0, 1e-10)))

    roots.sort()
    deduped: list[float] = []
    for r in roots:
        if all(circular_distance(r, q) > 5e-9 for q in deduped):
            deduped.append(r)
    return deduped


def angle_set_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Symmetric Hausdorff distance between two angle sets, modulo 2*pi."""
    if not a and not b:
        return 0.0
    if not a or not b:
        return math.inf
    # circular_distance is symmetric, so one table serves both directions
    table = [[circular_distance(x, y) for y in b] for x in a]
    return max(max(map(min, table)), max(map(min, zip(*table))))
