"""Brute-force certification on the circle of rotation angles.

grid_minimize evaluates an arbitrary single-angle energy on a dense
uniform grid over (-pi, pi], in blocks of 4096 angles for larger grids,
clusters the near-minimal cells, and refines each cluster with Brent's
method (golden-section steps with safeguarded parabolic steps) from its
best sample. sign_change_scan brackets and bisects the roots of a
continuous periodic function. Both are deliberately derivative-free so
they remain robust at the non-smooth bifurcation threshold, and both treat
the supplied callable as a black box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteEnergy
from .planar import circular_distance, normalize_angle

#: Grid cells within this absolute distance of the best cell value are
#: considered near-minimal and grouped into clusters.
CLUSTER_VALUE_TOL = 1e-7

#: Fraction of near-minimal cells beyond which the landscape is flagged
#: as a plateau.
PLATEAU_FRACTION = 0.1

#: Refined minima within this many grid steps of a lower one merge into it.
MERGE_STEPS = 2.0

#: Fewest grid angles either scan accepts: one per degree.
MIN_GRID_N = 360

#: Angles per energy call when grid_minimize evaluates a vectorized energy;
#: larger grids run in blocks of this size so the temporaries stay in cache.
_GRID_BLOCK = 4096

_SQRT_EPS = math.sqrt(2.0**-52)
_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class GridResult:
    """Outcome of a grid minimization.

    minima lists (angle, value) pairs for every global minimizer found up
    to value_tol, pairwise separated by more than MERGE_STEPS * angle_tol.
    plateau is set when more than 10% of the grid is near-minimal, which signals
    a (nearly) constant landscape rather than isolated minima. Work
    counters: the grid costs grid_n evaluations, clusters is the number of
    near-minimal runs refined, and refine_evaluations counts the
    single-angle energy calls of refinement and polish.
    """

    minima: tuple[tuple[float, float], ...]
    grid_n: int
    value_tol: float
    angle_tol: float
    plateau: bool
    refine_evaluations: int = 0
    clusters: int = 0

    @property
    def angles(self) -> tuple[float, ...]:
        return tuple(angle for angle, _ in self.minima)

    @property
    def best_value(self) -> float:
        return min(value for _, value in self.minima)


def _evaluate_grid(energy, alphas: np.ndarray, vectorized: bool) -> np.ndarray:
    # Overflow or invalid operations inside the energy surface below as
    # NonFiniteEnergy, so numpy's floating-point warnings are not shown.
    with np.errstate(all="ignore"):
        if vectorized:
            # One call up to _GRID_BLOCK angles, consecutive blocks beyond; the
            # energy acts elementwise, so blocking does not change the values.
            blocks = []
            for start in range(0, alphas.size, _GRID_BLOCK):
                block = alphas[start:start + _GRID_BLOCK]
                out = np.asarray(energy(block), dtype=float)
                if out.shape != block.shape:
                    raise ValueError("vectorized energy must return one value per angle")
                blocks.append(out)
            values = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        else:
            values = np.fromiter(
                (float(energy(a)) for a in alphas), dtype=float, count=alphas.size
            )
    bad = ~np.isfinite(values)
    if bad.any():
        idx = int(np.argmax(bad))
        raise NonFiniteEnergy(
            f"energy is {float(values[idx])!r} at angle {float(alphas[idx])!r}"
        )
    return values


def _sample(energy, grid_n: int, vectorized: bool, offset: float):
    # The grid -pi + h * (offset + i), i = 0 .. grid_n-1, and the energy on it.
    if grid_n < MIN_GRID_N:
        raise ValueError(f"grid_n must be at least {MIN_GRID_N}, got {grid_n}")
    h = math.tau / grid_n
    alphas = -math.pi + h * (offset + np.arange(grid_n))
    return h, alphas, _evaluate_grid(energy, alphas, vectorized)


def _scalar(energy, alpha: float) -> float:
    value = float(energy(alpha))
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
    while True:
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
    if f_candidate <= fx + CLUSTER_VALUE_TOL:
        return candidate, f_candidate
    return x, fx


def _clusters(near: np.ndarray) -> list[tuple[int, int]]:
    # Contiguous runs of near-minimal cells on the circular grid, returned
    # as (first, last) index pairs where last may exceed n-1 for a run
    # that wraps around the seam.
    n = near.size
    if near.all():
        return [(0, n - 1)]
    indices = np.flatnonzero(near)
    runs: list[tuple[int, int]] = []
    start = prev = int(indices[0])
    for i in indices[1:]:
        i = int(i)
        if i == prev + 1:
            prev = i
            continue
        runs.append((start, prev))
        start = prev = i
    runs.append((start, prev))
    # merge a run ending at n-1 with one starting at 0 across the seam
    if len(runs) > 1 and runs[0][0] == 0 and runs[-1][1] == n - 1:
        first = runs.pop(0)
        last = runs.pop()
        runs.append((last[0], first[1] + n))
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
    """
    h, _, values = _sample(energy, grid_n, vectorized, 1.0)

    best = float(values.min())
    plateau = np.count_nonzero(values <= best + CLUSTER_VALUE_TOL) / grid_n > PLATEAU_FRACTION

    # Near a true minimum the closest sample sits up to f''h^2/8 above the
    # true value, so equal minima can show unequal samples. The local second
    # difference estimates exactly that discretization slack per cell; only
    # grid-local minima are eligible, which keeps the slack from leaking
    # across discontinuities. The final filter below re-applies the strict
    # value tolerance to the refined values.
    # circular neighbours, as np.roll(values, +-1) at a fraction of its cost
    left = np.concatenate((values[-1:], values[:-1]))
    right = np.concatenate((values[1:], values[:1]))
    slack = np.abs(right - 2.0 * values + left)
    near = (
        (values <= left)
        & (values <= right)
        & (values <= best + CLUSTER_VALUE_TOL + slack)
    )

    refine_evaluations = 0

    def refine_energy(alpha: float):
        nonlocal refine_evaluations
        refine_evaluations += 1
        return energy(alpha)

    candidates: list[tuple[float, float]] = []  # one per cluster
    for first, last in _clusters(near):
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
        value_tol=CLUSTER_VALUE_TOL,
        angle_tol=h,
        plateau=plateau,
        refine_evaluations=refine_evaluations,
        clusters=len(candidates),
    )


def _bisect(f, lo: float, hi: float, flo: float, tol: float) -> float:
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = _scalar(f, mid)
        if fm == 0.0:
            return mid
        if (flo < 0.0) != (fm < 0.0):
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def sign_change_scan(
    f: Callable,
    grid_n: int = 1440,
    vectorized: bool = False,
) -> list[float]:
    """All roots of a continuous 2*pi-periodic function found by bracketing.

    Samples grid_n points around the circle, duplicates the wrap-around
    cell, and bisects every sign change down to 1e-10. Exact zeros at
    sample points are reported directly. Returns normalized angles in
    increasing order with near-duplicates removed.
    """
    h, alphas, values = _sample(f, grid_n, vectorized, 0.0)

    # cell i runs from sample i to sample i + 1, the last one across the seam
    right = np.concatenate((values[1:], values[:1]))
    hits = np.flatnonzero((values == 0.0) | (values * right < 0.0))
    roots: list[float] = []
    for i in hits:
        a0 = float(alphas[i])
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
    d_ab = max(min(circular_distance(x, y) for y in b) for x in a)
    d_ba = max(min(circular_distance(x, y) for y in a) for x in b)
    return max(d_ab, d_ba)
