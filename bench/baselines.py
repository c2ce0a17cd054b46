"""One-off measurements of the ROADMAP baseline figures.

    python3 bench/baselines.py

Prints one JSON object: optimal_set time per call, grid_minimize(n=20000)
time per call with its grid-evaluation share, `verify --samples 5000`,
a 100k-row `sweep-shear` serial and with --workers min(2, nproc), and the
import time of cosserat2d.cli with its numpy part. Not part of a
benchmark run; the figures go into bench/README.md.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import cosserat2d as c2d  # noqa: E402
from cosserat2d import cli  # noqa: E402
from run import WORKER_ENV, import_times  # noqa: E402


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    rng = np.random.default_rng(0)
    cases = []
    while len(cases) < 20000:
        e = rng.uniform(-2.0, 2.0, 4)
        if e[0] * e[3] - e[1] * e[2] >= 0.05:
            mu = rng.uniform(0.2, 2.5)
            cases.append((c2d.Mat2(*e), c2d.Weights(mu, mu * rng.uniform(0.0, 2.0))))
    out = {}
    per_call = _median_time(lambda: [c2d.optimal_set(f, w) for f, w in cases], 5)
    out["optimal_set_us"] = per_call / len(cases) * 1e6

    profiles = [c2d.shear_stretch_profile(f, w) for f, w in cases[:200]]
    h = math.tau / 20000
    alphas = -math.pi + h * (1.0 + np.arange(20000))
    grid = _median_time(lambda: [c2d.grid_minimize(p, 20000, vectorized=True)
                                 for p in profiles], 5)
    evaluate = _median_time(lambda: [p(alphas) for p in profiles], 5)
    out["grid_minimize_20000_ms"] = grid / len(profiles) * 1e3
    out["grid_minimize_20000_eval_share"] = evaluate / grid

    scratch = BENCH / "out"
    scratch.mkdir(exist_ok=True)
    target = str(scratch / "baseline.out")
    out["verify_samples_5000_s"] = _median_time(
        lambda: cli.main(["verify", "--samples", "5000", "--out", target]), 1)
    sweep = ["sweep-shear", "--gamma-start", "0", "--gamma-end", "9.9999",
             "--gamma-step", "1e-4", "--out", target]
    out["sweep_100k_serial_s"] = _median_time(lambda: cli.main(sweep), 3)
    workers = str(min(2, len(os.sched_getaffinity(0))))
    out[f"sweep_100k_workers_{workers}_s"] = _median_time(
        lambda: cli.main(sweep + ["--workers", workers]), 3)
    os.remove(target)
    out.update(import_times({**os.environ, **WORKER_ENV}, repeats=5))
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
