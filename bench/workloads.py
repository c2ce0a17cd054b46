"""The four benchmark workloads: inputs, operations and correctness checks.

Inputs come from the benchmark seed through numpy; the package receives
only the generated values. `op(k)` is the timed call; `record(k, result)`
runs the cheap check of that call outside the timed part and returns the
number of failed operations; `final_failures()` runs the checks that need
the whole section. `layer_metrics` turns a traced section into the
per-layer metrics this workload is the home of.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

import cosserat2d as c2d
from tracer import GRID_SCALAR, GRID_VECTOR, SCAN_SCALAR

#: Same value as cosserat2d.cli.CERTIFY_TOL, the `minimize --certify` bound.
CERTIFY_TOL = 1e-6
#: Relative band around the singular radius that the acceptance suite redraws.
BAND = 1e-3
#: Relative energy tolerance, per unit of (mu + muc) * (2 + ||F||^2).
ENERGY_RTOL = 1e-10

HERE = Path(__file__).resolve().parent
HASHES = HERE / "tables_sha256.json"


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

def _split(n: int, mix) -> list[int]:
    """Exact per-kind counts for n draws from a (name, share) mix."""
    counts = [int(round(share * n)) for _, share in mix]
    counts[0] += n - sum(counts)
    return counts


def _gl_plus(rng, n: int) -> np.ndarray:
    """n row-major matrices, entries uniform in [-2, 2], det >= 0.05.

    The acceptance suite's draw: rejection keeps samples away from the
    boundary of GL+(2).
    """
    rows = []
    got = 0
    while got < n:
        e = rng.uniform(-2.0, 2.0, size=(2 * n + 16, 4))
        e = e[e[:, 0] * e[:, 3] - e[:, 1] * e[:, 2] >= 0.05]
        rows.append(e)
        got += len(e)
    return np.concatenate(rows)[:n]


def _stretch_trace(e: np.ndarray) -> np.ndarray:
    det = e[:, 0] * e[:, 3] - e[:, 1] * e[:, 2]
    return np.sqrt((e * e).sum(axis=1) + 2.0 * det)


def _cases(rng, n: int, kind: str, max_ratio: float = 0.85, scale=None):
    """n (entries, mu, muc) draws of one kind.

    kind is "classical" (muc >= mu), "below" or "pitchfork" (mu > muc with
    tr U below or above the singular radius) or "nonclassical" (either).
    Non-classical draws inside the BAND around the radius are redrawn.
    scale(rng, m) optionally multiplies each matrix by a factor.
    """
    out_e, out_mu, out_muc = [], [], []
    got = 0
    while not out_e or got < n:
        m = 2 * n + 16
        e = _gl_plus(rng, m)
        if scale is not None:
            e = e * scale(rng, m)[:, None]
        if kind == "classical":
            mu = rng.uniform(0.1, 2.5, m)
            muc = mu * rng.uniform(1.0, 3.0, m)
            keep = np.ones(m, dtype=bool)
        else:
            mu = rng.uniform(0.2, 2.5, m)
            muc = mu * rng.uniform(0.0, max_ratio, m)
            q = _stretch_trace(e) / (2.0 * mu / (mu - muc))
            keep = {
                "below": q < 1.0 - BAND,
                "pitchfork": q > 1.0 + BAND,
                "nonclassical": np.abs(q - 1.0) > BAND,
            }[kind]
        out_e.append(e[keep])
        out_mu.append(mu[keep])
        out_muc.append(muc[keep])
        got += int(keep.sum())
    return (np.concatenate(out_e)[:n], np.concatenate(out_mu)[:n],
            np.concatenate(out_muc)[:n])


def _log_uniform_scale(rng, m):
    return 10.0 ** rng.uniform(-150.0, 150.0, m)


def _matrices(e: np.ndarray) -> list:
    return [c2d.Mat2(*row) for row in e.tolist()]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    #: Operations that must complete together before a section may stop.
    round_size = 1

    def warmup(self) -> None:
        raise NotImplementedError

    def generate(self, seed: int, tiny: bool) -> None:
        raise NotImplementedError

    def op(self, k: int):
        """Run operation k; return (operations done, result)."""
        raise NotImplementedError

    def expected_ops(self, k: int) -> int:
        return 1

    def record(self, k: int, result) -> int:
        return 0

    def final_failures(self) -> int:
        return 0

    def instrument(self, tracer) -> None:
        """Route the workload's own call sites through tracer (None: undo)."""

    def layer_metrics(self, table, counters, ops: int, untraced) -> dict:
        return {}

    def details(self) -> dict:
        return {}


def _self_s(table, name, ops):
    return table[name][2] / 1e9 / ops


def _calls(table, name, ops):
    return table[name][0] / ops


class Pointwise(Workload):
    """FE-style per-point queries on the scalar closed form."""

    SIZE, TINY = 20000, 60
    #: Shares are set so that the median call falls inside the dense
    #: non-classical closed-form mode rather than in a gap between modes.
    MIX = (("classical", 0.15), ("below", 0.25), ("pitchfork", 0.35),
           ("shear", 0.15), ("scaled", 0.10))
    ORACLE_SHARE = 0.01

    def __init__(self):
        self.Mat2, self.Weights = c2d.Mat2, c2d.Weights

    def warmup(self):
        self.queries = [(3.0, 0.5, -0.2, 1.0, 1.0, 0.2, 0.7)]
        self.op(0)

    def generate(self, seed, tiny):
        rng = np.random.default_rng([seed, 1])
        n = self.TINY if tiny else self.SIZE
        counts = dict(zip((k for k, _ in self.MIX), _split(n, self.MIX)))
        queries = []

        def add(e, mu, muc, gamma=None):
            for row, a, b in zip(e.tolist(), mu.tolist(), muc.tolist()):
                queries.append((*row, a, b, gamma))

        for kind in ("classical", "below", "pitchfork"):
            add(*_cases(rng, counts[kind], kind))
        half = counts["scaled"] // 2
        add(*_cases(rng, half, "classical", scale=_log_uniform_scale))
        add(*_cases(rng, counts["scaled"] - half, "nonclassical", scale=_log_uniform_scale))
        # simple shears outside the band: tr U / rho = sqrt(1 + gamma^2 / 4)
        m = counts["shear"]
        gammas = rng.choice([-1.0, 1.0], m) * rng.uniform(0.1, 4.0, m)
        for gamma, mu in zip(gammas.tolist(), rng.uniform(0.2, 2.5, m).tolist()):
            queries.append((1.0, gamma, 0.0, 1.0, mu, 0.0, gamma))
        scaled = set(range(sum(counts[k] for k in ("classical", "below", "pitchfork")),
                           len(queries) - m))
        order = rng.permutation(n)
        self.queries = [queries[i] for i in order]
        unscaled = [j for j, i in enumerate(order) if int(i) not in scaled]
        picks = max(1, int(self.ORACLE_SHARE * n))
        self.oracle_sample = set(rng.choice(unscaled, picks, replace=False).tolist())
        self.outputs = [None] * n
        self.runs = [0] * n
        self.verdicts: dict[int, bool] = {}

    def op(self, k):
        e11, e12, e21, e22, mu, muc, gamma = self.queries[k % len(self.queries)]
        f = self.Mat2(e11, e12, e21, e22)
        w = self.Weights(mu, muc)
        out = (
            c2d.optimal_set(f, w),
            c2d.reduced_energy(f, w),
            c2d.critical_set(f),
            c2d.shear_solution(gamma) if gamma is not None else None,
        )
        return 1, out

    def record(self, k, result):
        i = k % len(self.queries)
        self.outputs[i] = result
        self.runs[i] += 1
        return 0

    def _check(self, i: int) -> bool:
        e11, e12, e21, e22, mu, muc, gamma = self.queries[i]
        ms, red, cs, sol = self.outputs[i]
        f = c2d.Mat2(e11, e12, e21, e22)
        w = c2d.Weights(mu, muc)
        frob_sq = e11 * e11 + e12 * e12 + e21 * e21 + e22 * e22
        tol = ENERGY_RTOL * (mu + muc) * (2.0 + frob_sq)
        tol0 = ENERGY_RTOL * (2.0 + frob_sq)
        tr_u = float(np.linalg.svd(np.array([[e11, e12], [e21, e22]]), compute_uv=False).sum())
        pitchfork = mu > muc and tr_u >= 2.0 * mu / (mu - muc)
        branch = c2d.Branch.PITCHFORK if pitchfork else c2d.Branch.CLASSICAL
        ok = ms.branch is branch and red.branch is branch
        ok = ok and len(ms.angles) == (2 if pitchfork else 1)
        at_angles = c2d.shear_stretch_profile(f, w)(np.array(ms.angles))
        ok = ok and bool(np.all(np.abs(at_angles - ms.energy) <= tol))
        ok = ok and abs(red.value - ms.energy) <= tol
        limit = c2d.shear_stretch_profile(f, c2d.Weights(1.0, 0.0))
        w2, w1 = limit(np.array(cs.classical_pair))
        ok = ok and abs(cs.levels.w1 - w1) <= tol0 and abs(cs.levels.w2 - w2) <= tol0
        if abs(tr_u - 2.0) > 1e-9 * tr_u:
            ok = ok and (cs.nonclassical is not None) == (tr_u > 2.0)
        if cs.nonclassical is not None:
            w3 = limit(np.array(cs.nonclassical))
            ok = ok and cs.levels.w3 is not None
            ok = ok and bool(np.all(np.abs(w3 - cs.levels.w3) <= tol0))
        if gamma is not None:
            shear_f = c2d.simple_shear(gamma)
            at_shear = c2d.shear_stretch_profile(shear_f, c2d.Weights(1.0, 0.0))(
                np.array(sol.angles))
            stol = ENERGY_RTOL * (2.0 + shear_f.frobenius_sq())
            ok = ok and abs(sol.energy - 0.5 * gamma * gamma) <= stol
            ok = ok and bool(np.all(np.abs(at_shear - sol.energy) <= stol))
            ok = ok and min(abs(a) for a in sol.angles) <= 1e-12
        if i in self.oracle_sample:
            grid = c2d.grid_minimize(c2d.shear_stretch_profile(f, w), vectorized=True)
            ok = ok and c2d.angle_set_distance(ms.angles, grid.angles) <= CERTIFY_TOL
        return bool(ok)

    def final_failures(self):
        failed = 0
        for i, runs in enumerate(self.runs):
            if runs:
                if i not in self.verdicts:
                    try:
                        self.verdicts[i] = self._check(i)
                    except Exception:
                        self.verdicts[i] = False
                if not self.verdicts[i]:
                    failed += runs
        self.runs = [0] * len(self.runs)
        return failed

    def instrument(self, tracer):
        if tracer is None:
            self.Mat2, self.Weights = c2d.Mat2, c2d.Weights
        else:
            self.Mat2 = tracer.wrap("planar.mat2_build", c2d.Mat2)
            self.Weights = tracer.wrap("weights.build", c2d.Weights)

    def layer_metrics(self, table, counters, ops, untraced):
        out = {
            "planar.mat2_build_us": table["planar.mat2_build"][1] / 1e3
            / table["planar.mat2_build"][0],
            "weights.build_us": table["weights.build"][1] / 1e3 / table["weights.build"][0],
        }
        for name in ("planar.trace_invariants", "minimizers.optimal_set",
                     "energy.shear_stretch_energy"):
            out[f"{name}.calls_per_op"] = _calls(table, name, ops)
        for name in ("planar.trace_invariants", "planar.polar_angle",
                     "minimizers.optimal_set", "minimizers.critical_set",
                     "energy.shear_stretch_energy", "energy.reduced_energy",
                     "energy.critical_energy_levels"):
            out[f"{name}.self_s"] = _self_s(table, name, ops)
        return out

    def details(self):
        return {"inputs": len(self.queries), "mix": dict(self.MIX),
                "oracle_subsample": len(self.oracle_sample)}


class Certify(Workload):
    """Closed form against the brute-force oracle, one comparison per op."""

    SIZE, TINY = 2000, 40
    #: Shares are set so that the median call falls inside the two-minima
    #: 720-point mode and the 99th percentile inside the log-strain leg.
    LEGS = (("shear_stretch_720", 0.55), ("shear_stretch_20000", 0.15),
            ("cofactor_4096", 0.10), ("log_strain_2880", 0.05), ("skew_scan", 0.15))
    #: muc / mu range of the non-classical half; most of it lands on the
    #: pitchfork branch (two minima).
    MAX_RATIO = 0.3

    def warmup(self):
        f, w = c2d.Mat2(3.0, 0.0, 0.0, 1.0), c2d.Weights(1.0, 0.0)
        self.ops = [(self.shear_stretch_720, f, w)]
        self.op(0)

    def shear_stretch_720(self, f, w):
        return self._shear_stretch(f, w, 720)

    def shear_stretch_20000(self, f, w):
        return self._shear_stretch(f, w, 20000)

    @staticmethod
    def _shear_stretch(f, w, grid_n):
        closed = c2d.optimal_set(f, w).angles
        grid = c2d.grid_minimize(c2d.shear_stretch_profile(f, w), grid_n, vectorized=True)
        return c2d.angle_set_distance(closed, grid.angles)

    @staticmethod
    def cofactor_4096(f, w):
        closed = c2d.optimal_set(c2d.cofactor_transform(f), w).angles
        grid = c2d.grid_minimize(c2d.cofactor_shear_profile(f, w), 4096, vectorized=True)
        return c2d.angle_set_distance(closed, grid.angles)

    @staticmethod
    def log_strain_2880(f, w):
        grid = c2d.grid_minimize(c2d.log_strain_profile(f, w), 2880, vectorized=True)
        return c2d.angle_set_distance((c2d.polar_angle(f),), grid.angles)

    @staticmethod
    def skew_scan(f, w):
        alpha_p = c2d.polar_angle(f)
        closed = (alpha_p, c2d.normalize_angle(alpha_p + math.pi))
        roots = c2d.sign_change_scan(c2d.signed_defect_profile(f), vectorized=True)
        return c2d.angle_set_distance(closed, roots)

    def generate(self, seed, tiny):
        rng = np.random.default_rng([seed, 2])
        n = self.TINY if tiny else self.SIZE
        ops = []
        self.two_minima = 0
        for (leg, _), count in zip(self.LEGS, _split(n, self.LEGS)):
            half = count // 2
            classical = _cases(rng, half, "classical")
            nonclassical = _cases(rng, count - half, "nonclassical", self.MAX_RATIO)
            e = np.concatenate([classical[0], nonclassical[0]])
            mu = np.concatenate([classical[1], nonclassical[1]])
            muc = np.concatenate([classical[2], nonclassical[2]])
            if leg == "log_strain_2880":
                # the log-strain criterion's domain: condition number <= 10
                e = _gl_plus(rng, 4 * count + 16)
                sv = np.linalg.svd(e.reshape(-1, 2, 2), compute_uv=False)
                e = e[sv[:, 0] / sv[:, 1] <= 10.0][:count]
            if leg.startswith("shear_stretch"):
                nc = mu > muc
                rho = 2.0 * mu[nc] / (mu[nc] - muc[nc])
                self.two_minima += int((_stretch_trace(e[nc]) >= rho).sum())
            fn = getattr(self, leg)
            weights = [c2d.Weights(a, b) for a, b in zip(mu.tolist(), muc.tolist())]
            ops += [(fn, f, w) for f, w in zip(_matrices(e), weights)]
        self.ops = [ops[i] for i in rng.permutation(n)]

    def op(self, k):
        fn, f, w = self.ops[k % len(self.ops)]
        return 1, fn(f, w)

    def record(self, k, deviation):
        return 0 if deviation <= CERTIFY_TOL else 1

    def layer_metrics(self, table, counters, ops, untraced):
        points = counters[GRID_VECTOR + ".points"]
        grid_calls = table["bruteforce.grid_minimize"][0]
        return {
            "energy.profile_vector_s": _self_s(table, GRID_VECTOR, ops),
            "energy.profile_scalar_s": _self_s(table, GRID_SCALAR, ops),
            "bruteforce.grid_minimize.self_s": _self_s(table, "bruteforce.grid_minimize", ops),
            "bruteforce.grid_points": points / ops,
            "bruteforce.grid_eval_ns_per_point": table[GRID_VECTOR][1] / points,
            "bruteforce.refine_evals_per_call": table[GRID_SCALAR][0] / grid_calls,
            "bruteforce.refine_evals_per_minimum":
                table[GRID_SCALAR][0] / counters["bruteforce.minima"],
            "bruteforce.sign_change_scan.self_s":
                _self_s(table, "bruteforce.sign_change_scan", ops),
            "bruteforce.bisect_evals_per_call":
                table[SCAN_SCALAR][0] / table["bruteforce.sign_change_scan"][0],
        }

    def details(self):
        return {"operations": len(self.ops), "legs": dict(self.LEGS),
                "shear_stretch_pitchfork_cases": self.two_minima}


class Verify(Workload):
    """The `cosserat2d verify` path: one run_suite call per round."""

    SAMPLES, TINY = 1000, 5
    GRID_N = 2048

    def warmup(self):
        from cosserat2d import selfcheck

        self.selfcheck = selfcheck
        self.checks = len(selfcheck.run_suite(seed=0, samples=1, grid_n=self.GRID_N))

    def generate(self, seed, tiny):
        self.seed = seed
        self.samples = self.TINY if tiny else self.SAMPLES

    def op(self, k):
        results = self.selfcheck.run_suite(seed=self.seed, samples=self.samples,
                                           grid_n=self.GRID_N)
        return len(results), results

    def expected_ops(self, k):
        return self.checks

    def record(self, k, results):
        return sum(1 for r in results if not r.passed)

    def layer_metrics(self, table, counters, ops, untraced):
        suite = table["selfcheck.run_suite"][1]
        oracle = sum(table[name][1] for name in
                     ("bruteforce.grid_minimize", "bruteforce.sign_change_scan"))
        return {
            "selfcheck.run_suite.self_s": _self_s(table, "selfcheck.run_suite", ops),
            "selfcheck.oracle_share": oracle / suite,
        }

    def details(self):
        return {"samples": self.samples, "grid_n": self.GRID_N, "checks": self.checks}


class Tables(Workload):
    """The CLI table commands, run in-process with --out to a file."""

    LEGS = ("sweep_csv", "sweep_json", "sweep_workers", "bifurcation")
    #: The serial CSV sweep runs twice per round, so the median call lies
    #: inside one leg instead of between the CSV and JSON legs.
    ROUND = ("sweep_csv", "sweep_json", "sweep_csv", "sweep_workers", "bifurcation")
    round_size = len(ROUND)
    SIZES = {"full": (20000, 100000), "tiny": (200, 1000)}
    WINDOWS = 8

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.workers = str(min(2, len(os.sched_getaffinity(0))))

    def warmup(self):
        from cosserat2d import cli

        self.cli = cli
        self.instrument(None)
        self.workdir.mkdir(parents=True, exist_ok=True)
        warm = ["sweep-shear", "--gamma-start", "0", "--gamma-end", "2", "--gamma-step", "1",
                "--out", str(self.workdir / "warmup.csv")]
        if self.cli.main(warm) != 0:
            raise RuntimeError("warm-up sweep failed")

    @classmethod
    def argvs(cls, size: str, window: int) -> dict[str, list[str]]:
        sweep_rows, bif_rows = cls.SIZES[size]
        start = -4.0 + 0.125 * window
        sweep = ["sweep-shear", "--gamma-start", repr(start), "--gamma-end", repr(start + 8.0),
                 "--gamma-step", repr(8.0 / sweep_rows)]
        tru = 0.5 + 0.0625 * window
        return {
            "sweep_csv": sweep + ["--format", "csv"],
            "sweep_json": sweep + ["--format", "json"],
            "sweep_workers": sweep + ["--format", "csv", "--workers"],
            "bifurcation": ["bifurcation", "--tru-start", repr(tru), "--tru-end",
                            repr(tru + 10.0), "--tru-step", repr(10.0 / bif_rows),
                            "--mu", "1", "--muc", "0.25", "--format", "csv"],
        }

    def generate(self, seed, tiny):
        size = "tiny" if tiny else "full"
        window = seed % self.WINDOWS
        argvs = self.argvs(size, window)
        argvs["sweep_workers"].append(self.workers)
        expected = json.loads(HASHES.read_text())[size][window]
        # --workers must not change a byte of the serial output
        expected["sweep_workers"] = expected["sweep_csv"]
        self.calls = []
        for leg in self.ROUND:
            path = self.workdir / f"{leg}.out"
            self.calls.append((leg, argvs[leg] + ["--out", str(path)], path, expected[leg]))

    def op(self, k):
        leg, argv, path, expected = self.calls[k % self.round_size]
        return expected["rows"], self.main[leg](argv)

    def expected_ops(self, k):
        return self.calls[k % self.round_size][3]["rows"]

    def record(self, k, code):
        leg, argv, path, expected = self.calls[k % self.round_size]
        try:
            data = path.read_bytes()
            path.unlink()
        except FileNotFoundError:
            data = b""
        ok = code == 0 and hashlib.sha256(data).hexdigest() == expected["sha256"]
        return 0 if ok else expected["rows"]

    def instrument(self, tracer):
        if tracer is None:
            self.main = {leg: self.cli.main for leg in self.LEGS}
        else:
            main = tracer.originals["cli.main"]
            self.main = {leg: tracer.wrap(f"cli.{leg}", main) for leg in self.LEGS}

    def layer_metrics(self, table, counters, ops, untraced):
        out = {}
        walls = {leg: [] for leg in self.LEGS}
        for j, leg in enumerate(self.ROUND):
            walls[leg] += untraced["call_ns"][j::self.round_size]
        for leg, legs_ns in walls.items():
            out[f"cli.{leg}.wall_s"] = sum(legs_ns) / len(legs_ns) / 1e9
            calls, _, self_ns = table[f"cli.{leg}"]
            out[f"cli.{leg}.self_s"] = self_ns / calls / 1e9
        out["cli.workers_slowdown"] = out["cli.sweep_workers.wall_s"] / out["cli.sweep_csv.wall_s"]
        out["cli.rows_out"] = sum(c[3]["rows"] for c in self.calls)
        out["cli.bytes_out"] = sum(c[3]["bytes"] for c in self.calls)
        out["shear.shear_solution.self_s"] = _self_s(table, "shear.shear_solution", ops)
        return out

    def details(self):
        return {"legs": {leg: argv[:-2] for leg, argv, _, _ in self.calls},
                "rows_per_round": sum(c[3]["rows"] for c in self.calls)}


def record_hashes(workdir: Path) -> dict:
    """SHA-256, row count and size of every tables leg output, per window."""
    from cosserat2d import cli

    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "record.out"
    table = {}
    for size in Tables.SIZES:
        table[size] = []
        for window in range(Tables.WINDOWS):
            entry = {}
            for leg, argv in Tables.argvs(size, window).items():
                if leg == "sweep_workers":
                    continue
                if cli.main(argv + ["--out", str(path)]) != 0:
                    raise RuntimeError(f"{leg} failed")
                data = path.read_bytes()
                rows = (len(json.loads(data)) if leg == "sweep_json"
                        else data.count(b"\n") - 1)
                entry[leg] = {"sha256": hashlib.sha256(data).hexdigest(),
                              "rows": rows, "bytes": len(data)}
            table[size].append(entry)
    path.unlink()
    return table
