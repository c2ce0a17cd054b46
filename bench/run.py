"""Layered benchmark of cosserat2d.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}
    python3 bench/run.py --smoke

Runs one workload (pointwise, certify, verify or tables) in a fresh worker
process driven by a single closed-loop caller, and prints the metrics named
in BENCHMARK.json as the last stdout line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--trace 0 reports the end-to-end metrics. Set-up time is the median over
several fresh processes of launch-to-first-operation-ready.
--trace 1 reports the per-layer metrics: the named workload runs an
untraced and a traced section (their ratio is the tracing overhead), and
every other workload runs a short traced section, because each per-layer
metric is measured on the workload that exercises its layer.
--smoke runs every workload at tiny sizes in both modes and checks the
output against BENCHMARK.json.

The line before the result is a JSON report with the environment, sample
counts and the traced self-time table; it is also written to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("pointwise", "certify", "verify", "tables")
#: Extra fresh processes that only measure set-up time.
PROBES = 7
#: Wall-clock budget for one benchmark run, below the 180 s limit.
RUN_BUDGET_S = 170.0
#: Shares of --seconds in a traced run: the named workload's untraced and
#: traced sections, and each other workload's traced section.
OWN_SHARE, OTHER_SHARE = 0.25, 0.1
#: One caller thread per worker; keep numpy's BLAS pool from adding more.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = {**os.environ, **WORKER_ENV}

    def launch(self, workload: str, mode: str, seconds: float = 0.0,
               traced_seconds: float = 0.0, dump: Path | None = None) -> dict:
        cmd = [sys.executable, str(BENCH / "worker.py"), workload, "--mode", mode,
               "--seed", str(self.seed), "--seconds", repr(seconds),
               "--traced-seconds", repr(traced_seconds)]
        if self.tiny:
            cmd.append("--tiny")
        if dump is not None:
            cmd += ["--dump", str(dump)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run budget exhausted")
        launched = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload} {mode} worker timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"{workload} {mode} worker exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        result["setup_s"] = result["ready"] - launched
        return result


def run_untraced(runner: Runner, workload: str, seconds: float) -> tuple[dict, dict]:
    probes = 1 if runner.tiny else PROBES
    setups = [runner.launch(workload, "probe")["setup_s"] for _ in range(probes)]
    main = runner.launch(workload, "run", seconds)
    setups.append(main["setup_s"])
    section = main["untraced"]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": section["ops_per_s"],
        "latency_p50_us": section["latency_p50_us"],
        "latency_p99_us": section["latency_p99_us"],
        "peak_rss_mb": main["peak_rss_mb"],
    }
    report = {
        "setup_samples_s": setups,
        "latency_samples": section["calls"],
        "latency_windows": section["latency_windows"],
        "section": section,
        "details": main["details"],
        "numpy": main["numpy"],
    }
    return metrics, report


def run_traced(runner: Runner, workload: str, seconds: float) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"spans-{workload}-seed{runner.seed}.jsonl"
    own = runner.launch(workload, "trace", OWN_SHARE * seconds, OWN_SHARE * seconds, dump)
    children = {workload: own}
    for other in WORKLOADS:
        if other != workload:
            children[other] = runner.launch(other, "trace", 0.0, OTHER_SHARE * seconds)
    metrics = {}
    for child in children.values():
        metrics.update(child["layer_metrics"])
    metrics["trace.overhead_frac"] = own["overhead_frac"]
    metrics.update(import_times(runner.env))
    report = {
        "span_dump": str(dump.relative_to(ROOT)),
        "self_time": own["self_time"],
        "sections": {name: {"untraced": c["untraced"], "traced": c["traced"]}
                     for name, c in children.items()},
        "details": own["details"],
        "numpy": own["numpy"],
    }
    return metrics, report


def import_times(env: dict, repeats: int = 3) -> dict:
    """Median cumulative import times from `python -X importtime`."""
    samples = {"cli.import_s": [], "numpy.import_s": []}
    env = {**env, "PYTHONPATH": str(ROOT / "src")}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cosserat2d.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"importing cosserat2d.cli failed:\n{proc.stderr[-2000:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        samples["numpy.import_s"].append(cumulative["numpy"])
        samples["cli.import_s"].append(cumulative["cosserat2d"] + cumulative["cosserat2d.cli"])
    return {name: statistics.median(values) for name, values in samples.items()}


def environment(seed: int, trace: int, numpy_version: str) -> dict:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cosserat2d").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "trace": trace,
    }


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def with_units(metrics: dict, declared: list[dict]) -> dict:
    out = {}
    for entry in declared:
        name = entry["name"]
        if name not in metrics:
            raise BenchError(f"metric {name} was not measured")
        value = float(metrics[name])
        if not math.isfinite(value):
            raise BenchError(f"metric {name} is {value}")
        out[name] = {"value": value, "unit": entry["unit"]}
    return out


def benchmark(args) -> int:
    spec = load_spec()
    runner = Runner(args.seed, args.tiny)
    if args.trace:
        metrics, report = run_traced(runner, args.workload, args.seconds)
        sections = [s for c in report["sections"].values() for s in c.values()]
        declared = spec["per_layer"]
    else:
        metrics, report = run_untraced(runner, args.workload, args.seconds)
        sections = [report["section"]]
        declared = spec["end_to_end"]
    attempted = sum(s["ops"] for s in sections)
    failed = sum(s["failed"] for s in sections)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": with_units(metrics, declared),
    }
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "environment": environment(args.seed, args.trace, report.pop("numpy")),
        "failed_frac": failed / attempted,
        **report,
    }
    OUT.mkdir(exist_ok=True)
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Every workload at tiny sizes, both modes, checked against BENCHMARK.json."""
    spec = load_spec()
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            declared = spec["per_layer" if trace else "end_to_end"]
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}: {proc.stderr[-1000:]}")
            else:
                result = json.loads(proc.stdout.splitlines()[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(result)}")
                if not (result.get("correct") is True and result.get("failed") == 0
                        and result.get("attempted", 0) >= 1):
                    problems.append("correctness: " + json.dumps(
                        {k: result.get(k) for k in ("correct", "attempted", "failed")}))
                metrics = result.get("metrics", {})
                expected = {m["name"]: m["unit"] for m in declared}
                if {k: v.get("unit") for k, v in metrics.items()} != expected:
                    problems.append("metric names or units differ from BENCHMARK.json")
                zero = [k for k, v in metrics.items() if not v.get("value")]
                if zero:
                    problems.append(f"zero metrics: {zero}")
            status = "FAIL" if problems else "PASS"
            print(f"{status}  {workload:<10} trace={trace}  " + "; ".join(problems))
            bad += bool(problems)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny input sizes (smoke check)")
    parser.add_argument("--smoke", action="store_true", help="run the smoke check")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cosserat2d" / "__init__.py").is_file():
        print(f"error: no cosserat2d source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return benchmark(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
