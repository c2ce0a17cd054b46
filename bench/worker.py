"""One benchmark workload in a fresh process.

Usage: worker.py WORKLOAD --mode {probe,run,trace} --seed N --seconds S
       [--traced-seconds T] [--tiny] [--dump PATH]
       worker.py record-hashes

probe: import the package, run one warm-up operation, report when ready.
run:   as probe, then generate the inputs and run one untraced section.
trace: as run, then install the tracer and run one traced section.
Prints one JSON object on its last stdout line. run.py drives this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def _import_package():
    src = ROOT / "src"
    if not (src / "cosserat2d" / "__init__.py").is_file():
        sys.exit(f"error: package source not found under {src}")
    sys.path.insert(0, str(src))
    import cosserat2d  # noqa: F401


def _make(name: str):
    import workloads

    if name == "tables":
        return workloads.Tables(OUT / f"tables-{os.getpid()}")
    return {"pointwise": workloads.Pointwise, "certify": workloads.Certify,
            "verify": workloads.Verify}[name]()


def run_section(wl, seconds: float) -> dict:
    """Closed loop: run operations until `seconds` have passed and a round ends.

    Each call is timed on its own; checks run between calls, outside the
    timed parts. A call that raises counts all its operations as failed.
    """
    clock = time.perf_counter_ns
    call_ns = array("q")
    ops = failed = 0
    errors = []
    deadline = clock() + int(seconds * 1e9)
    k = 0
    while True:
        start = clock()
        try:
            n, result = wl.op(k)
        except Exception:  # a failed operation is counted, not fatal
            end = clock()
            n = wl.expected_ops(k)
            failed += n
            if len(errors) < 3:
                errors.append(traceback.format_exc())
        else:
            end = clock()
            failed += wl.record(k, result)
        call_ns.append(end - start)
        ops += n
        k += 1
        if k % wl.round_size == 0 and clock() >= deadline:
            break
    failed += wl.final_failures()
    return {"ops": ops, "failed": failed, "call_ns": call_ns, "errors": errors}


#: Calls per window of the median. The host's speed alternates within a
#: run; the median of all calls then jumps with the share of fast and slow
#: seconds, while the mean over windows of each window's median moves like
#: the throughput. The 99th percentile is taken over all calls.
WINDOW = 2000


def summarize(section: dict) -> dict:
    import numpy as np

    calls = np.frombuffer(section["call_ns"], dtype=np.int64)
    busy_s = float(calls.sum()) / 1e9
    windows = max(1, calls.size // WINDOW)
    if windows == 1:
        grouped = calls[None, :]
    else:
        grouped = calls[: windows * WINDOW].reshape(windows, WINDOW)
    p50 = float(np.percentile(grouped, 50, axis=1).mean()) / 1e3
    p99 = float(np.percentile(calls, 99)) / 1e3
    return {
        "ops": section["ops"],
        "failed": section["failed"],
        "busy_s": busy_s,
        "ops_per_s": section["ops"] / busy_s,
        "calls": int(calls.size),
        "latency_windows": windows,
        "latency_p50_us": float(p50),
        "latency_p99_us": float(p99),
        "errors": section["errors"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--mode", choices=("probe", "run", "trace"), default="run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--traced-seconds", type=float, default=1.0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--dump", default=None)
    args = parser.parse_args(argv)

    _import_package()
    if args.workload == "record-hashes":
        import workloads

        table = workloads.record_hashes(OUT / "record")
        workloads.HASHES.write_text(json.dumps(table, indent=1) + "\n")
        return 0

    import numpy

    wl = _make(args.workload)
    try:
        wl.warmup()
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
        report = {"ready": ready, "numpy": numpy.__version__}
        if args.mode == "probe":
            print(json.dumps(report))
            return 0
        wl.generate(args.seed, args.tiny)
        untraced = run_section(wl, args.seconds)
        report["untraced"] = summarize(untraced)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["details"] = wl.details()
        if args.mode == "trace":
            report.update(_traced(wl, args, untraced, report["untraced"]["ops_per_s"]))
    finally:
        workdir = getattr(wl, "workdir", None)
        if workdir is not None and workdir.exists():
            for path in workdir.iterdir():
                path.unlink()
            workdir.rmdir()
    print(json.dumps(report))
    return 0


def _traced(wl, args, untraced, untraced_rate) -> dict:
    from tracer import Tracer

    tracer = Tracer(dump_limit=50_000 if args.dump else 0)
    tracer.install()
    wl.instrument(tracer)
    try:
        traced = run_section(wl, args.traced_seconds)
    finally:
        wl.instrument(None)
        tracer.uninstall()
    table = tracer.table()
    summary = summarize(traced)
    metrics = wl.layer_metrics(table, tracer.counters, traced["ops"], untraced)
    if args.dump:
        tracer.dump(args.dump)
    ops = traced["ops"]
    return {
        "traced": summary,
        "layer_metrics": metrics,
        "overhead_frac": untraced_rate / summary["ops_per_s"] - 1.0,
        "self_time": {
            name: {"calls_per_op": calls / ops, "total_s_per_op": total / 1e9 / ops,
                   "self_s_per_op": self_ns / 1e9 / ops}
            for name, (calls, total, self_ns) in sorted(table.items())
        },
    }


if __name__ == "__main__":
    sys.exit(main())
