"""One-operator mutation audit of the closed forms and the oracle.

    python3 tests/mutants.py OUT.json [--tier1] [--only ID ...]

Each mutant changes one operator in one of `MODULES`: `+` and `-` swap,
`*` and `/` swap, `<` and `<=` swap, `>` and `>=` swap (in-place forms
included), or a unary minus is dropped. The list is deterministic: modules
in `MODULES` order, operators in source order. A mutant is identified as
`module:line:col:old:new`, with `new` = `drop` for a dropped minus.

Every mutant runs on its own temporary copy of the package, never on the
source tree, in fresh processes, at most two at a time. `verify` always
runs: each property of `selfcheck.PROPERTIES` on its `run_suite` stream at
(seed 0, 300 samples, grid 1024), so a kill is recorded per property. With
`--tier1` the Tier-1 suite runs too, stopping at its first failure. The
unmutated copy runs first and must pass both; a mutant's run that takes ten
times as long as the unmutated one, and at least 30 s, is stopped and
counts the mutant as killed, as a hang.

The JSON written to OUT holds the kill matrix (per mutant, per property),
the survivors, and for each property the mutants that only it kills.
DeMillo, Lipton & Sayward, *Hints on test data selection* (1978); Offutt et
al., *An experimental determination of sufficient mutant operators* (1996).
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cosserat2d"
MODULES = ("planar", "weights", "energy", "minimizers", "shear", "bruteforce")
# operator node type: (its token, the token it becomes)
SWAPS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
         ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">")}
SEED, SAMPLES, GRID_N = 0, 300, 1024
JOBS = 2
BASELINE_TIMEOUT = 1800.0  # s, for the unmutated runs

# Each property of the suite on its run_suite stream: a JSON line [name,
# "hang"] before it runs, then [name, "pass" | "fail" | exception name], so
# a run cut by its timeout names the property it hung in.
VERIFY = """
import json
from cosserat2d import selfcheck
for prop in selfcheck.PROPERTIES.values():
    print(json.dumps([prop.name, "hang"]), flush=True)
    try:
        r = prop.worst(selfcheck._stream({seed}, prop.name), prop.cases({samples}), {grid_n})
        outcome = "pass" if r <= prop.tolerance else "fail"
    except Exception as exc:
        outcome = type(exc).__name__
    print(json.dumps([prop.name, outcome]), flush=True)
"""


class Mutant(NamedTuple):
    module: str
    line: int  # 1-based
    col: int  # 0-based, in characters
    old: str
    new: str  # "" drops the operator

    @property
    def id(self) -> str:
        return f"{self.module}:{self.line}:{self.col}:{self.old}:{self.new or 'drop'}"

    def apply(self, source: str) -> str:
        lines = source.splitlines(keepends=True)
        text = lines[self.line - 1]
        assert text[self.col:self.col + len(self.old)] == self.old, self.id
        lines[self.line - 1] = text[:self.col] + self.new + text[self.col + len(self.old):]
        return "".join(lines)


def _operator_spans(tree: ast.AST):
    # (op, start, end, in_place) for each operator of the set: start and end,
    # as (line, byte col), bound the span its token lies in; f-strings are skipped
    skip = {id(n) for s in ast.walk(tree) if isinstance(s, ast.JoinedStr) for n in ast.walk(s)}
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            yield node.op, _end(node.left), _start(node.right), False
        elif isinstance(node, ast.AugAssign) and type(node.op) in SWAPS:
            yield node.op, _end(node.target), _start(node.value), True
        elif isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                if type(op) in SWAPS:
                    yield op, _end(left), _start(right), False
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            yield node.op, _start(node), _start(node.operand), False


def _start(node):
    return node.lineno, node.col_offset


def _end(node):
    return node.end_lineno, node.end_col_offset


def mutants_of(module: str, source: str) -> list[Mutant]:
    """The module's mutants, in source order."""
    lines = source.splitlines(keepends=True)

    def chars(pos):  # (line, byte col) -> (line, char col)
        line, col = pos
        return line, len(lines[line - 1].encode()[:col].decode())

    ops = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
           if tok.type == tokenize.OP]
    found = []
    for op, start, end, in_place in _operator_spans(ast.parse(source)):
        lo, hi = chars(start), chars(end)
        old, new = ("-", "") if isinstance(op, ast.USub) else SWAPS[type(op)]
        if in_place:
            old, new = old + "=", new + "="
        token = next(t for t in ops if lo <= t.start and t.end <= hi and t.string == old)
        found.append(Mutant(module, *token.start, old, new))
    return sorted(found)


def all_mutants() -> list[Mutant]:
    return [m for name in MODULES
            for m in mutants_of(name, (PACKAGE / f"{name}.py").read_text(encoding="utf-8"))]


def _run(cmd, cwd, timeout):
    # (returncode, stdout, seconds), returncode None after a timeout; the
    # whole process group goes, so no grandchild outlives its run
    env = {**os.environ, "PYTHONPATH": str(Path(cwd) / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONWARNINGS", None)
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out = proc.communicate(timeout=timeout)[0]
        returncode = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, returncode = proc.communicate()[0], None
    return returncode, out, round(time.monotonic() - started, 2)


def run_verify(copy: Path, timeout: float) -> dict:
    """verify on the copy: the outcome per property, and which properties kill."""
    code = VERIFY.format(seed=SEED, samples=SAMPLES, grid_n=GRID_N)
    returncode, out, seconds = _run([sys.executable, "-c", code], copy, timeout)
    outcomes = dict(json.loads(line) for line in out.splitlines() if line.startswith('["'))
    killers = [name for name, outcome in outcomes.items() if outcome != "pass"]
    if returncode is None:
        how = "hang"
    elif returncode != 0 and not outcomes:
        how = "import"  # the package fails before any property runs
    elif returncode != 0:
        how = "crash"
    else:
        how = "killed" if killers else "survived"
    return {"how": how, "killed": how != "survived", "by": killers, "outcomes": outcomes,
            "seconds": seconds}


def run_tier1(copy: Path, timeout: float) -> dict:
    """Tier-1 on the copy up to its first failure; this audit's own test is left out,
    as it would audit the copy again."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--ignore=tests/test_mutants.py", "tests"]
    returncode, out, seconds = _run(cmd, copy, timeout)
    first = next((line.split(" ")[1] for line in out.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))), None)
    how = "hang" if returncode is None else "survived" if returncode == 0 else "killed"
    return {"how": how, "killed": how != "survived", "first_failure": first, "seconds": seconds}


def _copy_tree(dest: Path, tier1: bool) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis", "out")
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    if tier1:
        shutil.copytree(ROOT / "tests", dest / "tests", ignore=ignore)
        shutil.copytree(ROOT / "bench", dest / "bench", ignore=ignore)
        for name in ("BENCHMARK.json", "README.md", "pyproject.toml"):
            shutil.copy2(ROOT / name, dest / name)


def run_mutant(mutant: Mutant | None, work: Path, timeout: float,
               tier1_timeout: float | None) -> dict:
    """Run one mutant (None: the unmutated package) on a fresh copy under `work`."""
    copy = Path(tempfile.mkdtemp(dir=work))
    try:
        _copy_tree(copy, tier1_timeout is not None)
        record = {"id": "unmutated"}
        if mutant is not None:
            path = copy / "src" / "cosserat2d" / f"{mutant.module}.py"
            source = path.read_text(encoding="utf-8")
            path.write_text(mutant.apply(source), encoding="utf-8")
            record = {"id": mutant.id, **mutant._asdict(),
                      "source": source.splitlines()[mutant.line - 1].strip()}
        record["verify"] = run_verify(copy, timeout)
        if tier1_timeout is not None:
            record["tier1"] = run_tier1(copy, tier1_timeout)
        return record
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def summarize(records: list[dict], properties: list[str]) -> dict:
    killed_by = {r["id"]: set(r["verify"]["by"]) for r in records}
    sole = {name: [i for i, by in killed_by.items() if by == {name}] for name in properties}
    tier1 = [r for r in records if "tier1" in r]
    return {
        "mutants": len(records),
        "verify_killed": sum(r["verify"]["killed"] for r in records),
        "verify_hangs": [r["id"] for r in records if r["verify"]["how"] == "hang"],
        "verify_survivors": [r["id"] for r in records if not r["verify"]["killed"]],
        "tier1_run": len(tier1),
        "tier1_killed": sum(r["tier1"]["killed"] for r in tier1),
        "tier1_hangs": [r["id"] for r in tier1 if r["tier1"]["how"] == "hang"],
        "survivors": [r["id"] for r in records
                      if not r["verify"]["killed"] and not r.get("tier1", {}).get("killed")],
        "sole_killer_of": {name: ids for name, ids in sole.items() if ids},
        "sole_killer_of_none": [name for name, ids in sole.items() if not ids],
    }


def _timeout(baseline_run: dict) -> float:
    return max(30.0, 10.0 * baseline_run["seconds"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="JSON file the kill matrix is written to")
    parser.add_argument("--tier1", action="store_true", help="also run Tier-1 on each mutant")
    parser.add_argument("--only", nargs="+", metavar="ID", help="run only these mutants")
    args = parser.parse_args(argv)

    mutants = all_mutants()
    if args.only:
        unknown = set(args.only) - {m.id for m in mutants}
        if unknown:
            parser.error(f"unknown mutant ids: {sorted(unknown)}")
        mutants = [m for m in mutants if m.id in args.only]
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="cosserat2d-mutants-") as work:
        baseline = run_mutant(None, Path(work), BASELINE_TIMEOUT,
                              BASELINE_TIMEOUT if args.tier1 else None)
        if baseline["verify"]["killed"] or baseline.get("tier1", {}).get("killed"):
            print(f"error: the unmutated package fails: {json.dumps(baseline)}", file=sys.stderr)
            return 1
        timeout = _timeout(baseline["verify"])
        tier1_timeout = _timeout(baseline["tier1"]) if args.tier1 else None

        def run(mutant):
            record = run_mutant(mutant, Path(work), timeout, tier1_timeout)
            print(record["id"], "verify:", record["verify"]["how"],
                  *("tier1:", record["tier1"]["how"]) if args.tier1 else (),
                  file=sys.stderr, flush=True)
            return record

        with ThreadPoolExecutor(JOBS) as pool:
            records = list(pool.map(run, mutants))
    summary = summarize(records, list(baseline["verify"]["outcomes"]))
    summary["seconds"] = round(time.monotonic() - started, 1)
    settings = {"seed": SEED, "samples": SAMPLES, "grid_n": GRID_N, "jobs": JOBS,
                "timeout": timeout, "tier1_timeout": tier1_timeout}
    args.out.write_text(json.dumps({"settings": settings, "summary": summary,
                                    "mutants": records}, indent=1) + "\n", encoding="utf-8")
    print(f"{summary['verify_killed']}/{len(records)} killed by verify"
          + (f", {summary['tier1_killed']}/{summary['tier1_run']} by Tier-1" if args.tier1 else "")
          + f", {len(summary['survivors'])} survive; {summary['seconds']} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
