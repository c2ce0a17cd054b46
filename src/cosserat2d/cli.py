"""Command-line front end.

Subcommands: minimize (single-instance query with optional brute-force
certification), critical and energy-levels (single-matrix reports),
sweep-shear and bifurcation (figure-style data tables), and verify (the
seeded property suite). Exit codes: 0 success, 1 verification failure,
2 invalid input, 3 certification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys

from . import __version__, bruteforce, energy, minimizers, selfcheck, shear
from .errors import PlanarCosseratError
from .planar import Mat2, polar_angle, rotation, trace_invariants
from .weights import Regime, Weights, reduction_data

CERTIFY_TOL = 1e-6

#: Most rows a sweep-shear or bifurcation table may have.
MAX_ROWS = 10**7

#: Largest --grid-n accepted, 50 times the largest grid any caller uses.
MAX_GRID_N = 10**6

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_CERTIFY_FAILED = 3


def _matrix_arg(parser):
    parser.add_argument(
        "--f",
        nargs=4,
        type=float,
        required=True,
        metavar=("E11", "E12", "E21", "E22"),
        help="deformation gradient entries, row major",
    )


def _weight_args(parser):
    parser.add_argument("--mu", type=float, default=1.0, help="shear modulus (> 0)")
    parser.add_argument("--muc", type=float, default=0.0, help="couple modulus (>= 0)")


def _output_args(parser, default_format):
    parser.add_argument(
        "--format", choices=("json", "csv"), default=default_format, help="output format"
    )
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument(
        "--degrees", action="store_true", help="emit angle columns in degrees"
    )


def _workers_arg(parser):
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility; rows are computed serially",
    )


def _bounded_int(what, minimum, maximum=math.inf):
    def parse(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{what} must be at least {minimum}")
        if value > maximum:
            raise argparse.ArgumentTypeError(f"{what} must be at most {maximum}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"
    return parse


def _grid_arg(parser, default=20000):
    parser.add_argument(
        "--grid-n", type=_bounded_int("grid size", bruteforce.MIN_GRID_N, MAX_GRID_N),
        default=default, help=f"oracle grid size ({bruteforce.MIN_GRID_N} .. {MAX_GRID_N})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosserat2d",
        description=(
            "Energy-minimizing planar Cosserat microrotations in closed form, "
            "with brute-force certification."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("minimize", help="optimal rotation set for one deformation gradient")
    _matrix_arg(p)
    _weight_args(p)
    _output_args(p, "json")
    _grid_arg(p)
    p.add_argument(
        "--certify",
        action="store_true",
        help="cross-check the closed form against the brute-force grid",
    )

    p = sub.add_parser("critical", help="all critical rotations and their energy levels")
    _matrix_arg(p)
    _output_args(p, "json")

    p = sub.add_parser("energy-levels", help="critical energy levels for one gradient")
    _matrix_arg(p)
    _output_args(p, "json")

    p = sub.add_parser("sweep-shear", help="optimal angles and levels along a shear sweep")
    p.add_argument("--gamma-start", type=float, required=True)
    p.add_argument("--gamma-end", type=float, required=True)
    p.add_argument("--gamma-step", type=float, required=True)
    _workers_arg(p)
    _output_args(p, "csv")

    p = sub.add_parser("bifurcation", help="relative rotation branches over a stretch-trace range")
    p.add_argument("--tru-start", type=float, required=True)
    p.add_argument("--tru-end", type=float, required=True)
    p.add_argument("--tru-step", type=float, required=True)
    _weight_args(p)
    _workers_arg(p)
    _output_args(p, "csv")

    p = sub.add_parser("verify", help="run the seeded property suite")
    p.add_argument(
        "--seed", type=_bounded_int("seed", 0), default=0,
        help="suite seed, >= 0 (COSSERAT2D_SEED overrides)",
    )
    p.add_argument(
        "--samples", type=_bounded_int("samples", 1), default=300,
        help="random samples per property (>= 1)",
    )
    _grid_arg(p, default=2048)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)

    return parser


# ---------------------------------------------------------------------------
# Emission helpers
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _output(out: str | None):
    if out is None:
        yield sys.stdout
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            yield handle
    except OSError as exc:
        raise PlanarCosseratError(f"cannot write {out!r}: {exc.strerror or exc}") from exc


def _emit(text: str, out: str | None) -> None:
    with _output(out) as handle:
        handle.write(text)


def _strict(value):
    # Strict JSON has no NaN or Infinity token: a non-finite float becomes null.
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _format_json(payload) -> str:
    return json.dumps(_strict(payload), indent=2) + "\n"


def _degrees(angles: tuple) -> tuple:
    return tuple([None if a is None else math.degrees(a) for a in angles])


class _Table:
    """Column spec of a table, shared by its CSV and JSON forms.

    A row is a tuple: the lead columns, the angle columns in radians, then
    the trailing columns. CSV names an angle column NAME, or NAME_deg with
    the value in degrees under --degrees, and folds -0.0 into 0.0. JSON
    writes all NAME_rad, then all NAME_deg columns in the angles' place,
    keeps -0.0, writes a non-finite float as null and ignores --degrees.
    Rows are written as they come, with the bytes csv.writer and
    json.dumps(rows, indent=2) write for them.
    """

    def __init__(self, lead: tuple, angles: tuple = (), trail: tuple = ()):
        self.lo, self.hi = len(lead), len(lead) + len(angles)
        self.csv_header = {
            False: ",".join(lead + angles + trail) + "\n",
            True: ",".join(lead + tuple(a + "_deg" for a in angles) + trail) + "\n",
        }
        self.csv_row = ",".join(["%s"] * len(lead + angles + trail)) + "\n"
        keys = (lead + tuple(a + "_rad" for a in angles)
                + tuple(a + "_deg" for a in angles) + trail)
        self.json_row = "  {\n" + ",\n".join(f"    {json.dumps(k)}: %s" for k in keys) + "\n  }"

    def write(self, handle, rows, fmt: str, degrees: bool = False) -> None:
        if fmt == "json":
            self._write_json(handle, rows)
        else:
            self._write_csv(handle, rows, degrees)

    def _write_csv(self, handle, rows, degrees: bool) -> None:
        lo, hi = self.lo, self.hi
        template = self.csv_row
        handle.write(self.csv_header[degrees])
        for row in rows:
            if degrees:
                row = row[:lo] + _degrees(row[lo:hi]) + row[hi:]
            try:
                line = template % tuple([v + 0.0 for v in row])  # + 0.0 folds -0.0
            except TypeError:  # None or text cells
                cells = ["" if v is None else repr(v + 0.0) if isinstance(v, float) else v
                         for v in row]
                csv.writer(handle, lineterminator="\n").writerow(cells)
            else:
                handle.write(line)

    def _write_json(self, handle, rows) -> None:
        lo, hi = self.lo, self.hi
        template = self.json_row
        sep = "[\n"
        for row in rows:
            values = row[:hi] + _degrees(row[lo:hi]) + row[hi:]
            try:
                plain = math.isfinite(sum(values))
            except TypeError:  # None cells
                plain = False
            if not plain:  # None and non-finite cells are written as null
                values = tuple(map(json.dumps, _strict(values)))
            handle.write(sep + template % values)
            sep = ",\n"
        handle.write("[]\n" if sep == "[\n" else "\n]\n")


def _stream_table(args, table: _Table, row, sweep) -> int:
    """Write row(v) for each value v of a sweep, after computing both end rows.

    The magnitude of a sweep value peaks at an end, so a row that leaves
    the floating-point range fails here, before any output is written.
    """
    first, last, values = sweep
    for value in (first, last):
        try:
            row(value)
        except ArithmeticError as exc:
            raise PlanarCosseratError(
                f"row at {value!r} leaves the floating-point range ({exc})"
            ) from exc
    with _output(args.out) as handle:
        table.write(handle, map(row, values), args.format, args.degrees)
    return EXIT_OK


def _report(args, report: dict, table: _Table, row: tuple) -> None:
    """Write a single-matrix report as JSON, or its one table row as CSV."""
    if args.format == "json":
        _emit(_format_json(report), args.out)
        return
    with _output(args.out) as handle:
        table.write(handle, [row], "csv", args.degrees)


def _matrix_json(m: Mat2) -> list[list[float]]:
    return [[m.e11, m.e12], [m.e21, m.e22]]


def _sweep_values(start: float, end: float, step: float, positive=False):
    """(first, last, values) of the sweep start + i * step, i = 0 .. count-1.

    values is a lazy iterator, so a sweep holds no list of its rows.
    """
    if not (start < end and step > 0.0):
        raise PlanarCosseratError(
            f"invalid range: need start < end and step > 0, got [{start}, {end}] step {step}"
        )
    if positive and start <= 0.0:
        raise PlanarCosseratError(f"range start must be positive, got {start}")
    span = (end - start) / step + 1e-9
    if not math.isfinite(span):
        raise PlanarCosseratError(
            f"invalid range: [{start}, {end}] step {step} has no finite row count"
        )
    count = int(math.floor(span)) + 1
    if count > MAX_ROWS:
        raise PlanarCosseratError(
            f"invalid range: [{start}, {end}] step {step} has {count} rows, "
            f"more than the cap of {MAX_ROWS}"
        )

    def value(i):
        return start + i * step

    return value(0), value(count - 1), map(value, range(count))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

_MINIMIZE_CSV = _Table(("branch",), ("alpha_p", "alpha_plus", "alpha_minus", "beta"),
                       ("energy", "rho", "lambda"))
_CRITICAL_CSV = _Table((), ("alpha_p", "alpha_p_opposite", "alpha_nc_plus", "alpha_nc_minus"),
                       ("w1", "w2", "w3"))
_ENERGY_LEVELS_CSV = _Table(("tr_u", "det_f", "w1", "w2", "w3"))
_SWEEP_SHEAR = _Table(("gamma",), ("alpha_p", "alpha_plus", "alpha_minus"), ("w1", "w2", "w3"))
_BIFURCATION = _Table(("tr_u",), ("beta_plus", "beta_minus"))


def _cmd_minimize(args) -> int:
    f = Mat2(*args.f)
    w = Weights(args.mu, args.muc)
    ms = minimizers.optimal_set(f, w)
    angles = list(ms.angles)
    alpha_p = polar_angle(f)
    report = {
        "command": "minimize",
        "f": _matrix_json(f),
        "mu": w.mu,
        "muc": w.muc,
        "regime": w.regime.value,
        "branch": ms.branch.value,
        "alpha_p_rad": alpha_p,
        "alpha_p_deg": math.degrees(alpha_p),
        "angles_rad": angles,
        "angles_deg": [math.degrees(a) for a in angles],
        "angle_convention": "first listed angle is alpha_p + beta",
        "rotations": [_matrix_json(rotation(a)) for a in angles],
        "energy": ms.energy,
        "beta": ms.beta,
        "rho": None,  # the rescaling data, set for non-classical weights below
        "lambda": None,
        "f_tilde": None,
    }
    if w.regime is Regime.NON_CLASSICAL:
        data = reduction_data(f, w)
        report["rho"] = data.rho
        report["lambda"] = data.lam
        report["f_tilde"] = _matrix_json(data.ftilde)

    exit_code = EXIT_OK
    if args.certify:
        grid = bruteforce.grid_minimize(
            energy.shear_stretch_profile(f, w), args.grid_n, vectorized=True
        )
        deviation = bruteforce.angle_set_distance(ms.angles, grid.angles)
        energy_dev = abs(grid.best_value - ms.energy)
        passed = deviation <= CERTIFY_TOL
        merge_radius = bruteforce.MERGE_STEPS * grid.angle_tol
        pair_separation = 2.0 * ms.beta
        report["certify"] = {
            "grid_n": grid.grid_n,
            "oracle_angles_rad": list(grid.angles),
            "max_angle_deviation": deviation,
            "energy_deviation": energy_dev,
            "tolerance": CERTIFY_TOL,
            "passed": passed,
            "angle_tol": grid.angle_tol,
            "merge_radius": merge_radius,
            "pair_separation": pair_separation,
            # the oracle reports a pair this close as one minimum
            "degenerate_band": ms.branch is energy.Branch.PITCHFORK
            and pair_separation <= merge_radius,
        }
        if not passed:
            exit_code = EXIT_CERTIFY_FAILED

    _report(args, report, _MINIMIZE_CSV, (
        ms.branch.value,
        alpha_p,
        ms.alpha_plus,
        ms.alpha_minus if len(angles) > 1 else None,
        ms.beta,
        ms.energy,
        report["rho"],
        report["lambda"],
    ))
    return exit_code


def _cmd_critical(args) -> int:
    f = Mat2(*args.f)
    cs = minimizers.critical_set(f)
    inv = trace_invariants(f)
    nc = cs.nonclassical
    report = {
        "command": "critical",
        "f": _matrix_json(f),
        "tr_u": inv.tr_u,
        "classical_pair_rad": list(cs.classical_pair),
        "classical_pair_deg": [math.degrees(a) for a in cs.classical_pair],
        "nonclassical_rad": list(nc) if nc else None,
        "nonclassical_deg": [math.degrees(a) for a in nc] if nc else None,
        "levels": {"w1": cs.levels.w1, "w2": cs.levels.w2, "w3": cs.levels.w3},
    }
    _report(args, report, _CRITICAL_CSV, (
        *cs.classical_pair,
        *(nc if nc else (None, None)),
        cs.levels.w1,
        cs.levels.w2,
        cs.levels.w3,
    ))
    return EXIT_OK


def _cmd_energy_levels(args) -> int:
    f = Mat2(*args.f)
    inv = trace_invariants(f)
    levels = energy.critical_energy_levels(f)
    report = {
        "command": "energy-levels",
        "f": _matrix_json(f),
        "tr_u": inv.tr_u,
        "det_f": inv.det_f,
        "w1": levels.w1,
        "w2": levels.w2,
        "w3": levels.w3,
    }
    _report(args, report, _ENERGY_LEVELS_CSV,
            (inv.tr_u, inv.det_f, levels.w1, levels.w2, levels.w3))
    return EXIT_OK


def _cmd_sweep_shear(args) -> int:
    gammas = _sweep_values(args.gamma_start, args.gamma_end, args.gamma_step)
    solve = shear.shear_solution

    def row(gamma: float) -> tuple:
        sol = solve(gamma)
        return (sol.gamma, sol.alpha_p, *sol.angles, *shear._shear_levels(gamma))

    return _stream_table(args, _SWEEP_SHEAR, row, gammas)


def _cmd_bifurcation(args) -> int:
    w = Weights(args.mu, args.muc)
    if w.regime is Regime.CLASSICAL:
        raise PlanarCosseratError(
            "bifurcation table needs non-classical weights (mu > muc)"
        )
    tr_values = _sweep_values(args.tru_start, args.tru_end, args.tru_step, positive=True)
    rho = w.singular_radius()
    pitchfork = minimizers._pitchfork

    def row(tr_u: float) -> tuple:
        beta = pitchfork(tr_u, rho)[0]
        return (tr_u, beta, -beta)

    return _stream_table(args, _BIFURCATION, row, tr_values)


def _cmd_verify(args) -> int:
    seed = args.seed
    env_seed = os.environ.get("COSSERAT2D_SEED")
    if env_seed is not None:
        try:
            seed = _bounded_int("seed", 0)(env_seed)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"COSSERAT2D_SEED={env_seed!r}: {exc}") from None
    results = selfcheck.run_suite(seed=seed, samples=args.samples, grid_n=args.grid_n)
    passed = all(r.passed for r in results)
    if args.format == "json":
        payload = {
            "seed": seed,
            "samples": args.samples,
            "grid_n": args.grid_n,
            "passed": passed,
            "checks": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "max_residual": r.residual,
                    "tolerance": r.tolerance,
                }
                for r in results
            ],
        }
        _emit(_format_json(payload), args.out)
    else:
        head = f"seed={seed} samples={args.samples} grid_n={args.grid_n}\n"
        _emit(head + selfcheck.format_report(results) + "\n", args.out)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


_DISPATCH = {
    "minimize": _cmd_minimize,
    "critical": _cmd_critical,
    "energy-levels": _cmd_energy_levels,
    "sweep-shear": _cmd_sweep_shear,
    "bifurcation": _cmd_bifurcation,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ValueError as exc:  # PlanarCosseratError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except ArithmeticError as exc:  # a result beyond the floating-point range
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
