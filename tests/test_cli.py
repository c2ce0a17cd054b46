"""Tests for the command-line interface, its schemas and exit codes."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cosserat2d import Mat2, Weights, rotation, shear_stretch_energy
from cosserat2d import bruteforce, cli, selfcheck
from cosserat2d.cli import _Table, main
from record_checks import check_record, reject_constant


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestMinimize:
    def test_pitchfork_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "minimize", "--f", "3", "0", "0", "1", "--mu", "1", "--muc", "0"
        )
        assert code == 0
        report = json.loads(out)
        assert report["branch"] == "pitchfork"
        assert sorted(report["angles_rad"]) == pytest.approx(
            [-math.pi / 3.0, math.pi / 3.0], abs=1e-12
        )
        assert report["energy"] == pytest.approx(2.0, abs=1e-12)
        assert report["rho"] == 2.0
        assert report["lambda"] == 1.0

    def test_classical_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "minimize", "--f", "1", "0", "0", "1", "--mu", "1", "--muc", "1"
        )
        assert code == 0
        report = json.loads(out)
        assert report["branch"] == "classical"
        assert report["angles_rad"] == [0.0]
        assert report["energy"] == 0.0
        assert report["rho"] is None

    def test_certify_simple_shear(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "minimize", "--f", "1", "2", "0", "1",
            "--mu", "1", "--muc", "0", "--certify",
        )
        assert code == 0
        report = json.loads(out)
        cert = report["certify"]
        assert cert["passed"]
        assert cert["max_angle_deviation"] < 1e-6
        assert list(cert)[-4:] == [
            "angle_tol", "merge_radius", "pair_separation", "degenerate_band"
        ]
        assert cert["angle_tol"] == math.tau / 20000
        assert cert["merge_radius"] == 2.0 * cert["angle_tol"]
        assert cert["pair_separation"] == 2.0 * report["beta"] > cert["merge_radius"]
        assert cert["degenerate_band"] is False

    def test_certify_classical_has_no_pair(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "minimize", "--f", "1", "2", "0", "1",
            "--mu", "1", "--muc", "2", "--certify", "--grid-n", "720",
        )
        assert code == 0
        cert = json.loads(out)["certify"]
        assert cert["passed"]
        assert cert["angle_tol"] == math.tau / 720
        assert cert["pair_separation"] == 0.0
        assert cert["degenerate_band"] is False

    def test_certify_fails_in_degenerate_band_exits_3(self, capsys):
        # immediately at the pitchfork threshold the two minima sit below
        # the oracle's merge radius, so certification honestly reports a
        # deviation; the closed form still lists both angles
        code, out, _ = run_cli(
            capsys,
            "minimize", "--f", "1.00000001", "0", "0", "1",
            "--mu", "1", "--muc", "0", "--certify",
        )
        assert code == 3
        report = json.loads(out)
        assert not report["certify"]["passed"]
        assert len(report["angles_rad"]) == 2
        # ... which the report names, telling this exit 3 from a real discrepancy
        cert = report["certify"]
        assert 0.0 < cert["pair_separation"] <= cert["merge_radius"]
        assert cert["degenerate_band"] is True

    def test_nonpositive_determinant_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "minimize", "--f", "1", "0", "0", "-1", "--mu", "1", "--muc", "0"
        )
        assert code == 2
        assert "error" in err

    def test_overflowing_energy_exits_2(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        for f in (("1e200", "0", "0", "1e200"), ("1e160", "1", "0", "1e160")):
            code, _, err = run_cli(capsys, "minimize", "--f", *f, "--out", str(path))
            assert code == 2
            # one line in the program's words: no Python class, no errno tuple
            assert err == "error: minimize: a result leaves the floating-point range\n"
            assert not path.exists()

    def test_json_roundtrip_reproduces_energy(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "minimize", "--f", "1.7", "0.3", "-0.2", "0.8", "--mu", "1.5", "--muc", "0.25",
        )
        assert code == 0
        report = json.loads(out)
        f = Mat2(*report["f"][0], *report["f"][1])
        w = Weights(report["mu"], report["muc"])
        for angle in report["angles_rad"]:
            value = shear_stretch_energy(rotation(angle), f, w)
            assert value == pytest.approx(report["energy"], abs=1e-10)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "minimize", "--f", "3", "0", "0", "1", "--mu", "1", "--muc", "0",
            "--format", "csv",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "branch", "alpha_p", "alpha_plus", "alpha_minus", "beta",
            "energy", "rho", "lambda",
        ]
        assert rows[0][0] == "pitchfork"
        assert float(rows[0][2]) == pytest.approx(math.pi / 3.0)

    def test_degrees_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "minimize", "--f", "3", "0", "0", "1", "--mu", "1", "--muc", "0",
            "--format", "csv", "--degrees",
        )
        header, rows = parse_csv(out)
        assert header[1] == "alpha_p_deg"
        assert float(rows[0][2]) == pytest.approx(60.0)

    def test_grid_n_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["minimize", "--f", "1", "0", "0", "1", "--grid-n", "100"])
        assert exc.value.code == 2

    def test_overflowing_energy_is_json_null(self, capsys):
        code, out, _ = run_cli(
            capsys, "minimize", "--f", "3", "0", "0", "1", "--mu", "1e308", "--muc", "0"
        )
        assert code == 0
        assert json.loads(out, parse_constant=reject_constant)["energy"] is None
        code, out, _ = run_cli(
            capsys, "minimize", "--f", "3", "0", "0", "1", "--mu", "1e308", "--muc", "0",
            "--format", "csv",
        )
        assert code == 0
        assert parse_csv(out)[1][0][5] == "inf"

    def test_certify_of_overflowing_energy_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "minimize", "--f", "3", "0", "0", "1", "--mu", "1e308", "--muc", "0",
            "--certify", "--grid-n", "360",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: energy is inf at angle ")
        assert "np.float64(" not in err

    def test_certify_of_overflowing_energy_writes_one_stderr_line(self):
        # run as a program, so numpy's floating-point warnings would reach stderr
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "cosserat2d.cli", "minimize", "--f", "3", "0", "0", "1",
             "--mu", "1e308", "--muc", "0", "--certify", "--grid-n", "360"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: energy is inf at angle ")


class TestCritical:
    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, "critical", "--f", "3", "0", "0", "1")
        assert code == 0
        report = json.loads(out)
        assert report["classical_pair_rad"][0] == pytest.approx(0.0)
        assert sorted(report["nonclassical_rad"]) == pytest.approx(
            [-math.pi / 3.0, math.pi / 3.0], abs=1e-12
        )
        levels = report["levels"]
        assert levels["w1"] >= levels["w2"] >= levels["w3"]

    def test_no_third_branch(self, capsys):
        code, out, _ = run_cli(capsys, "critical", "--f", "0.5", "0", "0", "0.5")
        report = json.loads(out)
        assert report["nonclassical_rad"] is None
        assert report["levels"]["w3"] is None


class TestEnergyLevels:
    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, "energy-levels", "--f", "1", "2", "0", "1")
        assert code == 0
        report = json.loads(out)
        assert report["tr_u"] == pytest.approx(2.0 * math.sqrt(2.0))
        assert report["w3"] == pytest.approx(2.0, abs=1e-12)

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "energy-levels", "--f", "1", "2", "0", "1", "--format", "csv"
        )
        header, rows = parse_csv(out)
        assert header == ["tr_u", "det_f", "w1", "w2", "w3"]
        assert float(rows[0][4]) == pytest.approx(2.0, abs=1e-12)


class TestSweepShear:
    def test_schema_and_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep-shear", "--gamma-start", "0", "--gamma-end", "2", "--gamma-step", "0.5",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["gamma", "alpha_p", "alpha_plus", "alpha_minus", "w1", "w2", "w3"]
        assert len(rows) == 5
        first = [float(v) for v in rows[0]]
        assert first[0] == 0.0
        assert first[2] == pytest.approx(0.0, abs=1e-12)
        assert first[5] == pytest.approx(0.0, abs=1e-12)  # w2 at identity
        assert first[6] == pytest.approx(0.0, abs=1e-12)  # w3 at identity
        last = [float(v) for v in rows[-1]]
        assert last[0] == 2.0
        assert last[1] == pytest.approx(-math.pi / 4.0, abs=1e-12)
        assert sorted(last[2:4]) == pytest.approx([-math.pi / 2.0, 0.0], abs=1e-12)
        assert last[6] == pytest.approx(2.0, abs=1e-12)

    def test_reduced_level_column_is_half_square(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep-shear", "--gamma-start", "-3", "--gamma-end", "3", "--gamma-step", "0.25",
        )
        _, rows = parse_csv(out)
        for row in rows:
            gamma, w3 = float(row[0]), float(row[6])
            assert w3 == pytest.approx(0.5 * gamma * gamma, abs=1e-12)

    def test_locale_independent_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep-shear", "--gamma-start", "0", "--gamma-end", "1", "--gamma-step", "0.5",
        )
        assert "," in out and ";" not in out
        assert "\r" not in out
        for token in out.split(",")[7:]:
            assert "," not in token

    def test_invalid_range_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep-shear", "--gamma-start", "2", "--gamma-end", "0", "--gamma-step", "0.5",
        )
        assert code == 2

    def test_infinite_range_exits_2(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, err = run_cli(
            capsys,
            "sweep-shear", "--gamma-start", "0", "--gamma-end", "inf", "--gamma-step", "1",
            "--out", str(path),
        )
        assert code == 2
        assert err.startswith("error: invalid range") and "finite row count" in err
        assert out == "" and not path.exists()

    def test_row_cap_exits_2(self, capsys, tmp_path, monkeypatch):
        def no_rows(gamma):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(cli.shear, "shear_solution", no_rows)
        path = tmp_path / "sweep.csv"
        code, out, err = run_cli(
            capsys,
            "sweep-shear", "--gamma-start", "0", "--gamma-end", "1e15", "--gamma-step", "1",
            "--out", str(path),
        )
        assert code == 2
        assert err.startswith("error: invalid range") and "more than the cap" in err
        assert out == "" and not path.exists()

    def test_row_cap_is_inclusive(self):
        # values are lazy, so neither call builds a row
        first, last, _ = cli._sweep_values(0.0, cli.MAX_ROWS - 1.0, 1.0)
        assert (first, last) == (0.0, cli.MAX_ROWS - 1.0)
        with pytest.raises(cli.PlanarCosseratError, match="more than the cap"):
            cli._sweep_values(0.0, float(cli.MAX_ROWS), 1.0)

    def test_overflowing_row_exits_2(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, err = run_cli(
            capsys,
            "sweep-shear", "--gamma-start", "1e200", "--gamma-end", "2e200",
            "--gamma-step", "1e200", "--out", str(path),
        )
        assert code == 2
        assert err == "error: row at 1e+200 leaves the floating-point range\n"
        assert out == "" and not path.exists()

    def test_workers_preserve_order(self, capsys):
        _, serial, _ = run_cli(
            capsys,
            "sweep-shear", "--gamma-start", "0", "--gamma-end", "4", "--gamma-step", "0.125",
        )
        _, parallel, _ = run_cli(
            capsys,
            "sweep-shear", "--gamma-start", "0", "--gamma-end", "4", "--gamma-step", "0.125",
            "--workers", "4",
        )
        assert serial == parallel

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep-shear", "--gamma-start", "0", "--gamma-end", "1", "--gamma-step", "1",
            "--format", "json",
        )
        payload = json.loads(out)
        assert len(payload) == 2
        assert payload[1]["w3"] == pytest.approx(0.5, abs=1e-12)

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys,
            "sweep-shear", "--gamma-start", "0", "--gamma-end", "1", "--gamma-step", "0.5",
            "--out", str(path),
        )
        assert code == 0
        assert out == ""
        text = path.read_text()
        assert text.startswith("gamma,")
        assert text.count("\n") == 4


class TestBifurcation:
    def test_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bifurcation", "--tru-start", "1", "--tru-end", "4", "--tru-step", "1",
            "--mu", "1", "--muc", "0",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["tr_u", "beta_plus", "beta_minus"]
        table = {float(r[0]): (float(r[1]), float(r[2])) for r in rows}
        assert table[1.0] == (0.0, 0.0)
        assert table[2.0] == (0.0, 0.0)
        assert table[4.0][0] == pytest.approx(math.pi / 3.0, abs=1e-12)
        assert table[4.0][1] == pytest.approx(-math.pi / 3.0, abs=1e-12)

    def test_classical_weights_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "bifurcation", "--tru-start", "1", "--tru-end", "4", "--tru-step", "1",
            "--mu", "1", "--muc", "2",
        )
        assert code == 2

    def test_overflowing_row_count_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bifurcation.csv"
        code, out, err = run_cli(
            capsys,
            "bifurcation", "--tru-start", "1e-300", "--tru-end", "1e300",
            "--tru-step", "1e-10", "--out", str(path),
        )
        assert code == 2
        assert err.startswith("error: invalid range") and "finite row count" in err
        assert out == "" and not path.exists()

    def test_row_cap_exits_2(self, capsys, tmp_path, monkeypatch):
        def no_rows(*args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(cli.energy, "_pitchfork", no_rows)
        path = tmp_path / "bifurcation.csv"
        code, out, err = run_cli(
            capsys,
            "bifurcation", "--tru-start", "1", "--tru-end", "1e15", "--tru-step", "1",
            "--out", str(path),
        )
        assert code == 2
        assert err.startswith("error: invalid range") and "more than the cap" in err
        assert out == "" and not path.exists()

    def test_nonpositive_range_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "bifurcation", "--tru-start", "-1", "--tru-end", "4", "--tru-step", "1",
            "--mu", "1", "--muc", "0",
        )
        assert code == 2


class TestTableEmission:
    """The streamed emitters against csv.writer and json.dumps on the same rows."""

    TABLE = _Table(("a",), ("b", "c"), ("d", "e"))
    ROWS = [
        (0.5, -0.0, -1.25, 1e-300, -0.0),
        (-1.5, math.pi, None, float("inf"), None),
        (2.0, float("nan"), -float("inf"), "text, quoted", 3.0),
    ]

    @staticmethod
    def _reference_csv(header, rows):
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                ["" if v is None else repr(v + 0.0) if isinstance(v, float) else str(v)
                 for v in row]
            )
        return buffer.getvalue()

    @pytest.mark.parametrize("degrees", [False, True])
    def test_csv_matches_csv_writer(self, degrees):
        def unit(v):
            return math.degrees(v) if degrees and v is not None else v

        suffix = "_deg" if degrees else ""
        header = ["a", "b" + suffix, "c" + suffix, "d", "e"]
        rows = [(r[0], unit(r[1]), unit(r[2]), r[3], r[4]) for r in self.ROWS]
        buffer = io.StringIO()
        self.TABLE.write(buffer, iter(self.ROWS), "csv", degrees)
        assert buffer.getvalue() == self._reference_csv(header, rows)

    def test_json_matches_json_dumps(self):
        def cell(v):  # strict JSON: a non-finite float is written as null
            return None if isinstance(v, float) and not math.isfinite(v) else v

        rows = self.ROWS
        payload = [
            {k: cell(v) for k, v in {
                "a": a, "b_rad": b, "c_rad": c,
                "b_deg": math.degrees(b), "c_deg": None if c is None else math.degrees(c),
                "d": d, "e": e}.items()}
            for a, b, c, d, e in rows
        ]
        for subset in (rows, rows[:2], rows[:1], []):
            buffer = io.StringIO()
            self.TABLE.write(buffer, iter(subset), "json", degrees=True)
            expected = json.dumps(payload[: len(subset)], indent=2) + "\n"
            assert buffer.getvalue() == expected
            json.loads(buffer.getvalue(), parse_constant=reject_constant)


class TestBounds:
    """Exit 2 for an unwritable --out and an oversized --grid-n, before any traceback."""

    @pytest.fixture
    def no_oracle_work(self, monkeypatch):
        # an unwritable --out must fail before the suite or the oracle runs
        def called(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        monkeypatch.setattr(selfcheck, "run_suite", called)
        monkeypatch.setattr(bruteforce, "grid_minimize", called)

    @pytest.mark.parametrize("argv", [
        ["minimize", "--f", "3", "0", "0", "1", "--certify"],
        ["sweep-shear", "--gamma-start", "0", "--gamma-end", "1", "--gamma-step", "0.5"],
        ["verify", "--samples", "1", "--grid-n", "360"],
    ])
    def test_out_in_missing_directory_exits_2(self, capsys, tmp_path, argv, no_oracle_work):
        path = tmp_path / "missing" / "x"
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == 2 and out == ""
        assert err == f"error: cannot write {str(path)!r}: No such file or directory\n"

    def test_out_under_a_file_exits_2(self, capsys, tmp_path, no_oracle_work):
        (tmp_path / "file").write_text("")
        path = tmp_path / "file" / "x"
        code, out, err = run_cli(
            capsys, "verify", "--samples", "1", "--grid-n", "360", "--out", str(path)
        )
        assert code == 2 and out == ""
        assert err == f"error: cannot write {str(path)!r}: Not a directory\n"

    def test_out_naming_a_directory_exits_2(self, capsys, tmp_path, no_oracle_work):
        code, out, err = run_cli(
            capsys, "verify", "--samples", "1", "--grid-n", "360", "--out", str(tmp_path)
        )
        assert code == 2 and out == ""
        assert err == f"error: cannot write {str(tmp_path)!r}: Is a directory\n"

    def test_out_name_too_long_exits_2(self, capsys, tmp_path, no_oracle_work):
        path = tmp_path / ("x" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 1))
        code, out, err = run_cli(
            capsys, "verify", "--samples", "1", "--grid-n", "360", "--out", str(path)
        )
        assert code == 2 and out == ""
        assert err == f"error: cannot write {str(path)!r}: File name too long\n"

    def test_out_empty_name_exits_2(self, capsys, no_oracle_work):
        code, out, err = run_cli(capsys, "verify", "--samples", "1", "--grid-n", "360", "--out", "")
        assert code == 2 and out == ""
        assert err == "error: cannot write '': No such file or directory\n"

    @pytest.mark.parametrize("grid_n", [str(cli.MAX_GRID_N + 1), "10000000000000"])
    @pytest.mark.parametrize("argv", [
        ["minimize", "--f", "3", "0", "0", "1", "--certify"],
        ["verify"],
    ])
    def test_grid_n_above_bound_exits_2(self, capsys, argv, grid_n):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--grid-n", grid_n])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --grid-n: grid size must be at most 1000000" in err

    def test_grid_n_floor_is_inclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--grid-n", str(bruteforce.MIN_GRID_N - 1)])
        assert exc.value.code == 2
        assert "argument --grid-n: grid size must be at least 360" in capsys.readouterr().err
        args = cli.build_parser().parse_args(["verify", "--grid-n", str(bruteforce.MIN_GRID_N)])
        assert args.grid_n == bruteforce.MIN_GRID_N == 360

    def test_grid_n_bound_is_inclusive(self):
        args = cli.build_parser().parse_args(["verify", "--grid-n", str(cli.MAX_GRID_N)])
        assert args.grid_n == cli.MAX_GRID_N == 10**6


class TestNegativeNumbers:
    """A negative number in exponent notation, or -inf, is a value, not an option."""

    @pytest.mark.parametrize("command", ["minimize", "critical", "energy-levels"])
    def test_exponent_notation_matches_decimal(self, capsys, command):
        exponent = run_cli(capsys, command, "--f", "1", "-1e-3", "0", "1")
        decimal = run_cli(capsys, command, "--f", "1", "-0.001", "0", "1")
        assert exponent[0] == 0 and exponent == decimal

    def test_weights_in_exponent_notation(self, capsys):
        code, _, err = run_cli(capsys, "minimize", "--f", "1", "0", "0", "1", "--muc", "-1E-3")
        assert code == 2 and err == "error: muc must be finite and nonnegative, got -0.001\n"

    def test_sweep_start_in_exponent_notation(self, capsys):
        argv = ["sweep-shear", "--gamma-end", "0.1", "--gamma-step", "0.1"]
        exponent = run_cli(capsys, *argv, "--gamma-start", "-1e-1")
        decimal = run_cli(capsys, *argv, "--gamma-start", "-0.1")
        assert exponent[0] == 0 and exponent == decimal
        assert len(exponent[1].splitlines()) == 4

    @pytest.mark.parametrize("value", ["-inf", "-Infinity", "-nan", "-1e400"])
    def test_non_finite_reaches_the_finiteness_check(self, capsys, value):
        code, out, err = run_cli(capsys, "minimize", "--f", "1", value, "0", "1")
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: matrix entry e12 must be finite")

    @pytest.mark.parametrize("token", ["-x", "-1e", "--1e-3", "-e5"])
    def test_other_dash_tokens_are_still_options(self, capsys, token):
        with pytest.raises(SystemExit) as info:
            main(["minimize", "--f", "1", token, "0", "1"])
        assert info.value.code == 2


class TestVerify:
    def test_default_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--samples", "60", "--grid-n", "720")
        assert code == 0
        assert "properties passed" in out
        assert "FAIL" not in out

    def test_seeded_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--seed", "7", "--samples", "80", "--grid-n", "720"
        )
        assert code == 0
        assert "seed=7" in out

    @staticmethod
    def _register(monkeypatch, name, tolerance, residuals):
        def case(rng, i, grid_n):
            return residuals[i]

        prop = selfcheck.Property(name, tolerance, lambda samples: len(residuals), case)
        monkeypatch.setitem(selfcheck.PROPERTIES, name, prop)

    def test_injected_fault_exits_1(self, capsys, monkeypatch):
        self._register(monkeypatch, "always_fails", 1e-12, [1.0])
        code, out, _ = run_cli(capsys, "verify", "--samples", "30", "--grid-n", "720")
        assert code == 1
        assert out.count("FAIL") == 1
        assert "FAIL  always_fails " in out

    def test_nan_case_fails_its_property(self, capsys, monkeypatch):
        # a max-fold from 0.0 would drop the NaN and read 0.5, a PASS
        self._register(monkeypatch, "nan_second_case", 1.0, [0.0, math.nan, 0.5])
        assert math.isnan(selfcheck.PROPERTIES["nan_second_case"].worst(None, 3))
        code, out, _ = run_cli(capsys, "verify", "--samples", "30", "--grid-n", "720")
        assert code == 1
        assert out.count("FAIL") == 1
        line = next(line for line in out.splitlines() if "nan_second_case" in line)
        assert line.startswith("FAIL") and "max_residual=nan" in line

        code, out, _ = run_cli(
            capsys, "verify", "--samples", "30", "--grid-n", "720", "--format", "json"
        )
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out, parse_constant=reject_constant)["checks"]}
        assert checks["nan_second_case"]["max_residual"] is None
        assert checks["nan_second_case"]["passed"] is False

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_exits_2(self, capsys, samples):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--samples", samples])
        assert exc.value.code == 2
        assert "samples must be at least 1" in capsys.readouterr().err

    def test_check_result_record(self):
        check_record(
            selfcheck.CheckResult("x", True, 0.0, 1e-10),
            "CheckResult(name='x', passed=True, residual=0.0, tolerance=1e-10)",
            name="x", passed=True, residual=0.0, tolerance=1e-10,
        )
        assert selfcheck.CheckResult._field_defaults == {}
        result = selfcheck.run_suite(samples=1, grid_n=720)[0]
        assert type(result) is selfcheck.CheckResult
        check_record(result, repr(result), **result._asdict())

    @pytest.mark.parametrize("samples", [0, -3])
    def test_run_suite_rejects_samples_below_one(self, samples):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            selfcheck.run_suite(samples=samples)

    def test_dropping_a_property_leaves_every_other_result(self, monkeypatch):
        # each property draws from a stream keyed by its own name, so removing
        # one drops its line and leaves every other line's bits as they were
        def suite():
            return {r.name: repr(r) for r in selfcheck.run_suite(seed=5, samples=3, grid_n=360)}

        full, registered = suite(), dict(selfcheck.PROPERTIES)
        for dropped in registered:
            fewer = {name: p for name, p in registered.items() if name != dropped}
            monkeypatch.setattr(selfcheck, "PROPERTIES", fewer)
            assert suite() == {name: line for name, line in full.items() if name != dropped}

    def test_worst_rejects_no_cases(self):
        prop = selfcheck.PROPERTIES["closed_form_vs_oracle"]
        with pytest.raises(ValueError, match="^cases must be at least 1, got 0$"):
            prop.worst(np.random.default_rng(0), 0)

    def test_wrong_count_of_minima_or_roots_is_inf(self, monkeypatch):
        # a property that needs one minimum or two roots fails outright on any other count
        two = bruteforce.GridResult(((0.0, 1.0), (1.0, 1.0)), 720, math.tau / 720, 0, 2)
        monkeypatch.setattr(selfcheck.bruteforce, "grid_minimize", lambda *args, **kw: two)
        monkeypatch.setattr(selfcheck.bruteforce, "sign_change_scan", lambda *args, **kw: [0.0])
        for name in ("classical_oracle_is_polar", "log_strain_polar_optimality",
                     "skew_defect_two_roots"):
            assert selfcheck.PROPERTIES[name].case(np.random.default_rng(0), 0, 720) == math.inf

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("COSSERAT2D_SEED", "99")
        code, out, _ = run_cli(
            capsys, "verify", "--seed", "3", "--samples", "30", "--grid-n", "720"
        )
        assert code == 0
        assert "seed=99" in out

    def test_negative_seed_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", "-1"])
        assert exc.value.code == 2
        assert "argument --seed: seed must be at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "seven"])
    def test_bad_env_seed_exits_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("COSSERAT2D_SEED", value)
        code, out, err = run_cli(capsys, "verify", "--samples", "1", "--grid-n", "360")
        assert code == 2 and out == ""
        assert err.startswith(f"error: COSSERAT2D_SEED={value!r}: ")

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--samples", "30", "--grid-n", "720", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["checks"]) > 15
        assert all(c["max_residual"] <= c["tolerance"] for c in payload["checks"])
