"""Golden bytes: CLI output and closed-form results pinned by SHA-256.

`CLI_SHA256` pins the bytes each CLI case writes; the `verify` cases pin
every property's residual on its seeded stream. `CLOSED_FORM_SHA256` pins
the repr of the public closed forms on seeded inputs, `PROFILE_SHA256` the
grid profiles and the scalar energies (`profile_lines()` is diffable), and
`ORACLE_SHA256` the grid oracle's own output: its minima, grid step and
work counters, and the roots of its sign-change scan. How and why each
digest was re-pinned is recorded in CHANGES.md.

All depend on the platform's libm (cos, sin, atan2, acos) and, for the
profiles, the oracle and `verify`, on numpy's own ufunc loops: cos, sin,
sqrt, log, log1p and arctan2 on arrays of angles, and log, log1p and
arctan2 on the single floats of refinement and `matrix_log_2x2`, which take
cos, sin and sqrt from libm through math. `verify` also depends on numpy's
eigensolver. So they were recorded with CPython 3.11 and numpy 2.4 on
x86-64 Linux (glibc, AVX-512); another libm, numpy build or CPU may differ
in the last bit.
"""

import hashlib
import json
import math
import random

import numpy as np
import pytest

from cosserat2d import (
    Mat2,
    Weights,
    cofactor_shear_profile,
    cofactor_transform,
    critical_energy_levels,
    critical_set,
    grid_minimize,
    log_strain_profile,
    optimal_set,
    polar_angle,
    reduced_energy,
    relative_rotation_magnitude,
    rotation,
    shear_solution,
    shear_stretch_energy,
    shear_stretch_profile,
    sign_change_scan,
    signed_defect_profile,
    trace_invariants,
)
from cosserat2d.cli import main
from cosserat2d.selfcheck import random_gl_plus, random_nonclassical_case

F_PITCHFORK = ["--f", "3", "0.5", "-0.2", "1"]
F_CLASSICAL = ["--f", "0.5", "0.1", "0", "0.5"]
MINIMIZE = ["minimize", *F_PITCHFORK, "--mu", "1", "--muc", "0.2"]
MINIMIZE_CLASSICAL = ["minimize", *F_CLASSICAL, "--mu", "1", "--muc", "2"]
SWEEP = ["sweep-shear", "--gamma-start", "-2", "--gamma-end", "2", "--gamma-step", "0.125"]
SWEEP_HUGE = ["sweep-shear", "--gamma-start=-1e150", "--gamma-end", "1e150",
              "--gamma-step", "2.5e149"]
# tr U runs below, through and above the singular radius rho = 2
BIFURCATION = ["bifurcation", "--tru-start", "0.5", "--tru-end", "4", "--tru-step", "0.25",
               "--mu", "1", "--muc", "0"]
BIFURCATION_QUARTER = ["bifurcation", "--tru-start", "0.5", "--tru-end", "6",
                       "--tru-step", "0.125", "--mu", "2", "--muc", "0.5"]
VERIFY = ["verify", "--samples", "60", "--grid-n", "720"]

CLI_CASES = {
    "sweep_csv": SWEEP + ["--format", "csv"],
    "sweep_json": SWEEP + ["--format", "json"],
    "sweep_csv_degrees": SWEEP + ["--format", "csv", "--degrees"],
    "sweep_json_degrees": SWEEP + ["--format", "json", "--degrees"],
    "sweep_huge_csv": SWEEP_HUGE + ["--format", "csv"],
    "sweep_huge_json": SWEEP_HUGE + ["--format", "json"],
    "bifurcation_csv": BIFURCATION + ["--format", "csv"],
    "bifurcation_json": BIFURCATION + ["--format", "json"],
    "bifurcation_csv_degrees": BIFURCATION + ["--format", "csv", "--degrees"],
    "bifurcation_quarter_json": BIFURCATION_QUARTER + ["--format", "json"],
    "minimize_csv": MINIMIZE + ["--format", "csv"],
    "minimize_csv_degrees": MINIMIZE + ["--format", "csv", "--degrees"],
    "minimize_json": MINIMIZE + ["--format", "json"],
    "minimize_classical_csv": MINIMIZE_CLASSICAL + ["--format", "csv"],
    "minimize_classical_json": MINIMIZE_CLASSICAL + ["--format", "json"],
    "critical_csv": ["critical", *F_PITCHFORK, "--format", "csv"],
    "critical_json": ["critical", *F_PITCHFORK, "--format", "json"],
    "critical_no_branch_csv": ["critical", *F_CLASSICAL, "--format", "csv"],
    "critical_no_branch_json": ["critical", *F_CLASSICAL, "--format", "json"],
    "energy_levels_csv": ["energy-levels", *F_PITCHFORK, "--format", "csv"],
    "energy_levels_json": ["energy-levels", *F_PITCHFORK, "--format", "json"],
    "verify_json": VERIFY + ["--format", "json"],
    "verify_text": VERIFY,
    "verify_seed7_json": ["verify", "--seed", "7", "--samples", "80", "--grid-n", "720",
                          "--format", "json"],
}

#: SHA-256 of each case's --out file.
CLI_SHA256 = {
    "sweep_csv": "7c62301964064423a26fd3b3f2a8de0c8f796def8c3a128df0f1810ddabd08b5",
    "sweep_json": "dcaaf9100669a442a4b4d080bea96dc82608a15aab90cb47cf7328b6af9993d8",
    "sweep_csv_degrees": "4a3b0c6dce5efe2672505b7cf38a3a2be5cada01c0cfe530c406d28054c1db47",
    "sweep_json_degrees": "dcaaf9100669a442a4b4d080bea96dc82608a15aab90cb47cf7328b6af9993d8",
    "sweep_huge_csv": "983fa76c39291e1cc9cc0a6413ff70f31ed1784e4c5195e8c171584c5ba2baf0",
    "sweep_huge_json": "107c437c42879749d8d5ea86776c9f57dcd13ec5838710215c8ef4ad03831537",
    "bifurcation_csv": "ae2523d4d0daecb0e122f416a93f0fb937d24799cf951d2d356c65f915bd8f95",
    "bifurcation_json": "9066337715eb79a0f0f6ef66de96b7d65ea73848f46de4505f36255c499cdf34",
    "bifurcation_csv_degrees": "fbf60837e4fea6f1ad5c97175bd7f4febcfab99525d78eee9c3ebf2214473f06",
    "bifurcation_quarter_json": "c2097a79ec770c567601bab08bd1e419c3eaf47eda7a0da557143bd36e0ccaca",
    "minimize_csv": "9d845e4389ffad9ba981f890749e1b2fbb85238b7dcb01370777a05f5c17f283",
    "minimize_csv_degrees": "d2fbdd1639f5e4e050fcaa3f8ab6a675f330f82b80e21c81371f1f6c6a7f79e9",
    "minimize_json": "a04248adf42846c7f429d621ce6da77631ad7ba8091b398336c4826dda064269",
    "minimize_classical_csv": "71e2edcfb722415e4169bc442f5b04dda4bf4650bb44fd840086e3edf4f4b308",
    "minimize_classical_json": "f1bc5bc5f447e88726dcf2fc4cae5fbf8c87a35cae13b0d47f3afb7ba51fd343",
    "critical_csv": "ae9cb99a81449bee77cde3b9b90c8a9185a2c5ae8bc49527ef7a3cac24727173",
    "critical_json": "fd7a33195baf9fd5d92ef01a2ea3103f036680bd9c121f4ddf51ee894475368f",
    "critical_no_branch_csv": "d1f30d6bbaa680c0cb500548dcacc4eb737109dd511ae5580eb86d8e62137b03",
    "critical_no_branch_json": "0d105d22d66df980bb45057cbd246185ac44f78ac37d1c6def5d5435c0731156",
    "energy_levels_csv": "c4f613ac59141dce60409484f4a935e22f18792f97453c7e984482eace1eabb9",
    "energy_levels_json": "0843c3e0f5b51658560aa0881a91015b99290d140aafb5f051e64fc734ec0909",
    "verify_json": "98ed07223bff8b88ec9998d4435989bf7cacd595bb8df66378fb143b7a364949",
    "verify_text": "b60586506a73449c6f9d23eccb9f7a4f68cfe7995e49829bb73950727008bca4",
    "verify_seed7_json": "c7019684fbf3641ce4c20843bcb27016abdcccc7329f287717f6d838d8d40f80",
}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_bytes(name, tmp_path, capsys):
    path = tmp_path / "out"
    assert main(CLI_CASES[name] + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CLI_SHA256[name]


def test_bifurcation_negative_zero_only_in_json(tmp_path):
    # below rho, beta_minus = -beta is -0.0: JSON keeps the sign, CSV folds it
    path = tmp_path / "out"
    assert main(BIFURCATION + ["--format", "json", "--out", str(path)]) == 0
    assert '"beta_minus_rad": -0.0,' in path.read_text()
    assert main(BIFURCATION + ["--format", "csv", "--out", str(path)]) == 0
    rows = path.read_text().splitlines()
    assert rows[1] == "0.5,0.0,0.0"
    assert all(cell != "-0.0" for row in rows for cell in row.split(","))


def _gammas(rng, n):
    out = [0.0, -0.0, 1.0, -1.0, 2.0, 1e150, -1e150, 1e-300, -1e-300]
    while len(out) < n:
        magnitude = 10.0 ** rng.uniform(-12.0, 150.0) if rng.random() < 0.3 else rng.uniform(0, 8)
        out.append(magnitude if rng.random() < 0.5 else -magnitude)
    return out


def _matrices(rng, n, max_exp=150.0):
    """GL+(2) matrices with entries in [-2, 2], a fifth scaled by up to 1e+-max_exp."""
    out = [Mat2(1.0, 0.0, 0.0, 1.0), Mat2(1.0, -0.0, -0.0, 1.0), Mat2(-1.0, 0.0, 0.0, -1.0),
           Mat2(3.0, 0.0, 0.0, 1.0), Mat2(1.0, 2.0, 0.0, 1.0)]
    while len(out) < n:
        e = [rng.uniform(-2.0, 2.0) for _ in range(4)]
        if e[0] * e[3] - e[1] * e[2] < 0.05:
            continue
        if rng.random() < 0.2:
            scale = 10.0 ** rng.uniform(-max_exp, max_exp)
            e = [scale * v for v in e]
        out.append(Mat2(*e))
    return out


def _weights(rng):
    mu = rng.uniform(0.2, 2.5)
    return Weights(mu, mu * rng.choice((0.0, rng.uniform(0.0, 0.9), rng.uniform(1.0, 3.0))))


def closed_form_reprs(n=2000, seed=20151015):
    """repr of the public closed forms on n seeded inputs per function."""
    rng = random.Random(seed)
    lines = []
    for gamma in _gammas(rng, n):
        lines.append(repr(shear_solution(gamma)))
    for f in _matrices(rng, n):
        w = _weights(rng)
        alpha = rng.choice((0.0, -0.0, math.pi, rng.uniform(-math.pi, math.pi)))
        lines.append(repr(trace_invariants(f)))
        lines.append(repr(polar_angle(f)))
        lines.append(repr(critical_energy_levels(f)))
        lines.append(repr(shear_stretch_energy(rotation(alpha), f, w)))
        lines.append(repr(optimal_set(f, w)))
        lines.append(repr(reduced_energy(f, w)))
        lines.append(repr(critical_set(f)))
    for _ in range(n):
        w = Weights(1.0, rng.choice((0.0, 0.25, 0.9)))
        rho = w.singular_radius()
        tr_u = rng.choice((rho, 0.5 * rho, 10.0 ** rng.uniform(-300.0, 300.0),
                           rng.uniform(0.0, 3.0) * rho))
        lines.append(repr(relative_rotation_magnitude(tr_u or 1.0, w)))
    return "\n".join(lines) + "\n"


CLOSED_FORM_SHA256 = "97cebf2791f536d4ba224eae1b00d9b153b3d26f12db3fc62fcd27978fd4655f"


def test_closed_form_results_bits():
    digest = hashlib.sha256(closed_form_reprs().encode()).hexdigest()
    assert digest == CLOSED_FORM_SHA256


def profile_lines(n=120, seed=15070548):
    """The grid profiles and their scalar energies on n seeded inputs, as text.

    Each matrix k gets one line per profile: its index, the profile's name,
    the SHA-256 of its values on a 4097-angle grid (float64 bytes), and its
    float hex at eight single angles, among them the polar angle plus pi,
    where the principal logarithm is undefined and log_strain_profile returns
    its sentinel. One line per angle follows with the shear-stretch and
    cofactor energies there, so two runs can be compared with diff.
    """
    rng = random.Random(seed)
    grid = np.linspace(-math.pi, math.pi, 4097)
    lines = []
    for k, f in enumerate(_matrices(rng, n, max_exp=100.0)):
        w = _weights(rng)
        alpha_p = polar_angle(f)
        angles = [0.0, -0.0, math.pi, alpha_p, alpha_p + math.pi,
                  *(rng.uniform(-math.pi, math.pi) for _ in range(3))]
        for name, profile in (("shear_stretch", shear_stretch_profile(f, w)),
                              ("cofactor", cofactor_shear_profile(f, w)),
                              ("log_strain", log_strain_profile(f, w)),
                              ("signed_defect", signed_defect_profile(f))):
            values = np.asarray(profile(grid), dtype=float).tobytes()
            lines.append(" ".join([str(k), name, hashlib.sha256(values).hexdigest(),
                                   *(float(profile(a)).hex() for a in angles)]))
        for a in angles:
            r = rotation(a)
            cofactor = shear_stretch_energy(r, cofactor_transform(f), w)
            lines.append(f"{k} energies {shear_stretch_energy(r, f, w).hex()} {cofactor.hex()}")
    return "\n".join(lines) + "\n"


PROFILE_SHA256 = "6116fb58b8320945812aaf7c75ffaed6d678958cab44eee81494c22861a3718a"


def test_profile_results_bits():
    assert hashlib.sha256(profile_lines().encode()).hexdigest() == PROFILE_SHA256


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


#: Every JSON case, plus one whose energy overflows to inf.
JSON_CASES = {name: argv for name, argv in CLI_CASES.items() if "json" in argv} | {
    "minimize_overflow_json": ["minimize", "--f", "3", "0", "0", "1", "--mu", "1e308",
                               "--muc", "0", "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(JSON_CASES))
def test_json_outputs_parse_strictly(name, tmp_path):
    path = tmp_path / "out"
    assert main(JSON_CASES[name] + ["--out", str(path)]) == 0
    json.loads(path.read_text(), parse_constant=_reject_constant)


def oracle_reprs(n=40, seed=14400):
    """repr of the oracle's own output on n seeded cases per grid size.

    Each case runs grid_minimize on the shear-stretch, cofactor and
    log-strain profiles at 720, 2048, 4096 and 20,000 angles, keeping the
    measured fields (minima, grid_n, angle_tol, refine_evaluations,
    clusters), and sign_change_scan on the signed defect profile at the
    same grid sizes. Odd cases are non-classical and kept 1e-3 away from
    the singular radius, even ones are general (F, w) pairs.
    """
    rng = np.random.default_rng(seed)
    lines = []
    for k in range(n):
        if k % 2:
            f, w = random_nonclassical_case(rng, bifurcation_gap=1e-3)
        else:
            f, w = random_gl_plus(rng), Weights(rng.uniform(0.1, 3.0), rng.uniform(0.0, 3.0))
        profiles = (shear_stretch_profile(f, w), cofactor_shear_profile(f, w),
                    log_strain_profile(f, w))
        for grid_n in (720, 2048, 4096, 20000):
            for profile in profiles:
                grid = grid_minimize(profile, grid_n, vectorized=True)
                lines.append(repr((grid.minima, grid.grid_n, grid.angle_tol,
                                   grid.refine_evaluations, grid.clusters)))
            lines.append(repr(sign_change_scan(signed_defect_profile(f), grid_n,
                                               vectorized=True)))
    return "\n".join(lines) + "\n"


#: Recorded before GridResult lost its plateau and value_tol fields.
ORACLE_SHA256 = "6875c494def09bbbf8899967cc0751fdfa65ac5a801acabf706bbb4ead80f04f"


def test_oracle_results_bits():
    assert hashlib.sha256(oracle_reprs().encode()).hexdigest() == ORACLE_SHA256
