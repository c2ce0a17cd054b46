"""The CLI on any double the user can type, run in-process.

Every value is drawn from the full double range, signed zeros, infinities
and NaN included, and passed as repr writes it. Whatever the value, a
command exits 0, 2 (invalid input) or 3 (certification failure); a
nonzero exit writes one line to stderr, which starts with "error:" and
names no Python exception class; and the output, when there is any, is
strict JSON. Sweeps are kept to 1,000 rows so the suite stays fast; the
examples are derandomized, so every run draws the same ones.
"""

import builtins
import contextlib
import io
import json
import re

from hypothesis import assume, given, settings, strategies as st

from cosserat2d import errors
from cosserat2d.cli import MAX_ROWS, main
from record_checks import reject_constant

#: Any double, or one of the moderate nonnegative values most inputs need to be valid.
DOUBLES = (st.floats() | st.floats(min_value=0.0, max_value=4.0)).map(repr)

FUZZ = settings(max_examples=300, derandomize=True, deadline=None)

#: A traceback, an errno tuple, or the name of a built-in or package exception class.
PYTHON_TEXT = re.compile(r"Traceback|\(\d+, '|\b(%s)\b" % "|".join(
    name for module in (builtins, errors) for name, value in vars(module).items()
    if isinstance(value, type) and issubclass(value, BaseException)))


def _check(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--format", "json"])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (argv, code, err)
    if code == 2:
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert not PYTHON_TEXT.search(err), (argv, err)
        return
    assert err == "", (argv, err)
    json.loads(out, parse_constant=reject_constant)


def _few_rows(start, end, step):
    # the sweep has at most 1,000 rows (a span of 999 steps), or is refused
    # before any row is computed
    span = (float(end) - float(start)) / float(step) if float(step) else float("inf")
    return not 999.0 < span <= MAX_ROWS


@st.composite
def _single_matrix(draw):
    command = draw(st.sampled_from(["minimize", "certify", "critical", "energy-levels"]))
    argv = ["minimize" if command == "certify" else command,
            "--f", *(draw(DOUBLES) for _ in range(4))]
    if command in ("minimize", "certify"):
        argv += ["--mu", draw(DOUBLES), "--muc", draw(DOUBLES)]
    if command == "certify":
        argv += ["--certify", "--grid-n", "360"]
    return argv


@st.composite
def _table(draw):
    start, end, step = (draw(DOUBLES) for _ in range(3))
    if draw(st.booleans()):  # an end a whole number of steps on, which may round
        end = repr(float(start) + draw(st.integers(0, 999)) * float(step))
    assume(_few_rows(start, end, step))
    if draw(st.booleans()):
        return ["sweep-shear", "--gamma-start", start, "--gamma-end", end, "--gamma-step", step]
    return ["bifurcation", "--tru-start", start, "--tru-end", end, "--tru-step", step,
            "--mu", draw(DOUBLES), "--muc", draw(DOUBLES)]


@FUZZ
@given(_single_matrix())
def test_single_matrix_commands(argv):
    _check(argv)


@FUZZ
@given(_table())
def test_tables(argv):
    _check(argv)
