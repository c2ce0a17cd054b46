"""The Python calls one pointwise query makes inside the package, pinned.

A pointwise query (build Mat2 and Weights, then optimal_set, reduced_energy,
critical_set and, for a simple shear, shear_solution) is what an FE code asks
once per Gauss point, and the `pointwise` benchmark times it. Each step's count
of sys.setprofile "call" events into cosserat2d is pinned per kind of query,
so a change that adds calls re-pins them on purpose. Each query must also reach
every public function that the traced benchmark reads by name: a query that
stops reaching one fails here, naming it, instead of in a traced run.
"""

import sys
from pathlib import Path

import pytest

import cosserat2d as c2d

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = str(Path(c2d.__file__).resolve().parent)

# (e11, e12, e21, e22, mu, muc, gamma), as the benchmark stores a query
QUERIES = {
    "classical": (3.0, 0.5, -0.2, 1.0, 1.0, 1.5, None),
    "below": (1.1, 0.2, -0.1, 0.9, 1.0, 0.2, None),  # tr U below the singular radius
    "pitchfork": (3.0, 0.5, -0.2, 1.0, 1.0, 0.2, None),
    "shear": (1.0, 1.5, 0.0, 1.0, 0.7, 0.0, 1.5),
}

BUDGET = {
    "classical": {"Mat2": 1, "Weights": 1, "optimal_set": 16, "reduced_energy": 2,
                  "critical_set": 12, "shear_solution": 0},
    "below": {"Mat2": 1, "Weights": 1, "optimal_set": 17, "reduced_energy": 8,
              "critical_set": 12, "shear_solution": 0},
    "pitchfork": {"Mat2": 1, "Weights": 1, "optimal_set": 19, "reduced_energy": 10,
                  "critical_set": 12, "shear_solution": 0},
    "shear": {"Mat2": 1, "Weights": 1, "optimal_set": 19, "reduced_energy": 10,
              "critical_set": 12, "shear_solution": 9},
}


def _package_calls(call, *args):
    """(result, number of Python calls into the package made by call(*args))."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1

    sys.setprofile(profile)
    try:
        result = call(*args)
    finally:
        sys.setprofile(None)
    return result, calls


def _query_calls(query) -> dict:
    e11, e12, e21, e22, mu, muc, gamma = query
    f, mat2 = _package_calls(c2d.Mat2, e11, e12, e21, e22)
    w, weights = _package_calls(c2d.Weights, mu, muc)
    counts = {"Mat2": mat2, "Weights": weights}
    for name, args in (("optimal_set", (f, w)), ("reduced_energy", (f, w)),
                       ("critical_set", (f,))):
        counts[name] = _package_calls(getattr(c2d, name), *args)[1]
    counts["shear_solution"] = (
        0 if gamma is None else _package_calls(c2d.shear_solution, gamma)[1])
    return counts


@pytest.mark.parametrize("kind", QUERIES)
def test_calls_per_query_are_pinned(kind):
    assert _query_calls(QUERIES[kind]) == BUDGET[kind]


@pytest.fixture
def pointwise():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import tracer
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return tracer.Tracer, workloads.Pointwise()


@pytest.mark.parametrize("kind", QUERIES)
def test_query_reaches_every_traced_name(kind, pointwise):
    make_tracer, workload = pointwise
    workload.queries = [QUERIES[kind]]
    tracer = make_tracer()
    tracer.install()
    workload.instrument(tracer)
    try:
        workload.op(0)
    finally:
        workload.instrument(None)
        tracer.uninstall()
    try:
        metrics = workload.layer_metrics(tracer.table(), tracer.counters, 1, None)
    except KeyError as exc:
        pytest.fail(f"a {kind} query no longer calls {exc}, which the traced run reads")
    assert metrics
