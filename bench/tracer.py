"""Span tracer installed from outside the cosserat2d package.

Tracer.install wraps every public function of each layer module and puts
the wrapper into every namespace that binds the original, so calls made
through `from .planar import trace_invariants` are traced too. The energy
callables handed to grid_minimize and sign_change_scan are wrapped as
well: a call with an array of angles is grid evaluation, a call with one
angle is refinement (or bisection, for the scan).

A span is (id, parent id, name, thread, start ns, end ns). Per-name call
counts, total time and self time are accumulated as spans close; self time
is a span's duration minus the part of it covered by its child spans,
where a child covers its wrapper's bookkeeping too, so self times exclude
the tracer's own cost. The raw spans are kept in memory up to a cap and
written out after the run. A span opened on a thread with nothing open (a
pool worker) takes as parent the innermost open span of the thread that
installed the tracer, and overlapping children from several threads count
once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

LAYERS = (
    "planar", "weights", "energy", "minimizers", "shear", "bruteforce", "selfcheck", "cli",
)

# Callback span names, by the oracle that calls them.
GRID_VECTOR, GRID_SCALAR = "energy.profile_vector", "energy.profile_scalar"
SCAN_VECTOR, SCAN_SCALAR = "scan.profile_vector", "scan.profile_scalar"


def _covered(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    def __init__(self, dump_limit: int = 0):
        self.dump_limit = dump_limit
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {}
        self.originals: dict[str, object] = {}
        self._local = threading.local()
        self._thread_stats: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._root_stack: list = []
        self._patches: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], {})
            with self._lock:
                self._thread_stats.append(state[1])
            self._local.state = state
        return state

    def wrap(self, name: str, fn):
        """Return fn wrapped in a span called name."""
        clock = time.perf_counter_ns
        ids = self._ids
        spans = self.spans
        limit = self.dump_limit
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = clock()
            stack, stats = self._state()
            if stack:
                parent, cross = stack[-1], False
            else:
                root = self._root_stack
                parent = root[-1] if root else None
                cross = parent is not None
            rec = [next(ids), 0, []]
            stack.append(rec)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                child = rec[1] + (_covered(rec[2]) if rec[2] else 0)
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - child
                if len(spans) < limit:
                    spans.append(
                        (rec[0], parent[0] if parent else 0, name, get_ident(), start, end)
                    )
                # the parent is charged for this wrapper's bookkeeping too, so
                # its self time excludes the tracer's own cost
                if parent is not None:
                    if cross:
                        parent[2].append((enter, clock()))
                    else:
                        parent[1] += clock() - enter

        return traced

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _callback(self, fn, vector_name: str, scalar_name: str):
        vector = self.wrap(vector_name, fn)
        scalar = self.wrap(scalar_name, fn)

        def dispatch(alpha):
            if isinstance(alpha, float):
                return scalar(alpha)
            self.count(vector_name + ".points", len(alpha))
            return vector(alpha)

        return dispatch

    def _oracle(self, fn, vector_name: str, scalar_name: str, count_minima: bool):
        @functools.wraps(fn)
        def oracle(energy, *args, **kwargs):
            result = fn(self._callback(energy, vector_name, scalar_name), *args, **kwargs)
            if count_minima:
                self.count("bruteforce.minima", len(result.minima))
            return result

        return oracle

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer, in every namespace."""
        self._root_stack = self._state()[0]
        modules = [importlib.import_module(f"cosserat2d.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                inner = obj
                if name == "bruteforce.grid_minimize":
                    inner = self._oracle(obj, GRID_VECTOR, GRID_SCALAR, True)
                elif name == "bruteforce.sign_change_scan":
                    inner = self._oracle(obj, SCAN_VECTOR, SCAN_SCALAR, False)
                self.originals[name] = obj
                wrappers[id(obj)] = (obj, self.wrap(name, inner))
        namespaces = [m for n, m in sys.modules.items()
                      if n == "cosserat2d" or n.startswith("cosserat2d.")]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(namespace, attr, hit[1])
                    self._patches.append((namespace, attr, obj))

    def uninstall(self) -> None:
        for namespace, attr, obj in reversed(self._patches):
            setattr(namespace, attr, obj)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def table(self) -> dict[str, tuple[int, int, int]]:
        """name -> (calls, total ns, self ns), merged over threads."""
        merged: dict[str, list[int]] = {}
        with self._lock:
            for stats in self._thread_stats:
                for name, (calls, total, self_ns) in stats.items():
                    acc = merged.setdefault(name, [0, 0, 0])
                    acc[0] += calls
                    acc[1] += total
                    acc[2] += self_ns
        return {name: tuple(v) for name, v in merged.items()}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, thread, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "thread": thread, "start_ns": start, "end_ns": end,
                }) + "\n")
