"""In-memory span tracer around the public functions of the perdiff layers.

The tracer replaces each public function of a layer module with a wrapper
in every ``perdiff`` namespace that binds it, so a call is seen however the
consuming module imported it (``perdiff.reduction.mp_solve`` and
``perdiff.linear.mp_solve`` are the same wrapper). Nothing in the package
itself changes; the originals are put back when the context ends.

Each call becomes a span: name, start, end and the id of the enclosing
span. The benchmark opens one root span per operation, so every span of an
operation leads back to it. Spans live in compact arrays while the run is
going and are written out once, after it.
"""

from __future__ import annotations

import inspect
import math
import statistics
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("expr", "mat2", "linear", "reduction", "oracle", "hypotheses", "cli")


def _evaluate_points(node, t, x) -> int:
    # expr.evaluate(node, t, x) evaluates g on the broadcast of t and x
    return math.prod(np.broadcast_shapes(np.shape(t), np.shape(x)))


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.points = 0
        self.errors: Counter = Counter()     # (layer, exception class) -> count
        self._raised: dict[int, BaseException] = {}

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def _raised_from(self, layer: str, exc: BaseException) -> None:
        # an exception counts once, for the innermost layer it left
        if id(exc) not in self._raised:
            self._raised[id(exc)] = exc
            self.errors[(layer, type(exc).__name__)] += 1

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        layer = name.split(".", 1)[0]
        count_points = name == "expr.evaluate"

        def traced(*args, **kwargs):
            if count_points:
                self.points += _evaluate_points(*args, **kwargs)
            sid = self._open(nid)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._raised_from(layer, exc)
                raise
            finally:
                self._close(sid)

        traced.__wrapped__ = fn
        return traced

    def operation(self, name: str):
        """Root span of one benchmark operation."""
        return _Root(self, self._name_id(name))

    def summary(self) -> dict:
        """Calls, busy time and self time per span name, self time per layer."""
        names, parents, start, end = self._arrays()
        n = len(names)
        dur = end - start
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        busy = np.bincount(names, weights=dur, minlength=k)
        self_by_name = np.bincount(names, weights=own, minlength=k)
        layer_self: dict[str, float] = {}
        for i, nm in enumerate(self.names):
            layer = nm.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + float(self_by_name[i])
        return {
            "spans": n,
            "calls": {nm: int(calls[i]) for i, nm in enumerate(self.names)},
            "busy_s": {nm: float(busy[i]) for i, nm in enumerate(self.names)},
            "layer_self_s": layer_self,
            "points": self.points,
            "errors": {f"{layer}.{cls}": c for (layer, cls), c in sorted(self.errors.items())},
        }

    def save(self, path) -> None:
        """Write every span (name id, parent id, start, end) and the name table."""
        name, parent, start, end = self._arrays()
        np.savez_compressed(path, names=np.array(self.names, dtype=str), name=name,
                            parent=parent, start=start, end=end)

    def _arrays(self):
        return (np.asarray(self.name, dtype=np.int32), np.asarray(self.parent, dtype=np.int32),
                np.asarray(self.start, dtype=np.float64), np.asarray(self.end, dtype=np.float64))


class _Root:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.sid = self.tracer._open(self.nid)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer._close(self.sid)
        self.tracer._raised.clear()
        return False


def public_functions(module) -> dict:
    """Functions a layer module defines under a public name."""
    return {
        name: obj for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


class installed:
    """Context in which every public layer function is traced by `tracer`."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._restore: list[tuple] = []

    def __enter__(self):
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"perdiff.{layer}"]
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self.tracer.wrap(f"{layer}.{name}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "perdiff" and not modname.startswith("perdiff."):
                continue
            for attr, val in list(vars(module).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, val))
        return self.tracer

    def __exit__(self, exc_type, exc, tb):
        for module, attr, val in self._restore:
            setattr(module, attr, val)
        self._restore.clear()
        return False


# -- per-layer metrics of a traced run ----------------------------------------

CALLS = ("expr.evaluate", "linear.mp_solve", "linear.build_linear_data", "mat2.svals2",
         "reduction.bifurcation_value", "oracle.newton_solve", "oracle.residual",
         "hypotheses.membership_U")
BUSY = ("expr.evaluate", "linear.mp_solve", "linear.proj_Q", "linear.build_linear_data",
        "linear.norm_bound_mp_iq", "mat2.svals2", "reduction.bifurcation_value",
        "oracle.newton_solve", "cli.main")
CHECKS = ("hypotheses.check_thm1", "hypotheses.check_thm2", "hypotheses.check_corollary")
# SolveReport.iterations keys, summed over the solves that returned a report
ITERATIONS = {"reduction.inner_iters": "inner_fixed_point",
              "reduction.bisection_steps": "bisection",
              "reduction.newton_steps": "newton",
              "reduction.picard_steps": "picard"}
ERROR_CLASSES = ("expr.DomainError", "linear.NotInImageError", "reduction.ConvergenceError",
                 "reduction.SolverError", "reduction.NoSignChangeError")


def _self_name(layer: str) -> str:
    # all reduction work in these workloads runs under reduction.solve
    return "reduction.solve.self_s" if layer == "reduction" else f"{layer}.self_s"


PER_LAYER_UNITS = {
    **{f"{n}.calls": "count" for n in CALLS},
    "expr.evaluate.points": "count",
    **{name: "count" for name in ITERATIONS},
    **{f"{layer}.errors": "count" for layer in LAYERS},
    **{"{}.errors.{}".format(*cls.split(".")): "count" for cls in ERROR_CLASSES},
    "reduction.errors_untyped": "count",
    "fail_ratio": "ratio",
    "trace.spans": "count",
    **{f"{n}.busy_s": "s" for n in BUSY},
    "hypotheses.check.busy_s": "s",
    **{_self_name(layer): "s" for layer in LAYERS},
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}


def exact_counts(summary: dict, records: list[dict]) -> dict:
    """The machine-independent metrics of one traced pass."""
    out = {f"{n}.calls": summary["calls"].get(n, 0) for n in CALLS}
    out["expr.evaluate.points"] = summary["points"]
    for name, key in ITERATIONS.items():
        out[name] = sum(r.get("iterations", {}).get(key, 0) for r in records)
    errors = summary["errors"]
    for layer in LAYERS:
        out[f"{layer}.errors"] = sum(c for k, c in errors.items() if k.split(".")[0] == layer)
    for cls in ERROR_CLASSES:
        out["{}.errors.{}".format(*cls.split("."))] = errors.get(cls, 0)
    # anything but SolverError or DomainError escaping a solve
    out["reduction.errors_untyped"] = sum(
        r["kind"] == "solve" and r["status"] == "error" and not r["typed"] for r in records)
    out["fail_ratio"] = sum(r["status"] != "ok" for r in records) / len(records)
    out["trace.spans"] = summary["spans"]
    return out


def _times(summary: dict) -> dict:
    busy = summary["busy_s"]
    out = {f"{n}.busy_s": busy.get(n, 0.0) for n in BUSY}
    out["hypotheses.check.busy_s"] = sum(busy.get(n, 0.0) for n in CHECKS)
    for layer in LAYERS:
        out[_self_name(layer)] = summary["layer_self_s"].get(layer, 0.0)
    return out


def per_layer(passes: list[dict], import_samples: list[float]) -> dict:
    """Per-layer metrics from (untraced, traced) pass pairs over the same inputs.

    Counts come from the first traced pass, times are medians over all.
    """
    out = exact_counts(passes[0]["summary"], passes[0]["traced"])
    times = [_times(p["summary"]) for p in passes]
    for name in times[0]:
        out[name] = statistics.median(t[name] for t in times)
    out["cli.import_s"] = statistics.median(import_samples)
    # at the reference host speed, like the end-to-end times: the host's
    # speed drifts by more than the tracing costs between two passes
    out["trace.overhead_s"] = statistics.median(
        sum(r["wall_s"] * r["host_factor"] for r in p["traced"])
        - sum(r["wall_s"] * r["host_factor"] for r in p["untraced"])
        for p in passes)
    return {name: out[name] for name in PER_LAYER_UNITS}


def counts_repeat(passes: list[dict]) -> bool:
    """Do all traced passes over the same inputs give the same exact counts?"""
    first = exact_counts(passes[0]["summary"], passes[0]["traced"])
    return all(exact_counts(p["summary"], p["traced"]) == first for p in passes[1:])
