"""Spans around the program's public entry points, recorded from outside it.

Each wrapper replaces a function where its caller binds it (for example
``waveinv.optimizer.solve_forward``), so nothing under ``src/`` changes.  A
span holds its name, layer, start, end and the id of the enclosing span.
Spans stay in memory; the worker writes them out when the run ends.

A layer's self time is the total duration of its spans minus the time
covered by their child spans, so the self times of all layers plus the
root ``cli`` span add up to the traced wall time.  SELF_TIME names the
metric that carries each layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

# layer -> entry points, by the name their callers bind them under
LAYERS = {
    "forward": ("solve_forward",),
    "adjoint": ("solve_adjoint",),
    "gradient": ("assemble_gradients",),
    "objective": (
        "tikhonov", "field_dot", "field_norm", "spacetime_dot", "spacetime_norm",
        "trace_dot", "trace_norm_sq", "error_metrics",
    ),
    "fields": ("extract_trace", "project", "add_noise", "transfer_to_refined"),
    "optimizer": ("run_acga", "run_cga", "init_state", "cg_step"),
    "grid": ("refine", "region_mask"),
    "io": (
        "read_trace_csv", "write_trace_csv", "write_field_csv", "write_field_vtk",
        "write_convergence_csv", "write_levels_csv",
    ),
    "config": ("load_config", "write_manifest"),
}
LAYER_OF = {name: layer for layer, names in LAYERS.items() for name in names}
CALLERS = ("waveinv.cli", "waveinv.optimizer", "waveinv.gradient")
# Layer -> the metric that is its self time.  forward and adjoint spans have
# no children, and the config and objective metrics sum over every span of
# the layer, so these layers need no separate <layer>.self_s.
SELF_TIME = {
    "cli": "cli.self_s",
    "forward": "forward.solve_s",
    "adjoint": "adjoint.solve_s",
    "gradient": "gradient.self_s",
    "objective": "objective.s",
    "fields": "fields.self_s",
    "optimizer": "optimizer.self_s",
    "grid": "grid.self_s",
    "io": "io.self_s",
    "config": "config.s",
}
GRID_SIZES = (50, 100, 200)
ITERATION_SPANS = ("init_state", "cg_step")
# Metrics derived from array shapes or file sizes rather than timed.
COMPUTED = (
    "forward.node_steps_per_solve", "forward.stack_mb", "io.bytes_written",
    "io.bytes_read", "io.trace_rows",
)


def stack_bytes(grid) -> int:
    """Bytes of one float64 snapshot stack on a grid (computed)."""
    return (grid.nt + 1) * (grid.nx + 1) * (grid.ny + 1) * 8


def _grid_arg(args):
    return next((a for a in args if hasattr(a, "nt") and hasattr(a, "nx")), None)


def _problem_arg(args, kwargs):
    problem = kwargs.get("problem")
    if problem is None:
        problem = next((a for a in args if hasattr(a, "obs") and hasattr(a, "grid")), None)
    return problem


def _trace_rows(trace) -> int:
    return int(sum(arr.size for arr in trace.data.values()))


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory.

    With memory=True it also reports, for every outermost init_state or
    cg_step span, the peak bytes traced by tracemalloc during that span.
    The caller starts and stops tracemalloc around the command.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, layer: str):
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1]["id"] if self._open else None,
            "name": name,
            "layer": layer,
            "start": time.perf_counter() - self._t0,
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._open.pop()

    def _outermost_iteration(self) -> bool:
        return not any(s["name"] in ITERATION_SPANS for s in self._open)

    def _wrap(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            measure = (
                tracer.memory and name in ITERATION_SPANS and tracer._outermost_iteration()
            )
            with tracer.span(name, layer) as rec:
                if measure:
                    tracemalloc.reset_peak()
                result = fn(*args, **kwargs)
                if measure:
                    rec["peak_bytes"] = tracemalloc.get_traced_memory()[1]
            tracer._annotate(rec, name, args, kwargs, result)
            return result

        return wrapper

    def _annotate(self, rec: dict, name: str, args, kwargs, result) -> None:
        if name in ("solve_forward", "solve_adjoint"):
            grid = _grid_arg(args)
            if grid is not None:
                rec.update(nx=grid.nx, nt=grid.nt, nodes=(grid.nx + 1) * (grid.ny + 1),
                           stack_bytes=stack_bytes(grid))
        elif name in ITERATION_SPANS:
            problem = _problem_arg(args, kwargs)
            if problem is not None:
                rec["stack_bytes"] = stack_bytes(problem.grid)
            if name == "cg_step":
                # the step taken now used the alphas of the incoming state
                state = args[0] if args else kwargs.get("state")
                alpha_max = getattr(problem, "alpha_max", None)
                rec["backtracks"] = int(getattr(result, "backtracks", 0))
                rec["restarted"] = bool(getattr(result, "restarted", False))
                rec["clamped"] = alpha_max is not None and (
                    abs(state.alpha_eps) >= alpha_max or abs(state.alpha_sigma) >= alpha_max
                )
        elif LAYER_OF.get(name) == "io":
            paths = (a for a in args if isinstance(a, (str, os.PathLike)))
            path = kwargs.get("path", next(paths, None))
            if path is not None and os.path.exists(path):
                rec["bytes"] = os.path.getsize(path)
            if name == "write_trace_csv":
                rec["rows"] = _trace_rows(args[0])
            elif name == "read_trace_csv":
                rec["rows"] = _trace_rows(result)

    def _install(self) -> None:
        for modname in CALLERS:
            module = importlib.import_module(modname)
            for name, layer in LAYER_OF.items():
                fn = getattr(module, name, None)
                if callable(fn):
                    self._patch(module, name, self._wrap(fn, name, layer))

    def _patch(self, module, name: str, wrapper) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def _uninstall(self) -> None:
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    @contextmanager
    def installed(self):
        """Wrap the entry points for the duration of a with-block."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()


def _duration(s: dict) -> float:
    return s["end"] - s["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    own = {s["id"]: _duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= _duration(s)
    return own


def layer_metrics(spans: list[dict], memory_spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced command (spans) and of its memory
    pass (memory_spans, which may be empty)."""
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def spans_of(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def total(*names):
        return float(sum(_duration(s) for s in spans_of(*names)))

    def self_total(*names):
        return float(sum(own[s["id"]] for s in spans_of(*names)))

    def ratio(num, den):
        return float(num / den) if den else 0.0

    m: dict[str, float] = {}
    for layer, metric in SELF_TIME.items():
        m[metric] = float(sum(own[s["id"]] for s in spans if s["layer"] == layer))
    roots = [s for s in spans if s["parent"] is None]
    m["traced_wall_s"] = float(sum(_duration(s) for s in roots))

    fwd = spans_of("solve_forward")
    steps = sum(s.get("nt", 0) for s in fwd)
    node_steps = [s.get("nt", 0) * s.get("nodes", 0) for s in fwd]
    m["forward.calls"] = len(fwd)
    m["forward.us_per_step"] = ratio(1e6 * m["forward.solve_s"], steps)
    for n in GRID_SIZES:
        at_n = [(s, ns) for s, ns in zip(fwd, node_steps) if s.get("nx") == n]
        m[f"forward.ns_per_node_step.n{n}"] = ratio(
            1e9 * sum(_duration(s) for s, _ in at_n), sum(ns for _, ns in at_n)
        )
    m["forward.node_steps_per_solve"] = ratio(sum(node_steps), len(fwd))
    m["forward.stack_mb"] = max((s.get("stack_bytes", 0) for s in fwd), default=0) / 1e6

    adj = spans_of("solve_adjoint")
    m["adjoint.calls"] = len(adj)
    m["adjoint.us_per_step"] = ratio(
        1e6 * m["adjoint.solve_s"], sum(s.get("nt", 0) for s in adj)
    )

    m["gradient.calls"] = len(spans_of("assemble_gradients"))
    m["gradient.assemble_s"] = total("assemble_gradients")

    m["objective.calls"] = len(spans_of(*LAYERS["objective"]))

    m["fields.extract_trace_s"] = self_total("extract_trace")
    m["fields.project_s"] = self_total("project")
    m["fields.add_noise_s"] = self_total("add_noise")
    m["fields.transfer_s"] = self_total("transfer_to_refined")

    steps_cg = spans_of("cg_step")
    iterations = len(steps_cg)
    backtracks = sum(s.get("backtracks", 0) for s in steps_cg)
    cg_ids = {s["id"] for s in steps_cg}
    durations = [_duration(s) for s in steps_cg]
    m["optimizer.iterations"] = iterations
    m["optimizer.cg_step_s_p50"] = float(np.percentile(durations, 50)) if durations else 0.0
    m["optimizer.cg_step_s_p90"] = float(np.percentile(durations, 90)) if durations else 0.0
    m["optimizer.cg_step_self_s"] = self_total("cg_step")
    m["optimizer.init_state_s"] = total("init_state")
    m["optimizer.backtracks"] = backtracks
    m["optimizer.restarts"] = sum(1 for s in steps_cg if s.get("restarted"))
    m["optimizer.accept_ratio"] = ratio(iterations, iterations + backtracks)
    m["optimizer.forward_per_iter"] = ratio(
        sum(1 for s in fwd if s["parent"] in cg_ids), iterations
    )
    m["optimizer.clamped_steps"] = sum(1 for s in steps_cg if s.get("clamped"))
    m["optimizer.peak_stacks"] = max(
        (s["peak_bytes"] / s["stack_bytes"] for s in memory_spans
         if "peak_bytes" in s and s.get("stack_bytes")),
        default=0.0,
    )

    m["grid.refine_s"] = self_total("refine")

    io_write = [s for s in spans if s["layer"] == "io" and s["name"].startswith("write_")]
    io_read = spans_of("read_trace_csv")
    m["io.write_trace_s"] = self_total("write_trace_csv")
    m["io.read_trace_s"] = self_total("read_trace_csv")
    m["io.write_fields_s"] = self_total("write_field_csv", "write_field_vtk")
    m["io.bytes_written"] = sum(s.get("bytes", 0) for s in io_write)
    m["io.bytes_read"] = sum(s.get("bytes", 0) for s in io_read)
    m["io.trace_rows"] = sum(s.get("rows", 0) for s in spans_of("write_trace_csv", "read_trace_csv"))
    return m

