"""File formats: trace CSV, field CSV/VTK, convergence and level reports.

All numeric output uses 17 significant digits so files round-trip through
double precision exactly.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .fields import BoundaryTrace, CoefficientField, Role
from .grid import Grid2D, Side
from .gradient import GradientSample
from .optimizer import LEVELS_HEADER, LOG_HEADER, LevelReport, LogRow


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_trace_csv(trace: BoundaryTrace, path: str | Path) -> None:
    """Rows ordered by time level, then side number, then node index."""
    times = trace.grid.times()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "side", "index", "value"])
        for n, t in enumerate(times):
            for side in trace.sides:
                row_t = _fmt(t)
                for k, v in enumerate(trace.data[side][n]):
                    writer.writerow([row_t, int(side), k, _fmt(v)])


def read_trace_csv(path: str | Path, grid: Grid2D) -> BoundaryTrace:
    """Read a trace file back onto a grid, validating its time levels and
    counts against it."""
    per_side: dict[Side, dict[tuple[int, int], float]] = {}
    times_seen: set[float] = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["t", "side", "index", "value"]:
            raise ValueError(f"{path}: unexpected trace header {header}")
        for t_s, side_s, k_s, v_s in reader:
            t = float(t_s)
            side = Side(int(side_s))
            times_seen.add(t)
            per_side.setdefault(side, {})[(round(t / grid.dt), int(k_s))] = float(v_s)
    if len(times_seen) != grid.nt + 1:
        raise ValueError(
            f"{path}: {len(times_seen)} time levels, grid expects {grid.nt + 1}"
        )
    times = grid.times()
    for t in times_seen:
        n = round(t / grid.dt)
        if not (0 <= n <= grid.nt and abs(t - times[n]) <= 1e-8 * grid.dt):
            raise ValueError(f"{path}: time {t!r} is not a time level of the grid "
                             f"(dt = {grid.dt!r})")
    data = {}
    for side, entries in per_side.items():
        arr = np.empty((grid.nt + 1, grid.side_node_count(side)))
        if len(entries) != arr.size:
            raise ValueError(f"{path}: side {side.name} has {len(entries)} entries, "
                             f"expected {arr.size}")
        for (n, k), v in entries.items():
            arr[n, k] = v
        data[side] = arr
    return BoundaryTrace(grid=grid, sides=tuple(per_side), data=data)


def write_field_csv(field: CoefficientField | np.ndarray, grid: Grid2D, path: str | Path) -> None:
    values = field.values if isinstance(field, CoefficientField) else field
    xs, ys = grid.xs(), grid.ys()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "value"])
        for i in range(grid.nx + 1):
            for j in range(grid.ny + 1):
                writer.writerow([_fmt(xs[i]), _fmt(ys[j]), _fmt(values[i, j])])


def read_field_csv(path: str | Path, grid: Grid2D, role: Role) -> CoefficientField:
    values = np.full(grid.node_shape, np.nan)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["x", "y", "value"]:
            raise ValueError(f"{path}: unexpected field header {header}")
        for x_s, y_s, v_s in reader:
            i = round((float(x_s) - grid.origin[0]) / grid.h)
            j = round((float(y_s) - grid.origin[1]) / grid.h)
            if not (0 <= i <= grid.nx and 0 <= j <= grid.ny):
                raise ValueError(f"{path}: node ({x_s}, {y_s}) is off the grid")
            values[i, j] = float(v_s)
    if np.isnan(values).any():
        raise ValueError(f"{path}: field file does not cover every grid node")
    return CoefficientField(grid=grid, values=values, role=role)


def write_field_vtk(
    field: CoefficientField | np.ndarray,
    grid: Grid2D,
    path: str | Path,
    name: str = "value",
) -> None:
    """Legacy ASCII STRUCTURED_POINTS file with a single nodal scalar."""
    values = field.values if isinstance(field, CoefficientField) else field
    lines = [
        "# vtk DataFile Version 3.0",
        name,
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {grid.nx + 1} {grid.ny + 1} 1",
        f"ORIGIN {_fmt(grid.origin[0])} {_fmt(grid.origin[1])} 0",
        f"SPACING {_fmt(grid.h)} {_fmt(grid.h)} 1",
        f"POINT_DATA {grid.n_nodes}",
        f"SCALARS {name} double 1",
        "LOOKUP_TABLE default",
    ]
    # VTK structured points expect x varying fastest
    for j in range(grid.ny + 1):
        for i in range(grid.nx + 1):
            lines.append(_fmt(values[i, j]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_convergence_csv(log: list[LogRow], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(LOG_HEADER + "\n")
        writer = csv.writer(fh)
        for row in log:
            vals = row.values()
            writer.writerow([str(int(vals[0]))] + [_fmt(v) for v in vals[1:]])


def write_levels_csv(levels: list[LevelReport], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(LEVELS_HEADER + "\n")
        writer = csv.writer(fh)
        for lv in levels:
            vals = lv.values()
            writer.writerow(
                [str(int(vals[0])), str(int(vals[1]))]
                + [_fmt(v) for v in vals[2:6]]
                + [str(int(vals[6]))]
            )


def write_gradcheck_csv(
    rows: list[tuple[GradientSample, float, float]],
    grid: Grid2D,
    path: str | Path,
) -> None:
    """Rows pair each oracle sample with the adjoint value and relative error."""
    with open(path, "w", newline="") as fh:
        fh.write("node_x,node_y,which,adjoint_value,fd_value,rel_err\n")
        writer = csv.writer(fh)
        xs, ys = grid.xs(), grid.ys()
        for sample, adjoint_value, rel_err in rows:
            i, j = sample.node
            writer.writerow([
                _fmt(xs[i]), _fmt(ys[j]),
                "eps" if sample.role is Role.EPSILON else "sigma",
                _fmt(adjoint_value), _fmt(sample.value), _fmt(rel_err),
            ])
