"""File formats: trace CSV, field CSV/VTK, convergence and level reports.

Every CSV line, the header included, ends with "\\r\\n"; numbers carry 17
significant digits so files round-trip through double precision exactly.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .fields import BoundaryTrace, CoefficientField, Role
from .grid import Grid2D, Side
from .gradient import GradientSample
from .optimizer import LEVELS_HEADER, LOG_HEADER, LevelReport, LogRow

EOL = "\r\n"
TRACE_HEADER = "t,side,index,value"
FIELD_HEADER = "x,y,value"
_BLOCK = 1024  # rows formatted per write, so no table is ever held whole as text


def _cells(column: Sequence) -> list[str]:
    """Floats with 17 significant digits, ints and strings with str."""
    return [format(v, ".17g") if isinstance(v, float) else str(v)
            for v in np.asarray(column).tolist()]


def _write_csv(path: str | Path, header: str, *columns: Sequence) -> None:
    """The header, then one line per row of the equally long columns."""
    with open(path, "w", newline="") as fh:
        fh.write(header + EOL)
        for start in range(0, len(columns[0]) if columns else 0, _BLOCK):
            rows = zip(*(_cells(c[start:start + _BLOCK]) for c in columns))
            fh.write("".join([",".join(row) + EOL for row in rows]))


def _read_csv(path: str | Path, header: str) -> np.ndarray:
    """The rows below the header line as a 2-D array of finite floats."""
    with open(path, newline="") as fh:
        found, first = fh.readline().rstrip("\r\n"), fh.readline()
        if found != header:
            raise ValueError(f"{path}: unexpected header {found!r}, expected {header!r}")
        if not first.strip():
            raise ValueError(f"{path}: no rows below the header")
        table = np.loadtxt(chain([first], fh), delimiter=",", comments=None, ndmin=2)
    bad = ~np.isfinite(table).all(axis=1)
    if bad.any():
        raise ValueError(f"{path}: non-finite value in data row {np.argmax(bad) + 1}")
    return table


def write_trace_csv(trace: BoundaryTrace, path: str | Path) -> None:
    """Rows ordered by time level, then side number, then node index,
    formatted one time level at a time."""
    keys = [f",{int(s)},{k}," for s in trace.sides for k in range(trace.data[s].shape[1])]
    with open(path, "w", newline="") as fh:
        fh.write(TRACE_HEADER + EOL)
        for n, t in enumerate(_cells(trace.grid.times())):
            values = _cells(np.concatenate([trace.data[s][n] for s in trace.sides]))
            fh.write("".join([f"{t}{key}{v}{EOL}" for key, v in zip(keys, values)]))


def read_trace_csv(path: str | Path, grid: Grid2D) -> BoundaryTrace:
    """Read a trace file back onto a grid, validating its time levels, sides
    and node indices against it; each (time, side, index) appears once."""
    t, side_col, k_col, values = _read_csv(path, TRACE_HEADER).T
    n_levels = np.unique(t).size
    if n_levels != grid.nt + 1:
        raise ValueError(f"{path}: {n_levels} time levels, grid expects {grid.nt + 1}")
    n = np.clip(np.rint(t / grid.dt), 0, grid.nt).astype(int)
    off = np.abs(t - grid.times()[n]) > 1e-8 * grid.dt
    if off.any():
        raise ValueError(f"{path}: time {float(t[off][0])!r} is not a time level of the grid "
                         f"(dt = {grid.dt!r})")
    data = {}
    for side in map(Side, np.unique(side_col).tolist()):
        rows = side_col == side
        k, count = k_col[rows], grid.side_node_count(side)
        bad = (k < 0) | (k >= count) | (k != np.rint(k))
        if bad.any():
            raise ValueError(f"{path}: index {k[bad][0]:g} is not a node of side {side.name} "
                             f"({count} nodes)")
        flat = n[rows] * count + k.astype(int)
        seen = np.bincount(flat, minlength=(grid.nt + 1) * count)
        if not (seen == 1).all():
            raise ValueError(f"{path}: side {side.name} has {flat.size} rows for its {seen.size} "
                             f"(time, index) entries; each must appear exactly once")
        data[side] = values[rows][np.argsort(flat)].reshape(grid.nt + 1, count)
    return BoundaryTrace(grid=grid, sides=tuple(data), data=data)


def write_field_csv(field: CoefficientField | np.ndarray, grid: Grid2D, path: str | Path) -> None:
    values = field.values if isinstance(field, CoefficientField) else field
    X, Y = grid.meshgrid()
    _write_csv(path, FIELD_HEADER, X.ravel(), Y.ravel(), values.ravel())


def read_field_csv(path: str | Path, grid: Grid2D, role: Role) -> CoefficientField:
    table = _read_csv(path, FIELD_HEADER)
    i, j = np.rint((table[:, :2] - grid.origin) / grid.h).T
    off = (i < 0) | (i > grid.nx) | (j < 0) | (j > grid.ny)
    if off.any():
        x, y = table[off][0, :2].tolist()
        raise ValueError(f"{path}: node ({x!r}, {y!r}) is off the grid")
    values = np.full(grid.node_shape, np.nan)
    values[i.astype(int), j.astype(int)] = table[:, 2]
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
    x0, y0, h = _cells([*grid.origin, grid.h])
    lines = [
        "# vtk DataFile Version 3.0", name, "ASCII", "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {grid.nx + 1} {grid.ny + 1} 1", f"ORIGIN {x0} {y0} 0", f"SPACING {h} {h} 1",
        f"POINT_DATA {grid.n_nodes}", f"SCALARS {name} double 1", "LOOKUP_TABLE default",
        *_cells(values.T.ravel()),  # VTK structured points expect x varying fastest
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def write_convergence_csv(log: list[LogRow], path: str | Path) -> None:
    _write_csv(path, LOG_HEADER, *zip(*(row.values() for row in log)))


def write_levels_csv(levels: list[LevelReport], path: str | Path) -> None:
    _write_csv(path, LEVELS_HEADER, *zip(*(lv.values() for lv in levels)))


def write_gradcheck_csv(
    rows: list[tuple[GradientSample, float, float]], grid: Grid2D, path: str | Path
) -> None:
    """Rows pair each oracle sample with the adjoint value and relative error."""
    xs, ys = grid.xs(), grid.ys()
    _write_csv(path, "node_x,node_y,which,adjoint_value,fd_value,rel_err", *zip(*(
        (xs[s.node[0]], ys[s.node[1]], "eps" if s.role is Role.EPSILON else "sigma",
         adjoint_value, s.value, rel_err)
        for s, adjoint_value, rel_err in rows
    )))
