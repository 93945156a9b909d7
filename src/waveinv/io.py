"""File formats: trace CSV, field CSV/VTK, convergence and level reports.

Every CSV line, the header included, ends with "\\r\\n"; numbers carry 17
significant digits so files round-trip through double precision exactly.

The bulk writers (trace CSV, field CSV and VTK) format the text around the
values once, as a "%.17g" template for a block of rows: a time level of the
trace, a grid row of a field (the CSV templates are bytes).  Each block is
then written with one `template % values`, so the float conversion is the
only per-value cost; "%.17g" % v, b"%.17g" % v and format(v, ".17g") give
the same digits.
"""

from __future__ import annotations

from dataclasses import astuple
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .fields import BoundaryTrace, CoefficientField, Role
from .grid import Grid2D, Side, perimeter_offsets
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


def _write_blocks(path: str | Path, header: str, keys: list[str], rows: str,
                  blocks: np.ndarray) -> None:
    """The header, then per key and block the rows template, its \\0 replaced
    by the key and its %.17g fields filled from the block's values.

    The text is ASCII and formatted as bytes: a text layer would encode a copy
    of every block, and with glibc's malloc those copies raised the peak RSS
    of a process writing 35 trace files at 200 x 200 by about 1.5 MB."""
    template = rows.encode()
    with open(path, "wb") as fh:
        fh.write((header + EOL).encode())
        for key, block in zip(keys, blocks):
            fh.write(template.replace(b"\0", key.encode()) % tuple(block.tolist()))


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
    """Rows ordered by time level, then side number, then node index: the
    rows of the trace's values, formatted one time level at a time."""
    rows = "".join([f"\0,{int(s)},{k},%.17g{EOL}"
                    for s, block in trace.data.items() for k in range(block.shape[1])])
    _write_blocks(path, TRACE_HEADER, _cells(trace.grid.times()), rows, trace.values)


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
    sides = tuple(map(Side, np.unique(side_col).tolist()))
    start = perimeter_offsets(grid, sides)
    table = np.empty((grid.nt + 1, start[-1]))
    for side, a in zip(sides, start):
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
        table[:, a:a + count] = values[rows][np.argsort(flat)].reshape(grid.nt + 1, count)
    return BoundaryTrace(grid=grid, sides=sides, values=table)


def write_field_csv(field: CoefficientField | np.ndarray, grid: Grid2D, path: str | Path) -> None:
    """Rows ordered by x index, then y index: one grid row of the values per
    write."""
    values = field.values if isinstance(field, CoefficientField) else field
    rows = "".join([f"\0,{y},%.17g{EOL}" for y in _cells(grid.ys())])
    _write_blocks(path, FIELD_HEADER, _cells(grid.xs()), rows, values)


def read_field_csv(path: str | Path, grid: Grid2D, role: Role) -> CoefficientField:
    """Read a field file onto a grid; every row sits on a grid node (within
    1e-8 h) and each node appears exactly once."""
    x, y, values = _read_csv(path, FIELD_HEADER).T
    i = np.clip(np.rint((x - grid.origin[0]) / grid.h), 0, grid.nx).astype(int)
    j = np.clip(np.rint((y - grid.origin[1]) / grid.h), 0, grid.ny).astype(int)
    off = (np.abs(x - grid.xs()[i]) > 1e-8 * grid.h) | (np.abs(y - grid.ys()[j]) > 1e-8 * grid.h)
    if off.any():
        raise ValueError(f"{path}: ({float(x[off][0])!r}, {float(y[off][0])!r}) is not a node "
                         f"of the grid (h = {grid.h!r})")
    flat = i * (grid.ny + 1) + j
    seen = np.bincount(flat, minlength=grid.n_nodes)
    if not (seen == 1).all():
        raise ValueError(f"{path}: {flat.size} rows for the grid's {grid.n_nodes} nodes; "
                         f"each node must appear exactly once")
    out = np.empty(grid.n_nodes)
    out[flat] = values
    return CoefficientField(grid=grid, values=out.reshape(grid.node_shape), role=role)


def write_field_vtk(
    field: CoefficientField | np.ndarray,
    grid: Grid2D,
    path: str | Path,
    name: str = "value",
) -> None:
    """Legacy ASCII STRUCTURED_POINTS file with a single nodal scalar."""
    values = field.values if isinstance(field, CoefficientField) else field
    x0, y0, h = _cells([*grid.origin, grid.h])
    header = [
        "# vtk DataFile Version 3.0", name, "ASCII", "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {grid.nx + 1} {grid.ny + 1} 1", f"ORIGIN {x0} {y0} 0", f"SPACING {h} {h} 1",
        f"POINT_DATA {grid.n_nodes}", f"SCALARS {name} double 1", "LOOKUP_TABLE default",
    ]
    column = "\n%.17g" * (grid.nx + 1)
    with open(path, "w") as fh:
        fh.write("\n".join(header))
        for row in values.T:  # VTK structured points expect x varying fastest
            fh.write(column % tuple(row.tolist()))
        fh.write("\n")


def write_convergence_csv(log: list[LogRow], path: str | Path) -> None:
    _write_csv(path, LOG_HEADER, *zip(*map(astuple, log)))


def write_levels_csv(levels: list[LevelReport], path: str | Path) -> None:
    _write_csv(path, LEVELS_HEADER, *zip(*map(astuple, levels)))


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
