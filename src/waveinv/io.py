"""File formats: trace CSV, field CSV/VTK, convergence and level reports.

Every CSV line, the header included, ends with "\\r\\n"; numbers carry 17
significant digits so files round-trip through double precision exactly.

Every file is written by `_write_blocks`: it fills a bytes template of a
block of rows (a time level of a trace, a grid row of a field, a row of a
table) with one %b per value, its \\0 replaced by the row's key.  Every
float, the time and coordinate keys and VTK header values included, is
formatted by `_digits17`, and so are a table's integer columns but its key:
as floats they print as str prints them.  `_digits17` gives b"%.17g" % v
for about a thousand values at a time, with numpy:
- domain: finite v with 1e-280 < |v| < 1e16, and +-0.  Every other value, and
  any that a step below leaves undecided, goes through b"%.17g" % v itself.
- scaling: with k = floor(log10 |v|) and p = 16 - k, the digits are S = |v| 10^p
  rounded.  10^p = hi + lo, hi = float(10**p), lo = float(10**p - int(hi)), from
  exact integers.  S = s + t: s = fl(|v| hi), t the exact error of that
  product (Dekker's, with Veltkamp's split: numpy has no fused multiply-add)
  plus fl(|v| lo).  S < 2^57, so s is an integer and s + t misses S by < 2^-40.
- rounding: q = s + rint(t) is S rounded, unless t lies within 1e-6 of a
  half-integer; so no tie is decided here.
- range: S >= 10^16 (q - 10^16 + t - rint(t) >= 0) and q < 10^17, else log10
  misjudged k (the tables also hold the p = 0 and 297 this can give) or the
  rounding carried into an 18th digit.
- layout: q's digits less their trailing zeros, by the %g rules: fixed for
  -4 <= k < 17, else d[.ddd]e-XX, with "-" before a negative value.  A table
  gives, per (notation, trailing zeros, sign), the byte of a 32-byte source
  row (digits, |k| and constant characters) for each of 24 output bytes.
"""

from __future__ import annotations

from dataclasses import astuple
from itertools import chain
from pathlib import Path

import numpy as np

from .fields import BoundaryTrace, CoefficientField, Role
from .grid import Grid2D, Side, perimeter_offsets
from .gradient import GradientSample
from .optimizer import LEVELS_HEADER, LOG_HEADER, LevelReport, LogRow

EOL = "\r\n"
TRACE_HEADER = "t,side,index,value"
FIELD_HEADER = "x,y,value"
_BLOCK = 1024  # values per _digits17 call, so no file is ever held whole as text

# 10^p = _HI[p] + _LO[p]; the ASCII digits of 0..9999, 4 bytes each, and their
# trailing zeros.  Built without numpy temporaries, which stay resident.
_HI = np.array([float(10**p) for p in range(298)])
_LO = np.array([float(10**p - int(float(10**p))) for p in range(298)])
_D2 = np.frombuffer("".join([f"{i:02d}" for i in range(100)]).encode(), np.uint16)
_D4 = np.empty((100, 100, 2), np.uint16)
_D4[:, :, 0], _D4[:, :, 1] = _D2[:, None], _D2
_D4 = _D4.view(np.uint32).ravel()
_TZ4 = np.array([4 - len(f"{i:04d}".rstrip("0")) for i in range(10000)], np.int8)
# bytes of a source row: 3-19 the digits, 20-23 |k|, 24-28 ".-0e" and NUL
_DOT, _MINUS, _ZERO, _E, _NUL = 24, 25, 26, 27, 28
_CONST = np.frombuffer(b".-0e\0\0\0\0", np.uint64)[0]


def _layout(c: int, nsig: int, negative: int) -> bytes:
    """Source bytes of a value with nsig digits: fixed notation at exponent
    c >= -4, exponential with two (c = -5) or three (c = -6) exponent digits."""
    d = [3 + j for j in range(nsig)] + [3 + j for j in range(nsig, c + 1)]
    if c >= 0:
        body = d[:c + 1] + [_DOT, *d[c + 1:]] * (nsig > c + 1)
    elif c >= -4:
        body = [_ZERO, _DOT, *[_ZERO] * (-c - 1), *d]
    else:
        body = [d[0], *[_DOT, *d[1:]] * (nsig > 1), _E, _MINUS, *range(27 + c, 24)]
    return bytes([_MINUS] * negative + body + [_NUL] * (24 - negative - len(body)))


_LAYOUT = np.frombuffer(b"".join([_layout(c, 17 - tz, sign) for c in range(-6, 16)
                                  for tz in range(17) for sign in (0, 1)]), "V24")
# the first _LAYOUT row of each p = 16 - k: c = k for k >= -4, else -5 or -6
_NOTATION = np.array([34 * (max(16 - p, -5) - (p > 115) + 6) for p in range(298)])


def _veltkamp(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x = high + low exactly, each with at most 26 significant bits."""
    high = 134217729.0 * x  # 2^27 + 1
    high -= high - x
    return high, x - high


def _round17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """q, k and whether the steps of the module docstring decide them, for
    the non-negative values a."""
    ok = (a > 1e-280) & (a < 1e16)
    a = np.where(ok, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)
    p = 16 - k
    hi, lo = _HI[p], _LO[p]
    s = a * hi
    (ah, al), (hh, hl) = _veltkamp(a), _veltkamp(hi)
    t = ((ah * hh - s) + ah * hl + al * hh) + al * hl + a * lo
    r = np.rint(t)
    q = s.astype(np.int64) + r.astype(np.int64)
    t -= r
    ok &= (np.abs(t) <= 0.5 - 1e-6) & (q - 10**16 + t >= 0) & (q < 10**17)
    q[~ok], k[~ok] = 10**16, 0  # laid out as "1", then replaced
    return q, k, ok


def _source(q: np.ndarray, k: np.ndarray, negative: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 32 source bytes of each value and the indices of its 24 output
    bytes among them, for digits q, exponent k and sign."""
    head = q // 10**16
    q -= head * 10**16  # floor_divide and subtract run quicker than divmod
    groups = np.empty((4, len(q)), np.int64)  # digits 1-4, 5-8, 9-12, 13-16
    for j, scale in enumerate((10**12, 10**8, 10**4)):
        np.floor_divide(q, scale, out=groups[j])
        q -= groups[j] * scale
    groups[3] = q
    src = np.empty((len(q), 8), np.uint32)
    src[:, 1:5] = _D4[groups].T
    src[:, 5] = _D4[-k]  # |k| where it is read, k < -4
    src.view(np.uint64)[:, 3] = _CONST
    row = src.view(np.uint8)
    row[:, 3] = head + ord("0")
    tz, empty = _TZ4[groups].astype(np.intp), groups == 0  # int8 arithmetic pages in more numpy
    zeros = tz[3] + empty[3] * (tz[2] + empty[2] * (tz[1] + empty[1] * tz[0]))
    layout = np.take(_LAYOUT, _NOTATION[16 - k] + 2 * zeros + negative)
    return row, layout.view(np.int8).reshape(len(q), 24)


def _digits17(values: np.ndarray) -> list[bytes]:
    """b"%.17g" % v for each of the values, in C order."""
    v = np.ravel(values).astype(float, copy=False)
    q, k, ok = _round17(np.abs(v))
    row, layout = _source(q, k, np.signbit(v))
    row[v == 0.0, 3] = ord("0")
    index = layout.astype(np.intp)
    index += np.arange(0, row.size, 32)[:, None]
    cells = np.take(row, index).view("S24")[:, 0].tolist()  # less the NUL padding
    for i in np.flatnonzero(~ok & (v != 0.0)).tolist():
        cells[i] = b"%.17g" % v[i]
    return cells


def _write_blocks(path: str | Path, head: str, keys: list[bytes], rows: str,
                  blocks: np.ndarray) -> None:
    """The head, then per key and block the rows template, its \\0 replaced
    by the key and its %b fields filled with the block's values, which
    _digits17 formats about _BLOCK at a time.

    The text is ASCII and formatted as bytes: a text layer would encode a copy
    of every block, and with glibc's malloc those copies raised the peak RSS
    of a process writing 35 trace files at 200 x 200 by about 1.5 MB."""
    template, width = rows.encode(), blocks.shape[1]
    step = max(1, _BLOCK // max(width, 1))
    with open(path, "wb") as fh:
        fh.write(head.encode())
        for start in range(0, len(blocks), step):
            flat = _digits17(blocks[start:start + step])
            for i, key in enumerate(keys[start:start + step]):
                row = tuple(flat[i * width:(i + 1) * width])
                fh.write(template.replace(b"\0", key) % row)


def _write_table(path: str | Path, header: str, key: str, rows: list[tuple]) -> None:
    """The header, then one line per row: the column named key as text in
    the \\0 of the template, every other column as a float."""
    names = header.split(",")
    j = names.index(key)
    template = ",".join(["\0" if name == key else "%b" for name in names]) + EOL
    values = np.array([r[:j] + r[j + 1:] for r in rows], float).reshape(len(rows), len(names) - 1)
    _write_blocks(path, header + EOL, [str(r[j]).encode() for r in rows], template, values)


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
    rows = "".join([f"\0,{int(s)},{k},%b{EOL}"
                    for s, block in trace.data.items() for k in range(block.shape[1])])
    _write_blocks(path, TRACE_HEADER + EOL, _digits17(trace.grid.times()), rows, trace.values)


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
    rows = "".join([f"\0,{y.decode()},%b{EOL}" for y in _digits17(grid.ys())])
    _write_blocks(path, FIELD_HEADER + EOL, _digits17(grid.xs()), rows, values)


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
    x0, y0, h = [c.decode() for c in _digits17([*grid.origin, grid.h])]
    header = [
        "# vtk DataFile Version 3.0", name, "ASCII", "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {grid.nx + 1} {grid.ny + 1} 1", f"ORIGIN {x0} {y0} 0", f"SPACING {h} {h} 1",
        f"POINT_DATA {grid.n_nodes}", f"SCALARS {name} double 1", "LOOKUP_TABLE default",
    ]
    # VTK structured points expect x varying fastest
    _write_blocks(path, "\n".join([*header, ""]), [b""] * (grid.ny + 1), "%b\n" * (grid.nx + 1),
                  values.T)


def write_convergence_csv(log: list[LogRow], path: str | Path) -> None:
    _write_table(path, LOG_HEADER, "m", list(map(astuple, log)))


def write_levels_csv(levels: list[LevelReport], path: str | Path) -> None:
    _write_table(path, LEVELS_HEADER, "level", list(map(astuple, levels)))


def write_gradcheck_csv(
    rows: list[tuple[GradientSample, float, float]], grid: Grid2D, path: str | Path
) -> None:
    """Rows pair each oracle sample with the adjoint value and relative error."""
    xs, ys = grid.xs(), grid.ys()
    _write_table(path, "node_x,node_y,which,adjoint_value,fd_value,rel_err", "which", [
        (xs[s.node[0]], ys[s.node[1]], "eps" if s.role is Role.EPSILON else "sigma",
         adjoint_value, s.value, rel_err)
        for s, adjoint_value, rel_err in rows
    ])
