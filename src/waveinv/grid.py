"""Uniform Cartesian grids, region masks and nested factor-2 refinement.

The computational domain is a rectangle (default the unit square) covered by
nx-by-ny square cells.  Fields live on the (nx+1)-by-(ny+1) nodes, indexed
``[i, j]`` with ``x_i = origin_x + i*h`` and ``y_j = origin_y + j*h``.  The
time step is tied to the grid through an explicit-scheme CFL bound for the
slowest admissible wave speed and snapped so that ``nt * dt == T`` exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Sequence

import numpy as np

MIN_CELLS = 8


class Side(IntEnum):
    """Boundary sides of the rectangle, numbered counter-clockwise from the left."""

    LEFT = 1
    BOTTOM = 2
    RIGHT = 3
    TOP = 4


ALL_SIDES = (Side.LEFT, Side.BOTTOM, Side.RIGHT, Side.TOP)


@dataclass(frozen=True)
class Grid2D:
    """Immutable uniform grid with its CFL-bound time axis.

    cfl_safety and eps_min are retained so refinement can recompute dt by
    the same rule that built the original grid.
    """

    nx: int
    ny: int
    h: float
    dt: float
    nt: int
    T: float
    origin: tuple[float, float] = (0.0, 0.0)
    extent: tuple[float, float] = (1.0, 1.0)
    cfl_safety: float = 0.5
    eps_min: float = 1.0

    def __post_init__(self) -> None:
        if self.nx < MIN_CELLS or self.ny < MIN_CELLS:
            raise ValueError(f"grid must have at least {MIN_CELLS} cells per axis")
        if self.h <= 0.0 or self.dt <= 0.0:
            raise ValueError("h and dt must be positive")
        if abs(self.nt * self.dt - self.T) > self.dt * 1e-12:
            raise ValueError("nt*dt must equal T exactly")
        ex, ey = self.extent
        if abs(ex / self.nx - ey / self.ny) > 1e-12 * self.h:
            raise ValueError("cells must be square: extent_x/nx must equal extent_y/ny")

    @property
    def node_shape(self) -> tuple[int, int]:
        return (self.nx + 1, self.ny + 1)

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    def xs(self) -> np.ndarray:
        return self.origin[0] + self.h * np.arange(self.nx + 1)

    def ys(self) -> np.ndarray:
        return self.origin[1] + self.h * np.arange(self.ny + 1)

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.nt + 1)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.xs(), self.ys(), indexing="ij")

    def side_node_count(self, side: Side) -> int:
        return self.ny + 1 if side in (Side.LEFT, Side.RIGHT) else self.nx + 1

    def side_coords(self, side: Side) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) arrays of the nodes along a side, ordered by node index."""
        if side == Side.LEFT:
            return np.full(self.ny + 1, self.origin[0]), self.ys()
        if side == Side.RIGHT:
            return np.full(self.ny + 1, self.origin[0] + self.extent[0]), self.ys()
        if side == Side.BOTTOM:
            return self.xs(), np.full(self.nx + 1, self.origin[1])
        return self.xs(), np.full(self.nx + 1, self.origin[1] + self.extent[1])


def _snap_time_axis(T: float, dt_bound: float) -> tuple[float, int]:
    nt = int(math.ceil(T / dt_bound - 1e-12))
    return T / nt, nt


def build_grid(
    nx: int,
    ny: int,
    T: float = 1.2,
    cfl_safety: float = 0.5,
    eps_min: float = 1.0,
    origin: tuple[float, float] = (0.0, 0.0),
    extent: tuple[float, float] = (1.0, 1.0),
) -> Grid2D:
    """Build a grid whose dt satisfies dt <= cfl_safety * h * sqrt(eps_min) / sqrt(2).

    dt is then rounded down so that nt * dt == T holds exactly.
    """
    if nx < MIN_CELLS or ny < MIN_CELLS:
        raise ValueError(f"nx and ny must be >= {MIN_CELLS}, got {nx}x{ny}")
    if not 0.0 < T < math.inf:
        raise ValueError(f"final time T must be positive and finite, got {T!r}")
    if not 0.0 < cfl_safety < 1.0:
        raise ValueError("cfl_safety must lie in (0, 1)")
    if not 1.0 <= eps_min < math.inf:
        raise ValueError(f"eps_min must be finite and >= 1, got {eps_min!r}")
    ex, ey = extent
    if not (0.0 < ex < math.inf and 0.0 < ey < math.inf):
        raise ValueError("extent must be positive and finite")
    if not all(map(math.isfinite, origin)):
        raise ValueError("origin must be finite")
    if abs(ex / nx - ey / ny) > 1e-12 * (ex / nx):
        raise ValueError("non-square cells: extent_x/nx must equal extent_y/ny")
    h = ex / nx
    dt_bound = cfl_safety * h * math.sqrt(eps_min) / math.sqrt(2.0)
    dt, nt = _snap_time_axis(T, dt_bound)
    return Grid2D(
        nx=nx, ny=ny, h=h, dt=dt, nt=nt, T=T,
        origin=origin, extent=extent,
        cfl_safety=cfl_safety, eps_min=eps_min,
    )


def refine(grid: Grid2D) -> Grid2D:
    """Factor-2 nested refinement: cells double per axis, dt is recomputed
    by the same CFL rule."""
    return build_grid(
        nx=2 * grid.nx,
        ny=2 * grid.ny,
        T=grid.T,
        cfl_safety=grid.cfl_safety,
        eps_min=grid.eps_min,
        origin=grid.origin,
        extent=grid.extent,
    )


@dataclass(frozen=True)
class RegionMask:
    """Node classification into the update region (INNER) and the pinned frame.

    ``frame`` is a boolean array over nodes; True marks FRAME nodes where
    coefficients stay at their background values.
    """

    grid: Grid2D
    frame: np.ndarray = field(repr=False)
    frame_width: int = 0

    def __post_init__(self) -> None:
        self.frame.setflags(write=False)

    @property
    def inner(self) -> np.ndarray:
        return ~self.frame


def region_mask(grid: Grid2D, frame_width: int = 0) -> RegionMask:
    """Mark the outermost frame_width node layers as FRAME, the rest as INNER."""
    if frame_width < 0:
        raise ValueError("frame_width must be >= 0")
    if 2 * frame_width >= min(grid.nx, grid.ny):
        raise ValueError(
            f"frame_width {frame_width} too wide for a {grid.nx}x{grid.ny} grid"
        )
    frame = np.zeros(grid.node_shape, dtype=bool)
    if frame_width > 0:
        frame[:frame_width, :] = True
        frame[-frame_width:, :] = True
        frame[:, :frame_width] = True
        frame[:, -frame_width:] = True
    return RegionMask(grid=grid, frame=frame, frame_width=frame_width)


def _shared(fn):
    """Cache fn's array for the last few argument tuples and hand every
    caller the same read-only copy: the quadratures run thousands of times
    per inversion on a handful of grids."""

    @functools.lru_cache(maxsize=16)
    @functools.wraps(fn)
    def cached(*args):
        out = fn(*args)
        out.setflags(write=False)
        return out

    return cached


@_shared
def area_weights(grid: Grid2D) -> np.ndarray:
    """Tensor-trapezoid nodal quadrature weights: h^2 interior, h^2/2 on
    edges, h^2/4 at corners."""
    wx = np.full(grid.nx + 1, grid.h)
    wx[0] = wx[-1] = grid.h / 2.0
    wy = np.full(grid.ny + 1, grid.h)
    wy[0] = wy[-1] = grid.h / 2.0
    return np.outer(wx, wy)


def perimeter_offsets(grid: Grid2D, sides: Sequence[Side]) -> np.ndarray:
    """Where each side's nodes start in the perimeter layout of the sides,
    and its length P last: the sides in the order given, each side's nodes
    by index, so a corner appears once per side that contains it."""
    return np.cumsum([0, *(grid.side_node_count(side) for side in sides)])


def perimeter_nodes(grid: Grid2D, sides: Sequence[Side]) -> np.ndarray:
    """The index of each node of the perimeter layout of the sides in a
    flattened (nx+1, ny+1) node array: node (i, j) sits at i (ny+1) + j."""
    i, j, w = np.arange(grid.nx + 1), np.arange(grid.ny + 1), grid.ny + 1
    at = {Side.LEFT: j, Side.RIGHT: grid.nx * w + j, Side.BOTTOM: i * w, Side.TOP: i * w + grid.ny}
    return np.concatenate([np.empty(0, dtype=int), *(at[side] for side in sides)])


@_shared
def perimeter_weights(grid: Grid2D, sides: tuple[Side, ...]) -> np.ndarray:
    """Trapezoid weights of the perimeter layout of the sides, along each
    side's edge (half weight at the edge ends)."""
    start = perimeter_offsets(grid, sides)
    w = np.full(start[-1], grid.h)
    w[start[:-1]] = w[start[1:] - 1] = grid.h / 2.0
    return w


@_shared
def time_weights(grid: Grid2D) -> np.ndarray:
    """Trapezoid weights over the stored time levels 0..nt."""
    w = np.full(grid.nt + 1, grid.dt)
    w[0] = w[-1] = grid.dt / 2.0
    return w
