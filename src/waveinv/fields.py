"""Coefficient fields, boundary traces and their builders, projection,
noise injection and inter-grid transfer.

All field types are value-semantic: operations return new instances and the
underlying arrays are marked read-only, so instances can be shared across
threads without locking.

A boundary trace is one (nt+1, P) array over its sides, whose columns are
the perimeter layout of grid.perimeter_offsets: the sides in side order and
each side's nodes by index, so a corner appears once per side containing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from .grid import Grid2D, RegionMask, Side, perimeter_offsets


class Role(Enum):
    EPSILON = "epsilon"
    SIGMA = "sigma"


class NoiseModel(Enum):
    ADDITIVE_GAUSSIAN = "additive_gaussian"
    RELATIVE_GAUSSIAN = "relative_gaussian"


@dataclass(frozen=True)
class AdmissibleSet:
    """Box constraints and pinned background values for both coefficients.

    Permittivity is dimensionless and bounded below by its background
    (>= 1); conductivity is the rescaled one with the wave-speed and
    permeability constants absorbed, so it is dimensionless as well.
    """

    eps_background: float = 1.0
    eps_max: float = 10.0
    sigma_background: float = 1.0
    sigma_min: float = 1.0
    sigma_max: float = 10.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eps_background) and math.isfinite(self.sigma_background)):
            raise ValueError("eps_background and sigma_background must be finite")
        if self.eps_background < 1.0:
            raise ValueError("eps_background must be >= 1")
        if not self.eps_max >= self.eps_background:  # NaN fails it too
            raise ValueError("eps_max must be >= eps_background")
        if not 0.0 <= self.sigma_min <= self.sigma_max:
            raise ValueError("need 0 <= sigma_min <= sigma_max")
        if not self.sigma_min <= self.sigma_background <= self.sigma_max:
            raise ValueError("sigma_background must lie within [sigma_min, sigma_max]")

    def bounds(self, role: Role) -> tuple[float, float]:
        if role is Role.EPSILON:
            return self.eps_background, self.eps_max
        return self.sigma_min, self.sigma_max

    def background(self, role: Role) -> float:
        return self.eps_background if role is Role.EPSILON else self.sigma_background


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CoefficientField:
    """Nodal scalar coefficient (permittivity or conductivity) on a grid."""

    grid: Grid2D
    values: np.ndarray = dc_field(repr=False)
    role: Role = Role.EPSILON

    def __post_init__(self) -> None:
        if self.values.shape != self.grid.node_shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid nodes "
                f"{self.grid.node_shape}"
            )
        object.__setattr__(self, "values", _freeze(self.values))

    def with_values(self, values: np.ndarray) -> "CoefficientField":
        return CoefficientField(grid=self.grid, values=values, role=self.role)


@dataclass(frozen=True)
class BoundaryTrace:
    """Boundary values of the declared sides, distinct and in side order.

    values is one read-only (nt+1, P) array: row n is time level n, and the
    columns, the sides' perimeter layout, are the row order of trace.csv in
    a time level; data maps each side to a view of its columns.  Only
    declared sides carry data, which supports partial observations.
    """

    grid: Grid2D
    sides: tuple[Side, ...]
    values: np.ndarray = dc_field(repr=False)
    data: Mapping[Side, np.ndarray] = dc_field(init=False, repr=False)

    def __post_init__(self) -> None:
        sides = tuple(map(Side, self.sides))
        if not sides or sides != tuple(sorted(set(sides))):
            raise ValueError(f"a boundary trace needs distinct sides in side order, got {sides}")
        start = perimeter_offsets(self.grid, sides)
        values = _freeze(self.values)
        expect = (self.grid.nt + 1, int(start[-1]))
        if values.shape != expect:
            raise ValueError(f"trace shape {values.shape}, expected {expect}")
        object.__setattr__(self, "sides", sides)
        object.__setattr__(self, "values", values)
        data = {side: values[:, a:b] for side, a, b in zip(sides, start, start[1:])}
        object.__setattr__(self, "data", data)

    def map(self, fn) -> "BoundaryTrace":
        return BoundaryTrace(grid=self.grid, sides=self.sides, values=fn(self.values))

    def __sub__(self, other: "BoundaryTrace") -> "BoundaryTrace":
        self.check_compatible(other)
        return BoundaryTrace(grid=self.grid, sides=self.sides, values=self.values - other.values)

    def max_abs(self) -> float:
        return float(np.abs(self.values).max())

    def check_compatible(self, other: "BoundaryTrace") -> None:
        if self.sides != other.sides:
            raise ValueError(f"trace sides differ: {self.sides} vs {other.sides}")
        if self.grid.nt != other.grid.nt or self.grid.node_shape != other.grid.node_shape:
            raise ValueError("traces live on incompatible grids")


def constant_coefficient(grid: Grid2D, value: float, role: Role) -> CoefficientField:
    if not math.isfinite(value):
        raise ValueError(f"value must be finite, got {value!r}")
    return CoefficientField(grid=grid, values=np.full(grid.node_shape, float(value)), role=role)


def gaussian_coefficient(
    grid: Grid2D,
    base: float,
    amp: float,
    center: tuple[float, float],
    width: float,
    role: Role = Role.EPSILON,
) -> CoefficientField:
    """base + amp * exp(-((x-cx)^2 + (y-cy)^2) / width) sampled at the nodes."""
    if not np.isfinite([base, amp, *center, width]).all():
        raise ValueError("gaussian base, amp, center and width must be finite")
    if width <= 0.0:
        raise ValueError("gaussian width must be positive")
    X, Y = grid.meshgrid()
    cx, cy = center
    values = base + amp * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / width)
    return CoefficientField(grid=grid, values=values, role=role)


def bump_perturbed(field: CoefficientField, scale: float) -> CoefficientField:
    """Add scale * max|field| * x^2 y^2 (1-x)^2 (1-y)^2 to a coefficient field.

    Coordinates are normalized to the grid extent so the bump vanishes with
    its first derivatives on the whole boundary.
    """
    if not math.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale!r}")
    g = field.grid
    X, Y = g.meshgrid()
    u = (X - g.origin[0]) / g.extent[0]
    v = (Y - g.origin[1]) / g.extent[1]
    bump = (u * v * (1.0 - u) * (1.0 - v)) ** 2
    amp = scale * float(np.abs(field.values).max())
    return field.with_values(field.values + amp * bump)


def project(field: CoefficientField, adm: AdmissibleSet, mask: RegionMask) -> CoefficientField:
    """Clamp INNER nodes into the role's box and pin FRAME nodes to background."""
    lo, hi = adm.bounds(field.role)
    values = np.clip(field.values, lo, hi)
    values[mask.frame] = adm.background(field.role)
    return field.with_values(values)


def trace_columns(trace: BoundaryTrace, sides: Iterable[Side]) -> slice | np.ndarray:
    """The columns of trace that hold the sides, in their perimeter layout:
    every column (a slice, so that indexing by it is a view) where the sides
    are trace's own, else their indices.  A side that trace does not hold
    raises ValueError."""
    sides = set(map(Side, sides))
    if not sides <= set(trace.sides):
        raise ValueError(f"trace sides {trace.sides} do not hold {sorted(sides)}")
    if sides == set(trace.sides):
        return np.s_[:]
    kept = np.repeat([s in sides for s in trace.sides], [v.shape[1] for v in trace.data.values()])
    return np.flatnonzero(kept)


def extract_trace(sol, sides: Iterable[Side]) -> BoundaryTrace:
    """Restrict a forward solve to the boundary nodes of the declared sides:
    the all-sides trace of sol, a forward.ForwardSolution, itself, or a copy
    of the columns of fewer sides.  This only reads sol, which keeps its
    trace as the perimeter record of its reverse steps."""
    sides = tuple(sorted(set(map(Side, sides))))
    trace = sol.trace
    if sides == trace.sides:
        return trace
    return BoundaryTrace(grid=trace.grid, sides=sides,
                         values=trace.values[:, trace_columns(trace, sides)])


def add_noise(
    trace: BoundaryTrace,
    model: NoiseModel | str,
    level: float,
    seed: int,
) -> BoundaryTrace:
    """Perturb a trace with i.i.d. Gaussian noise, deterministic per seed.

    additive_gaussian uses standard deviation `level`; relative_gaussian
    scales it by the largest absolute trace value.  Draws are consumed in
    fixed side order so the raw noise depends only on seed and shapes.
    """
    model = NoiseModel(model)
    if not 0.0 <= level < math.inf:
        raise ValueError(f"noise level must be finite and >= 0, got {level!r}")
    if level == 0.0:
        return trace.map(lambda arr: arr.copy())
    scale = level if model is NoiseModel.ADDITIVE_GAUSSIAN else level * trace.max_abs()
    rng = np.random.default_rng(seed)
    noise = np.empty_like(trace.values)
    start = perimeter_offsets(trace.grid, trace.sides)
    for a, b in zip(start, start[1:]):
        for row in noise[:, a:b]:  # drawn in place, so no block is held twice
            rng.standard_normal(out=row)
    noise *= scale
    noise += trace.values
    return BoundaryTrace(grid=trace.grid, sides=trace.sides, values=noise)


def _check_nested(coarse: Grid2D, fine: Grid2D) -> None:
    ok = (
        fine.nx == 2 * coarse.nx
        and fine.ny == 2 * coarse.ny
        and fine.origin == coarse.origin
        and fine.extent == coarse.extent
        and abs(fine.T - coarse.T) <= 1e-12 * coarse.T
    )
    if not ok:
        raise ValueError("target grid is not the factor-2 refinement of the source grid")


def _refine_nodal(values: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of nodal values onto the factor-2 refined grid."""
    nx = values.shape[0] - 1
    ny = values.shape[1] - 1
    out = np.empty((2 * nx + 1, 2 * ny + 1))
    out[::2, ::2] = values
    out[1::2, ::2] = 0.5 * (values[:-1, :] + values[1:, :])
    out[::2, 1::2] = 0.5 * (values[:, :-1] + values[:, 1:])
    out[1::2, 1::2] = 0.25 * (
        values[:-1, :-1] + values[1:, :-1] + values[:-1, 1:] + values[1:, 1:]
    )
    return out


BLOCK = 64  # trace rows formed or summed at once, so that no whole-trace temporary is made


def _refine_trace(trace: BoundaryTrace, fine: Grid2D) -> np.ndarray:
    """The values of a trace on the factor-2 refined grid, formed BLOCK fine
    time levels at a time straight into the (nt_f+1, P_f) result, so that
    beyond it one block of rows of each trace is held.  Each block is linear
    in time, (1 - w) arr[k] + w arr[k+1] at fine level n, then in space: fine
    node k of a side is the mean of coarse nodes k // 2 and (k + 1) // 2."""
    coarse, arr = trace.grid, trace.values
    pos = np.minimum(fine.times(), coarse.times()[-1]) / coarse.dt
    k = np.minimum(pos.astype(int), coarse.nt - 1)
    w = pos - k
    start_c, start_f = (perimeter_offsets(g, trace.sides) for g in (coarse, fine))
    side = np.repeat(np.arange(len(trace.sides)), np.diff(start_f))
    node = np.arange(start_f[-1]) - start_f[side]
    lo = start_c[side] + node // 2
    hi = lo + node % 2
    out = np.empty((fine.nt + 1, start_f[-1]))
    for a in range(0, fine.nt + 1, BLOCK):
        rows = np.s_[a:a + BLOCK]
        in_time = arr[k[rows]]
        in_time *= (1.0 - w[rows])[:, None]
        later = arr[k[rows] + 1]
        later *= w[rows, None]
        in_time += later
        del later
        block = out[rows]
        in_time.take(lo, axis=1, out=block, mode="clip")  # "raise" buffers out
        block += in_time[:, hi]
        block *= 0.5
    return out


def transfer_to_refined(obj, fine_grid: Grid2D):
    """Move a coefficient field or boundary trace onto the factor-2 refined grid.

    Coefficients are interpolated bilinearly.  Traces are interpolated
    linearly in time to the fine time step; in space coincident fine nodes
    take the coarse values and midpoints the average of their neighbours.
    """
    if isinstance(obj, CoefficientField):
        _check_nested(obj.grid, fine_grid)
        return CoefficientField(
            grid=fine_grid, values=_refine_nodal(obj.values), role=obj.role
        )
    if isinstance(obj, BoundaryTrace):
        _check_nested(obj.grid, fine_grid)
        return BoundaryTrace(grid=fine_grid, sides=obj.sides, values=_refine_trace(obj, fine_grid))
    raise TypeError(f"cannot transfer object of type {type(obj).__name__}")
