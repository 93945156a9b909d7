"""Coefficient fields, boundary traces and their builders, projection,
noise injection and inter-grid transfer.

All field types are value-semantic: operations return new instances and the
underlying arrays are marked read-only, so instances can be shared across
threads without locking.

A boundary trace is one (nt+1, P) array over its sides, whose columns are
the perimeter layout of grid.perimeter_offsets: the sides in side order and
each side's nodes by index, so a corner appears once per side containing it.
A RefinedTrace is a trace on the factor-2 refined grid, formed on request
a block of rows at a time and never stored: the one way a trace is refined,
while transfer_to_refined moves coefficient fields.  The two trace kinds
share one row protocol, rows(a, b), which is how the misfit and the adjoint
read observations, BLOCK rows at a time.  A RefinedTrace's scratch is local
to each call, so it too can be shared across threads.
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

    def rows(self, a: int, b: int, out: np.ndarray | None = None) -> np.ndarray:
        """values[a:b], a read-only view, or copied into out; the row
        protocol that a RefinedTrace shares."""
        if out is None:
            return self.values[a:b]
        out[...] = self.values[a:b]
        return out

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
        return BoundaryTrace(grid=trace.grid, sides=trace.sides, values=trace.values.copy())
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


BLOCK = 64  # trace rows formed, summed or windowed at once, so no whole-trace temporary is made


@dataclass(frozen=True, eq=False)
class RefinedTrace:
    """A boundary trace on the factor-2 refined grid of its source, formed a
    block of rows at a time on request and never held whole.

    source is a BoundaryTrace or another RefinedTrace, so refinements chain
    from one stored trace; beyond its source a RefinedTrace holds its time
    index k and weights w, (nt+1) values each.  rows(a, b) forms fine rows
    a..b-1 from source rows k[a]..k[b-1]+1: linear in time,
    (1 - w) src[k] + w src[k+1] at fine level n, then in space: fine node j
    of a side is the mean of coarse nodes j // 2 and (j + 1) // 2, summed
    by slices and halved.  This is the one way a trace is refined."""

    source: "BoundaryTrace | RefinedTrace"
    grid: Grid2D
    sides: tuple[Side, ...] = dc_field(init=False)
    width: int = dc_field(init=False, repr=False)  # P, the columns of a row
    _k: np.ndarray = dc_field(init=False, repr=False)
    _w: tuple[np.ndarray, np.ndarray] = dc_field(init=False, repr=False)  # 1 - w and w
    _columns: tuple[tuple[slice, slice], ...] = dc_field(init=False, repr=False)  # per side

    def __post_init__(self) -> None:
        coarse, fine = self.source.grid, self.grid
        _check_nested(coarse, fine)
        pos = np.minimum(fine.times(), coarse.times()[-1]) / coarse.dt
        k = np.minimum(pos.astype(int), coarse.nt - 1)
        w = pos - k
        start_c, start_f = (perimeter_offsets(g, self.source.sides) for g in (coarse, fine))
        object.__setattr__(self, "sides", self.source.sides)
        object.__setattr__(self, "width", int(start_f[-1]))
        object.__setattr__(self, "_k", k)
        object.__setattr__(self, "_w", ((1.0 - w)[:, None], w[:, None]))
        object.__setattr__(self, "_columns", tuple(
            (slice(ca, cb), slice(fa, fb))
            for ca, cb, fa, fb in zip(start_c, start_c[1:], start_f, start_f[1:])))

    def rows(self, a: int, b: int, out: np.ndarray | None = None) -> np.ndarray:
        """Fine rows a..b-1, clipped to the trace as a slice is, formed into
        out (any (rows, P) view, reversed ones too) or a new array."""
        k = self._k[a:b]
        if out is None:
            out = np.empty((len(k), self.width))
        if not len(k):
            return out
        src = self.source.rows(k[0], k[-1] + 2)
        k = k - k[0]
        w_this, w_next = (w[a:b] for w in self._w)
        in_time = src.take(k, axis=0)
        in_time *= w_this
        # the later level goes through out's first columns, which the
        # midpoints overwrite after it is added ("raise" would buffer out)
        later = src.take(k + 1, axis=0, out=out[:, :src.shape[1]], mode="clip")
        later *= w_next
        in_time += later
        for coarse, fine in self._columns:
            c, f = in_time[:, coarse], out[:, fine]
            np.add(c, c, out=f[:, ::2])
            np.add(c[:, :-1], c[:, 1:], out=f[:, 1::2])
        out *= 0.5
        return out


def transfer_to_refined(obj: CoefficientField, fine_grid: Grid2D) -> CoefficientField:
    """Interpolate a coefficient field bilinearly onto the factor-2 refined
    grid.  A trace is refined by RefinedTrace(trace, fine_grid), a block of
    rows at a time, and raises TypeError here."""
    if not isinstance(obj, CoefficientField):
        raise TypeError(f"cannot transfer object of type {type(obj).__name__}; "
                        "a boundary trace is refined by RefinedTrace")
    _check_nested(obj.grid, fine_grid)
    return CoefficientField(grid=fine_grid, values=_refine_nodal(obj.values), role=obj.role)
