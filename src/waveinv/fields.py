"""Coefficient fields, space-time field stacks, boundary traces and their
builders, projection, noise injection and inter-grid transfer.

All field types are value-semantic: operations return new instances and the
underlying arrays are marked read-only, so instances can be shared across
threads without locking.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

import numpy as np

from .grid import Grid2D, RegionMask, Side, side_slice

if TYPE_CHECKING:
    from .forward import ForwardSolution


class Role(Enum):
    EPSILON = "epsilon"
    SIGMA = "sigma"


class FieldKind(Enum):
    STATE = "state"
    ADJOINT = "adjoint"


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
        if self.eps_background < 1.0:
            raise ValueError("eps_background must be >= 1")
        if self.eps_max < self.eps_background:
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
class SpaceTimeField:
    """All nt+1 snapshots of a nodal field (the state E or the adjoint)."""

    grid: Grid2D
    snapshots: np.ndarray = dc_field(repr=False)
    kind: FieldKind = FieldKind.STATE

    def __post_init__(self) -> None:
        expect = (self.grid.nt + 1, *self.grid.node_shape)
        if self.snapshots.shape != expect:
            raise ValueError(
                f"snapshot stack shape {self.snapshots.shape}, expected {expect}"
            )
        object.__setattr__(self, "snapshots", _freeze(self.snapshots))

    def levels_backward(self) -> Iterator[np.ndarray]:
        """Snapshots nt, ..., 0: the order in which the adjoint sweep reads a
        state, as ForwardSolution.levels_backward replays it."""
        return iter(self.snapshots[::-1])


@dataclass(frozen=True)
class BoundaryTrace:
    """Per-side, per-node, per-time-level boundary values.

    data maps each declared side to an array of shape (nt+1, n_side_nodes).
    Only declared sides carry data, which supports partial observations.
    """

    grid: Grid2D
    sides: tuple[Side, ...]
    data: Mapping[Side, np.ndarray] = dc_field(repr=False)

    def __post_init__(self) -> None:
        if not self.sides:
            raise ValueError("a boundary trace needs at least one side")
        sides = tuple(sorted(set(Side(s) for s in self.sides)))
        object.__setattr__(self, "sides", sides)
        data = {}
        for side in sides:
            if side not in self.data:
                raise ValueError(f"side {side.name} declared but carries no data")
            arr = np.asarray(self.data[side], dtype=np.float64)
            expect = (self.grid.nt + 1, self.grid.side_node_count(side))
            if arr.shape != expect:
                raise ValueError(
                    f"side {side.name}: trace shape {arr.shape}, expected {expect}"
                )
            data[side] = _freeze(arr)
        object.__setattr__(self, "data", data)

    def map(self, fn) -> "BoundaryTrace":
        return BoundaryTrace(
            grid=self.grid,
            sides=self.sides,
            data={s: fn(self.data[s]) for s in self.sides},
        )

    def __sub__(self, other: "BoundaryTrace") -> "BoundaryTrace":
        self.check_compatible(other)
        return BoundaryTrace(
            grid=self.grid,
            sides=self.sides,
            data={s: self.data[s] - other.data[s] for s in self.sides},
        )

    def max_abs(self) -> float:
        return max(float(np.abs(self.data[s]).max()) for s in self.sides)

    def check_compatible(self, other: "BoundaryTrace") -> None:
        if self.sides != other.sides:
            raise ValueError(f"trace sides differ: {self.sides} vs {other.sides}")
        if self.grid.nt != other.grid.nt or self.grid.node_shape != other.grid.node_shape:
            raise ValueError("traces live on incompatible grids")


def constant_coefficient(grid: Grid2D, value: float, role: Role) -> CoefficientField:
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


def extract_trace(
    field: SpaceTimeField | ForwardSolution, sides: Iterable[Side]
) -> BoundaryTrace:
    """Restrict a state to the boundary nodes of the declared sides: a
    ForwardSolution holds its all-sides trace, a stored STATE field is read
    level by level."""
    if not isinstance(field, SpaceTimeField):
        return BoundaryTrace(grid=field.grid, sides=tuple(sides), data=field.trace.data)
    if field.kind is not FieldKind.STATE:
        raise ValueError("traces are extracted from STATE fields")
    return trace_of_levels(field.grid, field.snapshots, sides)


def level_run(level: np.ndarray) -> np.ndarray:
    """A level's nodes as one contiguous run of a ghost-padded buffer: the
    rows of the buffer from node (0, 0) to node (nx, ny), so that node
    (i, j) sits at i * (ny+3) + j and the ghost columns fill the gaps
    between rows.  The time loops hand out each level as the node view
    [1:-1, 1:-1] of a ghost-padded buffer of its own (its base), and the
    run is then read in place: a level whose base is two rows and two
    columns larger, with the same strides, is taken to be that view.  Any
    other level is first copied into a new padded buffer.  numpy copies a strided ufunc operand through a scratch
    buffer, so a consumer that streams over many levels reads these runs."""
    rows, cols = level.shape
    pad = level.base
    if not (isinstance(pad, np.ndarray) and pad.shape == (rows + 2, cols + 2)
            and pad.strides == level.strides and pad.flags.c_contiguous):
        pad = np.zeros((rows + 2, cols + 2))
        pad[1:-1, 1:-1] = level
    s = cols + 2
    return pad.ravel()[s + 1:s + 1 + (rows - 1) * s + cols]


def trace_of_levels(
    grid: Grid2D, levels: Iterable[np.ndarray], sides: Iterable[Side]
) -> BoundaryTrace:
    """Boundary trace of state levels 0..nt given one at a time, so a
    stream of levels yields its trace without being stored.  Each level's
    boundary nodes are gathered from its run (level_run) in one call into
    one (nt+1, perimeter) buffer, which is split per side at the end."""
    sides = tuple(sorted(set(Side(s) for s in sides)))
    if not sides:
        raise ValueError("at least one side must be declared")
    i, j = np.indices(grid.node_shape)
    at = i * (grid.ny + 3) + j  # node offsets within a run
    index = np.concatenate([at[side_slice(grid, side)] for side in sides])
    gathered = np.empty((grid.nt + 1, index.size))
    # strict: a stream of any other length than nt+1 levels is an error
    for n, level in zip(range(grid.nt + 1), levels, strict=True):
        level_run(level).take(index, out=gathered[n], mode="clip")  # "raise" buffers out
    ends = np.cumsum([0] + [grid.side_node_count(side) for side in sides])
    data = {side: gathered[:, a:b] for side, a, b in zip(sides, ends[:-1], ends[1:])}
    return BoundaryTrace(grid=grid, sides=sides, data=data)


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
    if level < 0.0:
        raise ValueError("noise level must be >= 0")
    if level == 0.0:
        return trace.map(lambda arr: arr.copy())
    scale = level if model is NoiseModel.ADDITIVE_GAUSSIAN else level * trace.max_abs()
    rng = np.random.default_rng(seed)
    data = {}
    for side in trace.sides:
        arr = trace.data[side]
        data[side] = arr + scale * rng.standard_normal(arr.shape)
    return BoundaryTrace(grid=trace.grid, sides=trace.sides, data=data)


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


def _interp_time(arr: np.ndarray, coarse: Grid2D, fine: Grid2D) -> np.ndarray:
    """Linear interpolation of a (nt_c+1, n) series onto the fine time axis."""
    tc = coarse.times()
    tf = np.minimum(fine.times(), tc[-1])
    pos = tf / coarse.dt
    k = np.minimum(pos.astype(int), coarse.nt - 1)
    w = pos - k
    return (1.0 - w)[:, None] * arr[k, :] + w[:, None] * arr[k + 1, :]


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
        data = {}
        for side in obj.sides:
            in_time = _interp_time(obj.data[side], obj.grid, fine_grid)
            n = in_time.shape[1]
            out = np.empty((fine_grid.nt + 1, 2 * (n - 1) + 1))
            out[:, ::2] = in_time
            out[:, 1::2] = 0.5 * (in_time[:, :-1] + in_time[:, 1:])
            data[side] = out
        return BoundaryTrace(grid=fine_grid, sides=obj.sides, data=data)
    raise TypeError(f"cannot transfer object of type {type(obj).__name__}")
