"""Explicit finite-difference time-domain solver for the scalar damped wave
system  eps * E_tt + sigma * E_t - lap(E) = f  on a rectangle.

Scheme
------
Leapfrog in time with the damping term centered over two steps, which keeps
the update explicit and second order:

    (eps/dt^2 + sigma/(2 dt)) E^{n+1}
        = (2 eps/dt^2) E^n - (eps/dt^2 - sigma/(2 dt)) E^{n-1} + lap_h E^n + f^n

lap_h is the 5-point Laplacian; boundary conditions enter through one layer
of ghost nodes:

    zero Neumann        ghost = mirror
    Neumann data g      ghost = mirror + 2 h g(t_n)
    absorbing dE/dn=-dE/dt   ghost = mirror - 2 h (E^n_b - E^{n-1}_b) / dt

The first step is the Taylor start
    E^1 = E^0 + dt f1 + dt^2/(2 eps) (lap_h E^0 - sigma f1 + f^0),
which keeps second-order accuracy for nonzero initial data; its absorbing
ghost takes E^0 - dt f1 as the previous level.

Leapfrog holds this update once.  The forward solve, the Lagrangian's
defect and the adjoint solve all step through it: after reversing time the
adjoint equation has exactly this form, so the adjoint module only builds
different per-side boundary programs.  leapfrog_levels is the one time
loop: it yields each level as it is computed, and callers either stack the
levels (solve_forward, solve_adjoint) or use each one and drop it
(forward_trace, the streamed adjoint gradient).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .grid import ALL_SIDES, Grid2D, Side, area_weights
from .fields import BoundaryTrace, CoefficientField, FieldKind, SpaceTimeField, trace_of_levels


class StabilityError(RuntimeError):
    """Raised when a solve is provably unstable or produces non-finite values."""


class BcKind(Enum):
    SOURCE_THEN_ABSORBING = "source_then_absorbing"
    ABSORBING = "absorbing"
    NEUMANN_ZERO = "neumann_zero"
    NEUMANN_DATA = "neumann_data"


@dataclass(frozen=True)
class SourceSpec:
    """Boundary plane-wave source plus optional manufactured-test data.

    The sine pulse sin(omega*t) acts as Neumann data on the side that the
    BcConfig makes SOURCE_THEN_ABSORBING, for one period (t_on defaults to
    2*pi/omega), after which that side switches to absorbing.
    volume_forcing may be a callable f(X, Y, t) returning nodal values, or
    a precomputed (nt+1, nx+1, ny+1) array.
    f0/f1 are initial value and velocity (callables of (X, Y) or arrays);
    they default to zero.
    """

    omega: float = 20.0
    amplitude: float = 1.0
    t_on: float | None = None
    volume_forcing: Callable | np.ndarray | None = None
    f0: Callable | np.ndarray | None = None
    f1: Callable | np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.omega <= 0.0:
            raise ValueError("omega must be positive")
        if self.t_on is not None and self.t_on <= 0.0:
            raise ValueError("t_on must be positive")

    def switch_time(self) -> float:
        return 2.0 * math.pi / self.omega if self.t_on is None else self.t_on


@dataclass(frozen=True)
class BcConfig:
    """Per-side boundary condition kinds.

    At most one side may be SOURCE_THEN_ABSORBING.  Sides with NEUMANN_DATA
    take their flux values from ``neumann_data[side]``, a callable
    g(coords_along_side, t) -> array.
    """

    sides: Mapping[Side, BcKind] = dc_field(
        default_factory=lambda: {
            Side.LEFT: BcKind.SOURCE_THEN_ABSORBING,
            Side.BOTTOM: BcKind.NEUMANN_ZERO,
            Side.RIGHT: BcKind.ABSORBING,
            Side.TOP: BcKind.NEUMANN_ZERO,
        }
    )
    neumann_data: Mapping[Side, Callable] = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        sides = {Side(s): BcKind(k) for s, k in self.sides.items()}
        for side in ALL_SIDES:
            sides.setdefault(side, BcKind.NEUMANN_ZERO)
        n_src = sum(1 for k in sides.values() if k is BcKind.SOURCE_THEN_ABSORBING)
        if n_src > 1:
            raise ValueError("at most one side may carry the switched source")
        for side, k in sides.items():
            if k is BcKind.NEUMANN_DATA and side not in self.neumann_data:
                raise ValueError(f"side {side.name} needs a neumann_data callback")
        object.__setattr__(self, "sides", sides)

    def kind(self, side: Side) -> BcKind:
        return self.sides[side]


def all_neumann_bc() -> BcConfig:
    return BcConfig(sides={s: BcKind.NEUMANN_ZERO for s in ALL_SIDES})


@dataclass(frozen=True)
class SideProgram:
    """Resolved per-side boundary behaviour over the whole time axis.

    absorbing[n] switches the outflow ghost term on at level n;
    series is Neumann flux data per level and side node (None means zero).
    """

    absorbing: np.ndarray
    series: np.ndarray | None


def _side_axis_values(grid: Grid2D, side: Side, fn: Callable, t: float) -> np.ndarray:
    x, y = grid.side_coords(side)
    return np.asarray(fn(x, y, t), dtype=np.float64) * np.ones(grid.side_node_count(side))


def build_forward_programs(
    grid: Grid2D, src: SourceSpec, bc: BcConfig
) -> dict[Side, SideProgram]:
    times = grid.times()
    programs: dict[Side, SideProgram] = {}
    for side in ALL_SIDES:
        kind = bc.kind(side)
        if kind is BcKind.NEUMANN_ZERO:
            programs[side] = SideProgram(np.zeros(grid.nt + 1, dtype=bool), None)
        elif kind is BcKind.ABSORBING:
            programs[side] = SideProgram(np.ones(grid.nt + 1, dtype=bool), None)
        elif kind is BcKind.SOURCE_THEN_ABSORBING:
            t_on = src.switch_time()
            active = times <= t_on + 1e-14
            pulse = np.where(active, src.amplitude * np.sin(src.omega * times), 0.0)
            series = np.tile(pulse[:, None], (1, grid.side_node_count(side)))
            programs[side] = SideProgram(~active, series)
        else:  # NEUMANN_DATA
            fn = bc.neumann_data[side]
            n = grid.side_node_count(side)
            series = np.empty((grid.nt + 1, n))
            for i, t in enumerate(times):
                series[i] = _side_axis_values(grid, side, fn, t)
            programs[side] = SideProgram(np.zeros(grid.nt + 1, dtype=bool), series)
    return programs


def _nodal(grid: Grid2D, data: Callable | np.ndarray | None) -> np.ndarray:
    if data is None:
        return np.zeros(grid.node_shape)
    if callable(data):
        X, Y = grid.meshgrid()
        return np.asarray(data(X, Y), dtype=np.float64) * np.ones(grid.node_shape)
    arr = np.asarray(data, dtype=np.float64)
    if arr.shape != grid.node_shape:
        raise ValueError(f"initial data shape {arr.shape} != {grid.node_shape}")
    return arr.copy()


def check_cfl(grid: Grid2D, eps: CoefficientField) -> None:
    eps_min = float(eps.values.min())
    if eps_min <= 0.0:
        raise StabilityError("permittivity must be strictly positive")
    bound = grid.h * math.sqrt(eps_min) / math.sqrt(2.0)
    if grid.dt > bound * (1.0 + 1e-12):
        raise StabilityError(
            f"CFL violation: dt={grid.dt:.3e} exceeds h*sqrt(min eps)/sqrt(2)="
            f"{bound:.3e}; rebuild the grid with a smaller cfl_safety or eps_min"
        )


class Leapfrog:
    """The discrete state operator: one leapfrog update and its Taylor start.

    Built once per (grid, eps, sigma, side programs, forcing), it holds the
    update coefficients, the four ghost slots of one reusable ghost-padded
    buffer and the forcing lookup.  The forward solve, the adjoint solve and
    the Lagrangian's defect all step through it, so each expression of the
    scheme is written once.  The padded buffer makes an instance
    non-reentrant.
    """

    def __init__(
        self,
        grid: Grid2D,
        eps: CoefficientField,
        sigma: CoefficientField,
        programs: Mapping[Side, SideProgram],
        forcing: Callable | np.ndarray | None = None,
    ) -> None:
        self.grid, self.eps, self.sigma = grid, eps, sigma
        dt = grid.dt
        eps_v, sig_v = eps.values, sigma.values
        self.a_plus = eps_v / dt**2 + sig_v / (2.0 * dt)
        self.a_mid = 2.0 * eps_v / dt**2
        self.a_minus = eps_v / dt**2 - sig_v / (2.0 * dt)
        self._pad = P = np.zeros((grid.nx + 3, grid.ny + 3))
        # (ghost row of the buffer, mirror row, boundary row, absorbing switch,
        # Neumann flux term 2 h g) per side
        self._ghosts = [
            (ghost, mirror, edge, programs[side].absorbing,
             None if programs[side].series is None else 2.0 * grid.h * programs[side].series)
            for side, ghost, mirror, edge in (
                (Side.LEFT, P[0, 1:-1], np.s_[1, :], np.s_[0, :]),
                (Side.RIGHT, P[-1, 1:-1], np.s_[-2, :], np.s_[-1, :]),
                (Side.BOTTOM, P[1:-1, 0], np.s_[:, 1], np.s_[:, 0]),
                (Side.TOP, P[1:-1, -1], np.s_[:, -2], np.s_[:, -1]),
            )
        ]
        if forcing is None:
            self.forcing = lambda n: 0.0
        elif isinstance(forcing, np.ndarray):
            self.forcing = forcing.__getitem__
        else:
            X, Y = grid.meshgrid()
            self.forcing = lambda n: np.asarray(forcing(X, Y, n * dt), dtype=np.float64)

    def laplacian(self, cur: np.ndarray, prev: np.ndarray, n: int) -> np.ndarray:
        """5-point Laplacian of snapshot n with the ghost-node closures; prev
        supplies the previous-level boundary values for the absorbing ghost."""
        h, dt = self.grid.h, self.grid.dt
        P = self._pad
        P[1:-1, 1:-1] = cur
        for ghost, mirror, edge, absorbing, flux in self._ghosts:
            ghost[...] = cur[mirror]
            if flux is not None:
                ghost += flux[n]
            if absorbing[n]:
                ghost -= 2.0 * h * (cur[edge] - prev[edge]) / dt
        return (
            P[2:, 1:-1] + P[:-2, 1:-1] + P[1:-1, 2:] + P[1:-1, :-2] - 4.0 * P[1:-1, 1:-1]
        ) / (h * h)

    def step(self, cur: np.ndarray, prev: np.ndarray, n: int) -> np.ndarray:
        """One leapfrog update: snapshots (n-1, n) -> n+1."""
        lap = self.laplacian(cur, prev, n)
        return (self.a_mid * cur - self.a_minus * prev + lap + self.forcing(n)) / self.a_plus

    def first_step(self, e0: np.ndarray, f1_v: np.ndarray) -> np.ndarray:
        """Taylor start producing E^1; the absorbing ghost takes e0 - dt f1 as
        the previous level in place of the undefined backward difference."""
        dt = self.grid.dt
        lap0 = self.laplacian(e0, e0 - dt * f1_v, 0)
        return e0 + dt * f1_v + dt**2 / (2.0 * self.eps.values) * (
            lap0 - self.sigma.values * f1_v + self.forcing(0)
        )


def leapfrog_levels(
    op: Leapfrog,
    f0: Callable | np.ndarray | None = None,
    f1: Callable | np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """Time-step the damped wave scheme and yield levels 0..nt in order.

    Only the two levels the next update needs are held; each yielded array
    is fresh, so a consumer may keep it.  The CFL and sign checks run before
    the first level is yielded.
    """
    grid = op.grid
    check_cfl(grid, op.eps)
    if float(op.sigma.values.min()) < 0.0:
        raise StabilityError("conductivity must be >= 0")
    prev = _nodal(grid, f0)
    cur = op.first_step(prev, _nodal(grid, f1))
    if not (np.isfinite(prev).all() and np.isfinite(cur).all()):
        raise StabilityError("non-finite field values at start-up")
    yield prev
    yield cur
    for n in range(1, grid.nt):
        prev, cur = cur, op.step(cur, prev, n)
        if not np.isfinite(cur).all():
            raise StabilityError(f"non-finite field values at step {n + 1}")
        yield cur


def forward_operator(
    grid: Grid2D,
    eps: CoefficientField,
    sigma: CoefficientField,
    src: SourceSpec,
    bc: BcConfig,
) -> Leapfrog:
    """The state operator of the forward problem: boundary programs from
    (src, bc) and the source's volume forcing."""
    return Leapfrog(grid, eps, sigma, build_forward_programs(grid, src, bc), src.volume_forcing)


def forward_levels(
    grid: Grid2D,
    eps: CoefficientField,
    sigma: CoefficientField,
    src: SourceSpec,
    bc: BcConfig,
) -> Iterator[np.ndarray]:
    """The forward solution's levels 0..nt, one at a time."""
    return leapfrog_levels(forward_operator(grid, eps, sigma, src, bc), src.f0, src.f1)


def solve_forward(
    grid: Grid2D,
    eps: CoefficientField,
    sigma: CoefficientField,
    src: SourceSpec,
    bc: BcConfig,
) -> SpaceTimeField:
    """Solve the forward problem and return the full snapshot stack."""
    snaps = np.empty((grid.nt + 1, *grid.node_shape))
    for n, level in enumerate(forward_levels(grid, eps, sigma, src, bc)):
        snaps[n] = level
    return SpaceTimeField(grid=grid, snapshots=snaps, kind=FieldKind.STATE)


def forward_trace(
    grid: Grid2D,
    eps: CoefficientField,
    sigma: CoefficientField,
    src: SourceSpec,
    bc: BcConfig,
    sides: Iterable[Side],
) -> BoundaryTrace:
    """The forward solution's boundary trace on the given sides, taken level
    by level so that no snapshot stack is stored."""
    return trace_of_levels(grid, forward_levels(grid, eps, sigma, src, bc), sides)


def _dirichlet_product(grid: Grid2D, u: np.ndarray, v: np.ndarray) -> float:
    """Edge-midpoint quadrature of grad(u).grad(v); the discrete Dirichlet
    form under which the 5-point Laplacian with mirror ghosts is
    self-adjoint, so the leapfrog energy built from it telescopes exactly."""
    wx = np.ones(grid.nx + 1)
    wx[0] = wx[-1] = 0.5
    wy = np.ones(grid.ny + 1)
    wy[0] = wy[-1] = 0.5
    dux = np.diff(u, axis=0)
    dvx = np.diff(v, axis=0)
    duy = np.diff(u, axis=1)
    dvy = np.diff(v, axis=1)
    sx = float(np.einsum("ij,ij,j->", dux, dvx, wy))
    sy = float(np.einsum("ij,ij,i->", duy, dvy, wx))
    return sx + sy


def discrete_energy(
    E: SpaceTimeField,
    eps: CoefficientField,
    sigma: CoefficientField,
    n: int,
) -> float:
    """Discrete wave energy between levels n-1 and n.

    Velocity part: eps-weighted nodal L2 norm of the backward difference
    quotient.  Gradient part: the symmetric product form of the two levels,
    which is the quantity the undamped all-Neumann scheme conserves to
    round-off (the squared midpoint gradient drifts at O(dt^2) per period
    and would mask both the conservation and the damping monotonicity).
    """
    if not 1 <= n <= E.grid.nt:
        raise ValueError(f"time index {n} outside 1..{E.grid.nt}")
    g = E.grid
    w = area_weights(g)
    vel = (E.snapshots[n] - E.snapshots[n - 1]) / g.dt
    kinetic = float(np.sum(w * eps.values * vel * vel))
    return kinetic + _dirichlet_product(g, E.snapshots[n], E.snapshots[n - 1])
