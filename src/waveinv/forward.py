"""Explicit finite-difference time-domain solver for the scalar damped wave
system  eps * E_tt + sigma * E_t - lap(E) = f  on a rectangle.

Scheme
------
Leapfrog in time with the damping term centered over two steps, which keeps
the update explicit and second order:

    (eps/dt^2 + sigma/(2 dt)) E^{n+1}
        = (2 eps/dt^2) E^n - (eps/dt^2 - sigma/(2 dt)) E^{n-1} + lap_h E^n + f^n

lap_h is the 5-point Laplacian; boundary conditions enter through one layer
of ghost nodes, filled side by side:

    zero Neumann        ghost = mirror
    Neumann data g      ghost = mirror + 2 h g(t_n)
    absorbing dE/dn=-dE/dt   ghost = mirror - 2 h (E^n_b - E^{n-1}_b) / dt

The absorbing term involves only the boundary node's own values E^n_b and
E^{n-1}_b, so it is no ghost value at all in the code: it moves those nodes'
coefficients of E^n and E^{n-1} (the absorbing closure, see Leapfrog), and
the ghost rows hold the mirror and Neumann terms alone.  This is also the
form in which the adjoint must transpose it.

The first step is the Taylor start
    E^1 = E^0 + dt f1 + dt^2/(2 eps) (lap_h E^0 - sigma f1 + f^0),
which keeps second-order accuracy for nonzero initial data; its absorbing
closure takes E^0 - dt f1 as the previous level.  The start data f0, f1
belong to the operator, as its forcing does; the adjoint's are zero.

Leapfrog holds this update once.  The forward solve, the Lagrangian's
defect and the adjoint solve all step through its advance(), the adjoint
through the operator that Leapfrog.adjoint builds, which shares the
forward operator's coefficients (StepCoefficients) and owns only its
levels.  leapfrog_levels is the one time loop: it yields each level as it
is computed, and each caller uses a level as it arrives and copies only
what it keeps (trace_of_levels, the ForwardSolution below, the gradient
sweep).

Every level lives in a ghost-padded buffer, a PaddedLevel, which alone
knows the layout and allocates level memory (see there); the loops yield
these objects themselves.  Finiteness is checked once per block of about
sqrt(nt) levels, not at every level: a non-finite value never leaves this
linear recursion, so a blow-up shows at the next check, and the solve is
then replayed with every level checked so that the error names the first
non-finite step.

The gradient pairs the forward levels with the multiplier backward in
time.  solve_forward therefore returns a ForwardSolution: the boundary
trace of all sides and the last two levels, from which levels_backward()
steps E^nt..E^0 back through the update solved for its oldest level, the
perimeter from the trace (the boundary saving of reverse-time migration:
Symes 2007; re-anchored in damped media, Yang et al. 2016), with no
snapshot stack; multiplier(obs) streams lam^nt..lam^0, the adjoint that
the solve's own residual drives, formed from its trace and obs a window of
levels at a time (ResidualWindow).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .grid import ALL_SIDES, Grid2D, Side, perimeter_nodes, perimeter_offsets
from .fields import BoundaryTrace, CoefficientField, trace_columns


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
        if not 0.0 < self.omega < math.inf:
            raise ValueError(f"omega must be positive and finite, got {self.omega!r}")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude!r}")
        if self.t_on is not None and not self.t_on > 0.0:  # NaN would never switch
            raise ValueError(f"t_on must be positive, got {self.t_on!r}")

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


@dataclass(frozen=True)
class SideProgram:
    """Resolved per-side boundary behaviour over the whole time axis.

    absorbing[n] switches the outflow ghost term on at level n;
    series[n] is the Neumann ghost term 2 h g(t_n) at level n, the flux
    data g already scaled, a value per side node in node order or one value
    for the whole side (None means zero flux).  Where window is set, a
    series is a view of its columns and holds level n at row window.row(n).
    """

    absorbing: np.ndarray
    series: np.ndarray | None
    window: ResidualWindow | None = None


WINDOW = 64  # adjoint levels whose boundary data are formed at once


class ResidualWindow:
    """The adjoint's observed-side ghost terms 2 h g, g = -(trace - obs)(T - s),
    WINDOW adjoint levels s at a time: row s - start of values is
    -2h (trace[nt - s] - obs[nt - s]) on obs's columns of trace, or
    -2h trace[nt - s] where obs is None.  These are the element operations
    of the whole residual reversed and scaled, so the multiplier is bitwise
    the same, while only min(WINDOW, nt + 1) rows are held.  It keeps trace
    and obs, never an operator, so no operator is kept alive by a cycle."""

    def __init__(self, trace: BoundaryTrace, obs: BoundaryTrace | None) -> None:
        grid, sides = trace.grid, trace.sides if obs is None else obs.sides
        self._trace, self._cols = trace.values, trace_columns(trace, sides)
        self._obs = None if obs is None else obs.values
        self._nt, self._scale = grid.nt, -2.0 * grid.h
        self.start = self.stop = 0
        start = perimeter_offsets(grid, sides)
        self.values = np.empty((min(WINDOW, grid.nt + 1), start[-1]))
        # each side's series, the view of its columns
        self.series = {side: self.values[:, a:b] for side, a, b in zip(sides, start, start[1:])}

    def row(self, s: int) -> int:
        """The row of values that holds adjoint level s, formed if it is
        not in the window."""
        if not self.start <= s < self.stop:
            start = s - s % WINDOW
            hi = self._nt + 1 - start  # forward levels hi - 1 down to lo
            lo = max(hi - WINDOW, 0)
            out = self.values[:hi - lo]
            out[...] = self._trace[lo:hi, self._cols][::-1]
            if self._obs is not None:
                out -= self._obs[lo:hi][::-1]
            out *= self._scale
            self.start, self.stop = start, start + hi - lo
        return s - self.start


def _side_axis_values(grid: Grid2D, side: Side, fn: Callable, t: float) -> np.ndarray:
    x, y = grid.side_coords(side)
    return np.asarray(fn(x, y, t), dtype=np.float64) * np.ones(grid.side_node_count(side))


def build_forward_programs(
    grid: Grid2D, src: SourceSpec, bc: BcConfig
) -> dict[Side, SideProgram]:
    times = grid.times()
    flux = 2.0 * grid.h
    programs: dict[Side, SideProgram] = {}
    for side in ALL_SIDES:
        kind = bc.kind(side)
        if kind is BcKind.NEUMANN_ZERO:
            programs[side] = SideProgram(np.zeros(grid.nt + 1, dtype=bool), None)
        elif kind is BcKind.ABSORBING:
            programs[side] = SideProgram(np.ones(grid.nt + 1, dtype=bool), None)
        elif kind is BcKind.SOURCE_THEN_ABSORBING:
            # absorbing after t_on, the pulse acting up to and including t_on
            absorbing = times > src.switch_time() + 1e-14
            pulse = np.where(absorbing, 0.0, src.amplitude * np.sin(src.omega * times))
            programs[side] = SideProgram(absorbing, (pulse * flux)[:, None])
        else:  # NEUMANN_DATA
            fn = bc.neumann_data[side]
            n = grid.side_node_count(side)
            series = np.empty((grid.nt + 1, n))
            for i, t in enumerate(times):
                series[i] = _side_axis_values(grid, side, fn, t)
            series *= flux
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


class PaddedLevel:
    """One ghost-padded (nx+3, ny+3) level buffer (pad, and flat, the same
    buffer as one run), nodes at [1:-1, 1:-1], with the views that a
    leapfrog step reads or writes made once: the node view (nodes), the run
    of rows 1..nx+1 with their ghost columns (rows), that run shifted to
    each of the four neighbours (neighbours), and per side in ALL_SIDES
    order its ghost row or column and the mirror one step inward (ghosts,
    at the SLOTS of pad).  The time loops yield these objects, and this
    class is the one owner of the layout.  Only a level that is stepped
    from reads neighbours or ghosts: they are made on first use.

    This class allocates all level memory.  It over-allocates one cache
    line and places the buffer in it so that rows starts on a 64-byte line,
    where numpy stores an out= run on its aligned vector path (2.3-2.6 times
    faster at a 200² level).  rows begins ny+3 doubles into the buffer, so
    in a buffer that is only 16-byte aligned, as malloc returns it, rows of
    an even ny never start on a line.  The scratch runs of the step and of
    the gradient sums are rows of their own levels for the same reason."""

    LINE = 8  # doubles per 64-byte cache line
    # (ghost, mirror) of LEFT, BOTTOM, RIGHT and TOP
    SLOTS = (
        (np.s_[0, 1:-1], np.s_[2, 1:-1]),
        (np.s_[1:-1, 0], np.s_[1:-1, 2]),
        (np.s_[-1, 1:-1], np.s_[-3, 1:-1]),
        (np.s_[1:-1, -1], np.s_[1:-1, -3]),
    )

    def __init__(self, grid: Grid2D) -> None:
        """A zero level, its rows on a cache line."""
        w, size = grid.ny + 3, (grid.nx + 3) * (grid.ny + 3)
        buffer = np.zeros(size + self.LINE)
        skip = -(buffer.ctypes.data // 8 + w) % self.LINE
        self.flat = buffer[skip:skip + size]
        self.pad = pad = self.flat.reshape(grid.nx + 3, w)
        self.nodes = pad[1:-1, 1:-1]
        self.rows = buffer[skip + w:skip + size - w]

    @cached_property
    def neighbours(self) -> tuple[np.ndarray, ...]:
        """The run rows shifted up, down, right and left."""
        p, w = self.flat, self.pad.shape[1]
        lo, hi = w, p.size - w
        return p[lo + w:hi + w], p[lo - w:hi - w], p[lo + 1:hi + 1], p[lo - 1:hi - 1]

    @cached_property
    def ghosts(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(ghost, mirror) of each side, in ALL_SIDES order."""
        return tuple((self.pad[g], self.pad[m]) for g, m in self.SLOTS)

    @classmethod
    def of(cls, grid: Grid2D, values: np.ndarray) -> "PaddedLevel":
        """A level holding the nodal values, its ghosts zero."""
        level = cls(grid)
        level.nodes[...] = values
        return level

    @staticmethod
    def boundary_rows(grid: Grid2D, sides: Sequence[Side]) -> np.ndarray:
        """The index in rows of each node of the perimeter layout of the
        sides: node (i, j) sits at i (ny+3) + j + 1."""
        nodes = perimeter_nodes(grid, sides)
        return nodes + 2 * (nodes // (grid.ny + 1)) + 1


def _block(nt: int) -> int:
    """Levels per block between the finiteness checks of a time loop: about
    sqrt(nt), at least 3."""
    return max(math.isqrt(nt) + 1, 3)


class StepCoefficients:
    """The coefficients of one leapfrog update at a (grid, eps, sigma) in
    the rows layout, zero in the ghost columns (see Leapfrog), with a step's
    scratch level, the finiteness flags and the absorbing closure's
    perimeter tables: built by a forward operator and shared with each
    adjoint it builds.  c_cur and c_prev are closed at the perimeter for
    applied, the pair of absorbing patterns that close() patched in last;
    each step compares its own pair with it, so the forward, reverse and
    adjoint steps that share them may interleave in any order."""

    def __init__(self, grid: Grid2D, eps: np.ndarray, sigma: np.ndarray, a_plus: np.ndarray,
                 patterns: Iterable[int]) -> None:
        h, dt = grid.h, grid.dt
        # E^{n+1} = c_lap * (neighbour sum) + c_cur E^n - c_prev E^{n-1} + f^n / a_plus,
        # with a_mid = 2 eps/dt^2 and a_minus = eps/dt^2 - sigma/(2 dt) formed
        # inline so that no more levels than needed are alive at once
        self.c_cur = PaddedLevel.of(grid, (2.0 * eps / dt**2 - 4.0 / h**2) / a_plus).rows
        self.c_prev = PaddedLevel.of(grid, (eps / dt**2 - sigma / (2.0 * dt)) / a_plus).rows
        self.c_lap = PaddedLevel.of(grid, 1.0 / (a_plus * h**2)).rows
        self.scratch = PaddedLevel(grid)
        self.finite = np.empty((grid.nx + 3, grid.ny + 3), dtype=bool)

        # the perimeter nodes' indices in rows, each node once; the position
        # among them of each node of the perimeter layout; and c_cur, c_prev
        # there with no side absorbing
        self.edge, edge_of = np.unique(
            PaddedLevel.boundary_rows(grid, ALL_SIDES), return_inverse=True)
        self.open = (self.c_cur[self.edge], self.c_prev[self.edge])
        self.applied = (0, 0)  # the coefficients above close no side
        # per pattern, 2h/dt times each perimeter node's number of absorbing sides
        side_of = np.repeat(np.arange(len(ALL_SIDES)), np.diff(perimeter_offsets(grid, ALL_SIDES)))
        self.closure = {
            pattern: 2.0 * h / dt * np.bincount(edge_of, weights=pattern >> side_of & 1)
            for pattern in set(patterns)
        }

    def close(self, cur: int, prev: int) -> None:
        """Patch the perimeter entries of c_cur to the absorbing pattern cur
        and those of c_prev to prev."""
        self.applied = cur, prev
        c_lap = self.c_lap[self.edge]
        self.c_cur[self.edge] = self.open[0] - c_lap * self.closure[cur]
        self.c_prev[self.edge] = self.open[1] - c_lap * self.closure[prev]


class Leapfrog:
    """The discrete state operator: one leapfrog update and its Taylor start.

    Built once per (grid, eps, sigma, side programs, source), it holds the
    update coefficients (StepCoefficients: the runs, the absorbing closure's
    perimeter tables, scratch space) and the forcing lookup, and keeps eps,
    sigma, the programs and the source's start data f0, f1: a forward
    operator is the linearization point from which the adjoint solve and the
    gradient read theirs.  coefficients, where given, are shared: they are
    those of an operator at the same grid, eps, sigma and absorbing
    patterns, as an adjoint's are its forward operator's.

    advance() fills the ghosts of the current level in place and writes the
    next level's rows, ghost columns included: every operand is one
    contiguous run (numpy copies strided operands through a scratch
    buffer), and the coefficients are kept in that layout with zero ghost
    columns.  Each side's ghosts get its mirror plus its series, the ghost
    term 2 h g already scaled.  The instance owns three PaddedLevels
    (levels), which leapfrog_levels rotates through, first_step() and the
    Lagrangian's defect fill, and a ForwardSolution's reverse steps reuse:
    an instance runs one of these at a time, it is non-reentrant.  An
    adjoint has levels of its own, so it may step while its forward
    operator steps back.

    The absorbing closure.  An absorbing side's ghost term
    -(2h/dt)(E^n_b - E^{n-1}_b) enters the update of its boundary node b
    as c_lap (2h/dt) times E^{n-1}_b minus the same times E^n_b, so it is
    applied by subtracting c_lap 2h/dt from c_cur and from c_prev at b, once
    per absorbing side: twice at a corner that two absorbing sides share.
    Which sides absorb at level n (its pattern) is read from the side
    programs, and the closure vector of each pattern, 2h/dt times every
    perimeter node's number of absorbing sides, is computed once, with the
    coefficients.  Before a step from level n the perimeter entries of
    c_cur and c_prev are patched in place from that table whenever level
    n's pattern, or for c_prev that of level n - lag, differs from the pair
    the shared coefficients last applied.  Only the switched source side
    changes, so an operator has at most two patterns and a pass patches at
    most three times, at its start and around the switch; every advance()
    reads the patterns of its own n, never those of the previous call.  lag
    is 0 but for the adjoint, whose c_prev stands in the transpose for the
    forward row one level later.
    """

    def __init__(
        self,
        grid: Grid2D,
        eps: CoefficientField,
        sigma: CoefficientField,
        programs: Mapping[Side, SideProgram],
        src: SourceSpec | None = None,
        lag: int = 0,
        coefficients: StepCoefficients | None = None,
    ) -> None:
        self.grid, self.eps, self.sigma, self.programs = grid, eps, sigma, programs
        self.lag = lag
        forcing, self.f0, self.f1 = (None, None, None) if src is None else (
            src.volume_forcing, src.f0, src.f1)
        dt = grid.dt
        # the pattern per level: bit k set when side ALL_SIDES[k] absorbs
        self._pattern = sum(
            programs[side].absorbing.astype(int) << k for k, side in enumerate(ALL_SIDES)
        ).tolist()
        a_plus = None
        if coefficients is None or forcing is not None:
            a_plus = eps.values / dt**2 + sigma.values / (2.0 * dt)
        # only the forcing term reads a_plus after this
        self._a_plus = None if forcing is None else a_plus
        self.coefficients = coef = coefficients or StepCoefficients(
            grid, eps.values, sigma.values, a_plus, self._pattern)
        # the runs that every step reads
        self._c_cur, self._c_prev, self._c_lap = coef.c_cur, coef.c_prev, coef.c_lap
        self._scratch = coef.scratch.rows
        self.levels = [PaddedLevel(grid) for _ in range(3)]
        self._series = [programs[side].series for side in ALL_SIDES]
        self._window = next((p.window for p in programs.values() if p.window is not None), None)

        if forcing is None:
            self.forcing = None
        elif isinstance(forcing, np.ndarray):
            if forcing.shape != (grid.nt + 1, *grid.node_shape):
                raise ValueError(f"volume forcing shape {forcing.shape}, not (nt+1, nx+1, ny+1)")
            self.forcing = forcing.__getitem__
        else:
            X, Y = grid.meshgrid()
            self.forcing = lambda n: np.asarray(forcing(X, Y, n * dt), dtype=np.float64)

    def _neighbour_sum(self, cur: PaddedLevel, n: int, out: np.ndarray) -> np.ndarray:
        """Fill the ghosts of level n (cur) side by side with their mirrors
        plus the side's Neumann term, and write the sum of every node's four
        neighbours into the run out (its ghost columns get junk)."""
        k = n if self._window is None else self._window.row(n)
        for (ghost, mirror), series in zip(cur.ghosts, self._series):
            if series is None:
                ghost[...] = mirror
            else:
                np.add(mirror, series[k], out=ghost)
        up, down, right, left = cur.neighbours
        np.add(up, down, out=out)
        out += right
        out += left
        return out

    def advance(self, cur: PaddedLevel, prev: PaddedLevel, n: int, out: PaddedLevel) -> None:
        """One leapfrog update, levels (n-1, n) -> n+1, written into the rows
        of out, whose ghost columns come out zero; out must be neither cur
        nor prev, and its ghosts are filled when it is stepped from."""
        patterns = self._pattern[n], self._pattern[n - self.lag]
        if patterns != self.coefficients.applied:
            self.coefficients.close(*patterns)
        rows = self._neighbour_sum(cur, n, out.rows)
        rows *= self._c_lap
        rows += np.multiply(self._c_cur, cur.rows, out=self._scratch)
        rows -= np.multiply(self._c_prev, prev.rows, out=self._scratch)
        if self.forcing is not None:
            out.nodes += self.forcing(n) / self._a_plus

    def first_step(self, e0: np.ndarray) -> np.ndarray:
        """Taylor start from level e0 and the operator's initial velocity
        f1, producing E^1; the absorbing closure takes e0 - dt f1 as the
        previous level in place of the undefined backward difference.  Its
        terms are formed in the operator's levels and in f1's array, which
        it returns, so that beyond that array it allocates only numpy's
        buffers for strided operands (and the forcing's f^0)."""
        dt, h, coef = self.grid.dt, self.grid.h, self.coefficients
        f1_v = _nodal(self.grid, self.f1)
        pc, pp, po = self.levels
        pc.nodes[...] = e0
        np.subtract(e0, np.multiply(dt, f1_v, out=pp.nodes), out=pp.nodes)
        edge = coef.edge
        total = self._neighbour_sum(pc, 0, po.rows)
        # the Taylor start has no c_cur, c_prev to carry the closure, so its
        # ghost terms enter the neighbour sum
        total[edge] -= coef.closure[self._pattern[0]] * (pc.rows[edge] - pp.rows[edge])
        # rhs = (N - 4 e0) / h^2 - sigma f1 + f^0 in po, pp the products' scratch
        rhs = po.nodes
        rhs -= np.multiply(4.0, e0, out=pp.nodes)
        rhs /= h**2
        rhs -= np.multiply(self.sigma.values, f1_v, out=pp.nodes)
        if self.forcing is not None:
            rhs += self.forcing(0)
        # e0 + dt f1 + dt^2 / (2 eps) rhs
        e1 = np.add(e0, np.multiply(dt, f1_v, out=f1_v), out=f1_v)
        step = np.divide(dt**2, np.multiply(2.0, self.eps.values, out=pp.nodes), out=pp.nodes)
        step *= rhs
        e1 += step
        return e1

    def retreat(self, cur: PaddedLevel, later: PaddedLevel, n: int, out: PaddedLevel,
                divisor: np.ndarray, edge: np.ndarray, perimeter: np.ndarray) -> None:
        """The update from level n solved for its oldest level, (n, n+1) -> n-1,
        into the rows of out: (c_lap N(E^n) + c_cur E^n + f^n/a_plus - E^{n+1})
        / divisor, the run of open_prev(); the perimeter nodes (rows index edge),
        where a closed c_prev may be near zero, are then set to perimeter.  So
        no node that this step yields reads a closed entry of c_cur: the step
        needs no pattern, whichever one the shared coefficients hold."""
        up, down, right, left = cur.neighbours
        rows = np.add(up, down, out=out.rows)
        rows += right
        rows += left
        rows *= self._c_lap
        rows += np.multiply(self._c_cur, cur.rows, out=self._scratch)
        if self.forcing is not None:
            out.nodes += self.forcing(n) / self._a_plus
        rows -= later.rows
        rows /= divisor
        rows.put(edge, perimeter)

    def open_prev(self, out: np.ndarray) -> np.ndarray:
        """c_prev with no side absorbing, a_minus/a_plus, into the run out in
        the rows layout, 1 in the ghost columns, where retreat() divides."""
        np.copyto(out, self._c_prev)
        out[self.coefficients.edge] = self.coefficients.open[1]
        out.reshape(self.grid.nx + 1, -1)[:, ::self.grid.ny + 2] = 1.0
        return out

    def mid_over_plus(self, out: np.ndarray) -> np.ndarray:
        """a_mid/a_plus = 1 + open_prev(), the weight of the new level in
        the Taylor start over that in a leapfrog step, in the run out."""
        out = self.open_prev(out)
        out += 1.0
        return out

    def adjoint(self, trace: BoundaryTrace, obs: BoundaryTrace | None = None) -> "Leapfrog":
        """The adjoint operator of this forward operator, driven by the
        boundary residual trace - obs on obs's sides (trace may hold more
        sides), or by trace itself where obs is None: leapfrog_levels of it
        yields the multiplier lam^nt (the zero terminal state) first and
        lam^0 last.

        After substituting s = T - t the adjoint equation
            eps * lam_tt - sigma * lam_t - lap(lam) = 0,   lam(T) = lam_t(T) = 0
        turns into the forward damped-wave scheme in s with zero initial
        data: this scheme at the same grid, eps and sigma, each side program
        run backward in time.  A side absorbs at level s exactly where the
        forward side absorbs at level nt - s, time T - s (the formal adjoint
        of the first-order outflow condition); observation sides get the
        Neumann ghost source -residual(T - s), composed with the outflow
        term where both apply; the forward Neumann data, volume forcing and
        start data do not enter.

        The multiplier is the transpose of the discrete forward scheme, to
        round-off.  Its last level lam^0 is in the units of a leapfrog step,
        a_plus = eps/dt^2 + sigma/(2 dt), and the forward's Taylor start,
        row 0, in those of a_mid = 2 eps/dt^2, so row 0's multiplier is
        mu^0 = lam^0 a_plus/a_mid; gradient_sweep forms it (mid_over_plus)
        and the stream keeps lam^0.  Two fixes make the other levels
        agree.  The scheme's Taylor start weights level nt by 2 eps/dt^2,
        where the transpose takes half of a leapfrog step from two zero
        levels, weighted by eps/dt^2 + sigma/(2 dt): _levels scales the
        operator's first level by the ratio, (1 + c_prev)/2.  The transpose
        closes a step's c_cur and c_prev at the absorbing patterns of two
        adjacent levels: the operator has lag 1, so its c_prev is closed at
        the pattern of the previous adjoint level.

        So the gradient is the exact derivative of the discrete functional,
        also where start data, forcing at n = 0 or Neumann data at t = 0
        make E^1 != 0 (gradient.py).

        No residual trace is formed: the ghost term 2 h g, g = -(trace -
        obs)(T - s), is formed WINDOW levels at a time into one
        ResidualWindow, each observed side's series is the view of its own
        columns of it, and the absorbing flags are reversed views.  Nor is
        a coefficient formed: the adjoint shares this operator's
        StepCoefficients (its patterns are these, reversed) and owns its
        three levels.  So the sweep holds trace and obs, which its caller
        holds anyway, one window of boundary data and three levels."""
        grid = self.grid
        for t in (trace,) if obs is None else (trace, obs):
            if t.grid.nt != grid.nt or t.grid.node_shape != grid.node_shape:
                raise ValueError("residual trace does not match the grid")
        window = ResidualWindow(trace, obs)
        programs = {side: SideProgram(p.absorbing[::-1], window.series.get(side), window)
                    for side, p in self.programs.items()}
        return Leapfrog(grid, self.eps, self.sigma, programs, lag=1,
                        coefficients=self.coefficients)


def _levels(op: Leapfrog, block: int) -> Iterator[PaddedLevel]:
    """Levels 0..nt in three rotating padded levels, from the operator's
    start data, checked at start-up, where n % block < 2 and at nt."""
    grid = op.grid
    levels = op.levels
    e0, e1 = levels[0].nodes, levels[1].nodes
    e0[...] = _nodal(grid, op.f0)
    e1[...] = op.first_step(e0)
    if op.lag:
        # the adjoint's first level in the transpose's units: a_mid / (2 a_plus)
        factor = op.mid_over_plus(op._scratch)
        factor *= 0.5
        levels[1].rows *= factor
    if not (np.isfinite(e0).all() and np.isfinite(e1).all()):
        raise StabilityError("non-finite field values at start-up")
    yield from levels[:2]
    prev, cur = levels[:2]
    # levels 2..nt go to buffers 2, 0, 1, 2, ...
    for n, out in zip(range(2, grid.nt + 1), itertools.cycle(levels[2:] + levels[:2])):
        op.advance(cur, prev, n - 1, out)
        if (n % block < 2 or n == grid.nt) and not _finite(op, out):
            raise StabilityError(f"non-finite field values at step {n}")
        yield out
        prev, cur = cur, out


def _finite(op: Leapfrog, level: PaddedLevel) -> bool:
    """Whether the nodes of level are finite, checked over its whole buffer
    into the operator's flags: isfinite of a strided view would copy it."""
    return bool(np.isfinite(level.pad, out=op.coefficients.finite)[1:-1, 1:-1].all())


def leapfrog_levels(op: Leapfrog) -> Iterator[PaddedLevel]:
    """Time-step the damped wave scheme from the operator's start data and
    yield levels 0..nt in order.

    Each level is one of the operator's three PaddedLevels, in rotation, so
    a yielded level stays valid until two more levels have been yielded: a
    consumer may hold the two most recent levels but must copy any level it
    keeps longer.  No step reads level n once level n+2 is out, so from then
    on a consumer may overwrite its rows (gradient_sweep forms a difference
    there), which the step to level n+3 writes whole.  A consumer that
    streams over many levels reads each level's rows, one contiguous run,
    rather than its strided nodes.

    The CFL and sign checks run before the first level is yielded.  Levels
    0 and 1, the first two levels of every block of _block(nt) levels and
    level nt are checked finite before they are yielded (a consumer that
    writes out another level checks it itself), which catches a blow-up at
    the next block; the solve is then replayed with every level checked,
    and the StabilityError names the first non-finite step.
    """
    grid = op.grid
    check_cfl(grid, op.eps)
    if float(op.sigma.values.min()) < 0.0:
        raise StabilityError("conductivity must be >= 0")
    try:
        yield from _levels(op, _block(grid.nt))
    except (StabilityError, RuntimeWarning):
        # a RuntimeWarning is the blow-up's first NaN or overflow, raised by
        # numpy under an "error" warnings filter before any check sees it
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in _levels(op, 1):
                pass
        raise


# growth allowed to a reverse step's error between re-anchor pairs; at sigma = 10,
# eps = 1, 100², T = 6 the worst level error reads 1.7e-12 of max|E| (6.8e+2 with no pair)
ANCHOR_GROWTH = 1e5


def _anchor_spacing(op: Leapfrog) -> int:
    """Levels between re-anchor pairs: the largest L with g^L <= ANCHOR_GROWTH,
    g = max a_plus/a_minus = 1/min c_prev (no side absorbing) ~ exp(sigma dt/eps),
    an error's growth per reverse step; 1, every level kept, where a_minus <= 0."""
    low = float(op.open_prev(op._scratch).min())  # the ghost columns' 1 is no lower
    spacing = math.log(ANCHOR_GROWTH) / -math.log(low) if 0.0 < low < 1.0 else math.inf
    return max(int(min(spacing, op.grid.nt + 1)), 1) if low > 0.0 else 1


class ForwardSolution:
    """A forward solve held as its all-sides boundary trace and a few levels
    in place of its snapshot stack.

    Its one leapfrog_levels pass copies the nodes of each level n with
    (nt - n) % L < 2, L = _anchor_spacing(op), into PaddedLevels (kept):
    the last two levels and a re-anchor pair every L levels below them.
    levels_backward() steps back from them (Leapfrog.retreat), so the kept
    levels and the perimeter are bitwise the pass's, and the interior's
    round-off grows by at most ANCHOR_GROWTH from one pair to the next.  A
    solve holds the trace and 2 + 2 nt/L levels, and one more, the reverse
    step's divisor, while it steps back.
    """

    def __init__(self, op: Leapfrog) -> None:
        grid = self.grid = op.grid
        self.op, self.kept = op, {}
        spacing = _anchor_spacing(op)

        def keep(levels: Iterator[PaddedLevel]) -> Iterator[PaddedLevel]:
            for n, level in enumerate(levels):
                if (grid.nt - n) % spacing < 2:
                    self.kept[n] = PaddedLevel.of(grid, level.nodes)
                yield level

        self.trace = trace_of_levels(grid, keep(leapfrog_levels(op)), ALL_SIDES)

    def multiplier(self, obs: BoundaryTrace) -> Iterator[PaddedLevel]:
        """lam^nt, ..., lam^0: leapfrog_levels of the adjoint that this
        solve's residual on obs's sides drives, read from its trace and obs
        a window at a time; no residual trace is formed."""
        return leapfrog_levels(self.op.adjoint(self.trace, obs))

    def levels_backward(self) -> Iterator[PaddedLevel]:
        """Levels nt, nt-1, ..., 0, each valid until two more are yielded, as
        from leapfrog_levels: the kept ones as they are, the others stepped
        back one at a time into the operator's three levels, level n into
        levels[n % 3], which holds none of the two levels it is stepped
        from, and checked finite where n % _block(nt) < 2."""
        grid, op, b = self.grid, self.op, _block(self.grid.nt)
        divisor = op.open_prev(PaddedLevel(grid).rows)
        edge = PaddedLevel.boundary_rows(grid, ALL_SIDES)
        cur = later = None  # levels n+1 and n+2
        for n in range(grid.nt, -1, -1):
            level = self.kept.get(n)
            if level is None:
                level = op.levels[n % 3]
                op.retreat(cur, later, n + 1, level, divisor, edge, self.trace.values[n])
                if n % b < 2 and not _finite(op, level):
                    raise StabilityError(f"non-finite field values at level {n}, stepping back")
            yield level
            cur, later = level, cur


def forward_operator(
    grid: Grid2D,
    eps: CoefficientField,
    sigma: CoefficientField,
    src: SourceSpec,
    bc: BcConfig,
) -> Leapfrog:
    """The state operator of the forward problem: boundary programs from
    (src, bc), and the source's volume forcing and start data."""
    return Leapfrog(grid, eps, sigma, build_forward_programs(grid, src, bc), src)


def solve_forward(
    grid: Grid2D,
    eps: CoefficientField,
    sigma: CoefficientField,
    src: SourceSpec,
    bc: BcConfig,
) -> ForwardSolution:
    """Solve the forward problem, keeping its boundary trace and the levels
    from which it steps back in time."""
    return ForwardSolution(forward_operator(grid, eps, sigma, src, bc))


def trace_of_levels(
    grid: Grid2D, levels: Iterable[PaddedLevel], sides: Iterable[Side]
) -> BoundaryTrace:
    """Boundary trace of state levels 0..nt given one at a time, so a
    stream of levels yields its trace without being stored.  Each level's
    boundary nodes are gathered from its rows in one call into its row of
    the (nt+1, P) array that the trace then holds, with no further copy."""
    sides = tuple(sorted(set(Side(s) for s in sides)))
    if not sides:
        raise ValueError("at least one side must be declared")
    index = PaddedLevel.boundary_rows(grid, sides)
    gathered = None
    # strict: a stream of any other length than nt+1 levels is an error
    for n, level in zip(range(grid.nt + 1), levels, strict=True):
        if gathered is None:  # once level 0 is out, the start-up's temporaries are gone
            gathered = np.empty((grid.nt + 1, index.size))
        level.rows.take(index, out=gathered[n], mode="clip")  # "raise" buffers out
    return BoundaryTrace(grid=grid, sides=sides, values=gathered)


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
    op = forward_operator(grid, eps, sigma, src, bc)
    return trace_of_levels(grid, leapfrog_levels(op), sides)
