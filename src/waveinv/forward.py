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
loop: it yields each level as it is computed, and each caller uses a level
as it arrives and copies only what it keeps (forward_trace, the
ForwardSolution below, adjoint_levels).

Every level lives in a ghost-padded (nx+3, ny+3) buffer, a PaddedLevel,
for as long as it is stepped from: a step fills the ghosts of the current
level in place and writes the new level's rows straight into the next
buffer, with every operand one contiguous run of memory.  A loop yields a
level as the node view [1:-1, 1:-1] of its buffer; consumers that stream
over levels read each as one contiguous run (fields.level_run), since numpy
copies a strided operand through a scratch buffer.  Finiteness is checked
once per block of about sqrt(nt) levels, not at every level: a non-finite
value never leaves this linear recursion, so a blow-up shows at the next
check, and the solve is then replayed with every level checked so that the
error names the first non-finite step.

The gradient pairs the forward levels with the multiplier backward in
time.  solve_forward therefore returns a ForwardSolution: the boundary
trace plus checkpoints about every sqrt(nt) levels, from which
levels_backward() replays E^nt..E^0 through the same steps, bitwise equal
to the forward pass, for one more forward solve and no snapshot stack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .grid import ALL_SIDES, Grid2D, Side, area_weights
from .fields import BoundaryTrace, CoefficientField, extract_trace, level_run, trace_of_levels


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


@dataclass(frozen=True)
class SideProgram:
    """Resolved per-side boundary behaviour over the whole time axis.

    absorbing[n] switches the outflow ghost term on at level n;
    series is Neumann flux data per level, with a value per side node or one
    value for the whole side (None means zero).
    """

    absorbing: np.ndarray
    series: np.ndarray | None


def _side_axis_values(grid: Grid2D, side: Side, fn: Callable, t: float) -> np.ndarray:
    x, y = grid.side_coords(side)
    return np.asarray(fn(x, y, t), dtype=np.float64) * np.ones(grid.side_node_count(side))


def switched_absorbing(times: np.ndarray, src: SourceSpec) -> np.ndarray:
    """Where the switched source side absorbs: at the given times after
    t_on, the source pulse acting up to and including t_on."""
    return times > src.switch_time() + 1e-14


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
            absorbing = switched_absorbing(times, src)
            pulse = np.where(absorbing, 0.0, src.amplitude * np.sin(src.omega * times))
            programs[side] = SideProgram(absorbing, pulse[:, None])
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


class PaddedLevel:
    """One ghost-padded (nx+3, ny+3) level buffer, nodes at [1:-1, 1:-1], with
    the views that a leapfrog step reads or writes made once: the node
    view, the run of rows 1..nx+1 (ghost columns included), that run
    shifted to each of the four neighbours, and per side (in ALL_SIDES
    order) the ghost slots, the mirror row and the boundary row.  The
    buffer is an array of its own, so that fields.level_run finds it as
    the base of the node view."""

    __slots__ = ("pad", "nodes", "rows", "neighbours", "sides")

    # (ghost, mirror, boundary) per side, as indices into the buffer
    SLOTS = {
        Side.LEFT: (np.s_[0, 1:-1], np.s_[2, 1:-1], np.s_[1, 1:-1]),
        Side.RIGHT: (np.s_[-1, 1:-1], np.s_[-3, 1:-1], np.s_[-2, 1:-1]),
        Side.BOTTOM: (np.s_[1:-1, 0], np.s_[1:-1, 2], np.s_[1:-1, 1]),
        Side.TOP: (np.s_[1:-1, -1], np.s_[1:-1, -3], np.s_[1:-1, -2]),
    }

    def __init__(self, grid: Grid2D) -> None:
        pad = self.pad = np.zeros((grid.nx + 3, grid.ny + 3))
        self.nodes = pad[1:-1, 1:-1]
        p, w = pad.ravel(), grid.ny + 3
        lo, hi = w, w * (grid.nx + 2)
        self.rows = p[lo:hi]
        self.neighbours = (p[lo + w:hi + w], p[lo - w:hi - w], p[lo + 1:hi + 1], p[lo - 1:hi - 1])
        self.sides = tuple(tuple(pad[i] for i in self.SLOTS[side]) for side in ALL_SIDES)


def _block(nt: int) -> int:
    """Levels per checkpoint block, and between the finiteness checks of a
    time loop: about sqrt(nt), at least 3."""
    return max(math.isqrt(nt) + 1, 3)


class Leapfrog:
    """The discrete state operator: one leapfrog update and its Taylor start.

    Built once per (grid, eps, sigma, side programs, forcing), it holds the
    update coefficients, one edge buffer per side for the absorbing ghost,
    scratch space and the forcing lookup.  The forward solve, the adjoint
    solve and the Lagrangian's defect all step through it, so each
    expression of the scheme is written once.

    The time loops keep every level resident in a PaddedLevel.  advance()
    fills the ghosts of the current level in place and writes the next
    level's rows 1..nx+1, ghost columns included, into the output buffer:
    every operand is one contiguous run (numpy copies strided operands
    through a scratch buffer), and the coefficients are kept in that row
    layout with zero ghost columns.  The instance owns three PaddedLevels
    (levels): leapfrog_levels rotates through them, step() and first_step()
    serve node arrays through them, and a ForwardSolution's replay reuses
    them.  So an instance runs one of these at a time: it is
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
        h, dt = grid.h, grid.dt
        eps_v, sig_v = eps.values, sigma.values
        a_plus = eps_v / dt**2 + sig_v / (2.0 * dt)
        a_mid = 2.0 * eps_v / dt**2
        a_minus = eps_v / dt**2 - sig_v / (2.0 * dt)

        def in_rows(c: np.ndarray) -> np.ndarray:
            rows = np.zeros((grid.nx + 1, grid.ny + 3))
            rows[:, 1:-1] = c
            return rows.ravel()

        # E^{n+1} = c_lap * (neighbour sum) + c_cur E^n - c_prev E^{n-1} + f^n / a_plus
        self._c_cur = in_rows((a_mid - 4.0 / h**2) / a_plus)
        self._c_prev = in_rows(a_minus / a_plus)
        self._c_lap = in_rows(1.0 / (a_plus * h**2))
        self._scratch = np.empty(self._c_cur.size)
        # only the forcing term reads a_plus after this
        self._a_plus = None if forcing is None else a_plus
        self._absorb = np.array(2.0 * h / dt)  # a 0-d array scales faster than a float
        self._flux = np.array(2.0 * h)
        self.levels = [PaddedLevel(grid) for _ in range(3)]
        # (absorbing switch, the program's own Neumann data g, scaled by 2 h
        # in the ghost slot so that no copy is kept, boundary-row buffer) per
        # side, in ALL_SIDES order
        self._programs = [
            (programs[side].absorbing.tolist(), programs[side].series,
             np.empty(grid.side_node_count(side)))
            for side in ALL_SIDES
        ]
        if forcing is None:
            self.forcing = None
        elif isinstance(forcing, np.ndarray):
            self.forcing = forcing.__getitem__
        else:
            X, Y = grid.meshgrid()
            self.forcing = lambda n: np.asarray(forcing(X, Y, n * dt), dtype=np.float64)

    def _neighbour_sum(self, cur: PaddedLevel, prev: PaddedLevel, n: int,
                       out: np.ndarray) -> np.ndarray:
        """Fill the ghosts of level n (cur) with the boundary closures, prev
        supplying the previous-level boundary values for the absorbing
        ghost, and write the sum of every node's four neighbours into the
        run out (its ghost columns get junk)."""
        for (ghost, mirror, edge), (_, _, prev_edge), (absorbing, series, diff) in zip(
                cur.sides, prev.sides, self._programs):
            if series is None:
                np.copyto(ghost, mirror)
            else:  # mirror + 2 h g, with 2 h g formed in the ghost slot
                np.multiply(series[n], self._flux, out=ghost)
                ghost += mirror
            if absorbing[n]:
                np.subtract(edge, prev_edge, out=diff)
                diff *= self._absorb
                ghost -= diff
        up, down, right, left = cur.neighbours
        np.add(up, down, out=out)
        out += right
        out += left
        return out

    def advance(self, cur: PaddedLevel, prev: PaddedLevel, n: int, out: PaddedLevel) -> None:
        """One leapfrog update, levels (n-1, n) -> n+1, written into the rows
        of out, whose ghost columns come out zero; out must be neither cur
        nor prev, and its ghosts are filled when it is stepped from."""
        rows = self._neighbour_sum(cur, prev, n, out.rows)
        rows *= self._c_lap
        rows += np.multiply(self._c_cur, cur.rows, out=self._scratch)
        rows -= np.multiply(self._c_prev, prev.rows, out=self._scratch)
        if self.forcing is not None:
            out.nodes += self.forcing(n) / self._a_plus

    def step(
        self, cur: np.ndarray, prev: np.ndarray, n: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """One leapfrog update of node arrays: snapshots (n-1, n) -> n+1,
        written into out (a fresh array when out is None)."""
        pc, pp, po = self.levels
        pc.nodes[...] = cur
        pp.nodes[...] = prev
        self.advance(pc, pp, n, po)
        if out is None:
            return po.nodes.copy()
        out[...] = po.nodes
        return out

    def first_step(self, e0: np.ndarray, f1_v: np.ndarray) -> np.ndarray:
        """Taylor start producing E^1; the absorbing ghost takes e0 - dt f1 as
        the previous level in place of the undefined backward difference."""
        dt = self.grid.dt
        pc, pp, po = self.levels
        pc.nodes[...] = e0
        pp.nodes[...] = e0 - dt * f1_v
        self._neighbour_sum(pc, pp, 0, po.rows)
        rhs = (po.nodes - 4.0 * e0) / self.grid.h**2 - self.sigma.values * f1_v
        if self.forcing is not None:
            rhs += self.forcing(0)
        return e0 + dt * f1_v + dt**2 / (2.0 * self.eps.values) * rhs


def _advance(
    op: Leapfrog, prev: PaddedLevel, cur: PaddedLevel, n: int, outs: Iterable[PaddedLevel],
    block: int,
) -> Iterator[np.ndarray]:
    """Step on from levels n-1 (prev) and n (cur) into each of outs in turn
    and yield its node view, levels n+1, n+2, ...  The levels m with
    m % block < 2 (a block's checkpoint pair) and the last level are
    checked finite before they are yielded."""
    nt = op.grid.nt
    finite = np.empty(cur.pad.shape, dtype=bool)  # isfinite of a strided view would copy it
    for out in outs:
        op.advance(cur, prev, n, out)
        n += 1
        if (n % block < 2 or n == nt) and not np.isfinite(out.pad, out=finite)[1:-1, 1:-1].all():
            raise StabilityError(f"non-finite field values at step {n}")
        yield out.nodes
        prev, cur = cur, out


def _levels(
    op: Leapfrog, f0: Callable | np.ndarray | None, f1: Callable | np.ndarray | None,
    block: int,
) -> Iterator[np.ndarray]:
    """Levels 0..nt in three rotating padded levels, checked at start-up
    and then as _advance checks them."""
    grid = op.grid
    levels = op.levels
    e0, e1 = levels[0].nodes, levels[1].nodes
    e0[...] = _nodal(grid, f0)
    e1[...] = op.first_step(e0, _nodal(grid, f1))
    if not (np.isfinite(e0).all() and np.isfinite(e1).all()):
        raise StabilityError("non-finite field values at start-up")
    yield e0
    yield e1
    # levels 2..nt go to buffers 2, 0, 1, 2, ...
    outs = itertools.islice(itertools.cycle(levels), 2, grid.nt + 1)
    yield from _advance(op, levels[0], levels[1], 1, outs, block)


def leapfrog_levels(
    op: Leapfrog,
    f0: Callable | np.ndarray | None = None,
    f1: Callable | np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """Time-step the damped wave scheme and yield levels 0..nt in order.

    Each level is the node view [1:-1, 1:-1] of one of the operator's three
    padded levels, in rotation, so a yielded level stays valid until two
    more levels have been yielded: a consumer may hold the two most recent
    levels but must copy any level it keeps longer.  A consumer that
    streams over many levels should read each as one contiguous run of its
    padded buffer (fields.level_run) rather than through the strided view.

    The CFL and sign checks run before the first level is yielded.  Levels
    0 and 1, the first two levels of every block of _block(nt) levels and
    level nt are checked finite before they are yielded; the other levels
    are not, so a consumer that writes a level out must check it itself.
    A non-finite value never leaves this linear recursion, so the checks
    catch every blow-up at the latest at the next block.  On a failure the
    solve is replayed with every level checked, and the StabilityError
    names the first non-finite step.
    """
    grid = op.grid
    check_cfl(grid, op.eps)
    if float(op.sigma.values.min()) < 0.0:
        raise StabilityError("conductivity must be >= 0")
    try:
        yield from _levels(op, f0, f1, _block(grid.nt))
    except (StabilityError, RuntimeWarning):
        # a RuntimeWarning is the blow-up's first NaN or overflow, raised by
        # numpy under an "error" warnings filter before any check sees it
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in _levels(op, f0, f1, 1):
                pass
        raise


class ForwardSolution:
    """A forward solve held as checkpoints in place of its snapshot stack.

    The levels 0..nt fall into blocks of b = _block(nt) levels.  As one
    leapfrog_levels pass streams the levels, the boundary trace of all
    sides is taken from each, and the first two levels of every block (its
    checkpoint pair, checked finite) are copied into PaddedLevels.
    levels_backward() rebuilds each block from its pair with the same
    Leapfrog steps into b-2 PaddedLevels, three of them the operator's own,
    so every level it yields is bitwise the level the pass produced, at the
    cost of one more forward solve per sweep.  About 2 sqrt(nt) levels are
    held, and 3 sqrt(nt) during a sweep, where a stored stack holds nt+1.
    """

    def __init__(
        self,
        op: Leapfrog,
        f0: Callable | np.ndarray | None = None,
        f1: Callable | np.ndarray | None = None,
    ) -> None:
        grid = self.grid = op.grid
        self.op = op
        b = self.block = _block(grid.nt)
        self.pairs: list[list[PaddedLevel]] = []

        def keep_pairs(levels: Iterator[np.ndarray]) -> Iterator[np.ndarray]:
            for n, level in enumerate(levels):
                j = n % b
                if j == 0:  # a last block of one level has a one-level pair
                    self.pairs.append([])
                if j < 2:  # copied run to run, ghost columns and all
                    run = level_run(level)
                    kept = PaddedLevel(grid)
                    kept.rows[1:1 + run.size] = run
                    self.pairs[-1].append(kept)
                yield level

        self.trace: BoundaryTrace | None = trace_of_levels(
            grid, keep_pairs(leapfrog_levels(op, f0, f1)), ALL_SIDES
        )

    def take_trace(self, sides: Iterable[Side]) -> BoundaryTrace:
        """The trace on the given sides, handed over once: the solution drops
        its own reference (trace is None afterwards), so the trace lives only
        as long as the caller keeps it."""
        trace = extract_trace(self, sides)
        self.trace = None
        return trace

    def levels_backward(self) -> Iterator[np.ndarray]:
        """Levels nt, nt-1, ..., 0, one at a time, as node views of padded
        buffers.  As from leapfrog_levels, a yielded level stays valid until
        two more have been yielded: a block is rebuilt only after its
        successor's pair, which is never overwritten, has been yielded."""
        b, nt = self.block, self.grid.nt
        # the operator's three levels, idle once the pass is done, and b-5 more
        rebuilt = self.op.levels + [PaddedLevel(self.grid) for _ in range(b - 5)]
        for k in range(len(self.pairs) - 1, -1, -1):
            pair = self.pairs[k]
            # levels kb+2 .. min(kb+b, nt+1)-1; none when the pair is the whole
            # block, and a last block of one level has a one-level pair; the
            # pass checked them, and a replay is bitwise that pass
            steps = rebuilt[:min(max(nt - 1 - k * b, 0), b - 2)]
            for _ in _advance(self.op, pair[0], pair[-1], k * b + 1, steps, b):
                pass
            for level in reversed(pair + steps):
                yield level.nodes


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
) -> ForwardSolution:
    """Solve the forward problem, keeping its boundary trace and the
    checkpoints from which its levels are replayed backward in time."""
    return ForwardSolution(forward_operator(grid, eps, sigma, src, bc), src.f0, src.f1)


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


def level_energy(grid: Grid2D, cur: np.ndarray, prev: np.ndarray, eps: CoefficientField) -> float:
    """Discrete wave energy between two consecutive levels prev and cur.

    Velocity part: eps-weighted nodal L2 norm of the backward difference
    quotient.  Gradient part: the symmetric product form of the two levels,
    which is the quantity the undamped all-Neumann scheme conserves to
    round-off (the squared midpoint gradient drifts at O(dt^2) per period
    and would mask both the conservation and the damping monotonicity).
    """
    vel = (cur - prev) / grid.dt
    kinetic = float(np.sum(area_weights(grid) * eps.values * vel * vel))
    return kinetic + _dirichlet_product(grid, cur, prev)
