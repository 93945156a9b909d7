"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from waveinv import (
    ALL_SIDES,
    AdmissibleSet,
    BcConfig,
    BcKind,
    BoundaryTrace,
    CoefficientField,
    RegularizationParams,
    Role,
    Side,
    SourceSpec,
    add_noise,
    build_grid,
    extract_trace,
    field_dot,
    gaussian_coefficient,
    gradient_sweep,
    solve_forward,
    tikhonov,
    trace_dot,
    trace_norm_sq,
)
from waveinv.forward import PaddedLevel, forward_operator, forward_trace, leapfrog_levels
from waveinv.grid import Grid2D, area_weights, time_weights

INCLUSION_CENTER = (0.5, 0.7)

# time axes whose nt+1 levels split into blocks of
# b = max(ceil(sqrt(nt+1)), 3) levels in every way: one block (nt = 1, 2 < b),
# full blocks only (nt = 8 = 3^2 - 1, nt = 15 = 4^2 - 1), and a last block of
# one level (nt = 12), of two (nt = 9, nt = 16 = 4^2) and of three levels
# (nt = 10, nt = 17 = 4^2 + 1)
CHECKPOINT_NT = (1, 2, 8, 9, 10, 12, 15, 16, 17)


def grid_of_levels(levels, n=16):
    """An n x n grid on the unit square whose time axis has exactly levels
    levels, nt + 1: T is half a CFL step short of levels - 1 steps."""
    g = build_grid(n, n, T=(levels - 1.5) * 0.5 / (n * math.sqrt(2.0)))
    assert g.nt + 1 == levels
    return g


def truth_pair(grid):
    """The two narrow Gaussian inclusions used throughout the studies."""
    eps = gaussian_coefficient(grid, 1.0, 3.0, INCLUSION_CENTER, 0.002, Role.EPSILON)
    sigma = gaussian_coefficient(grid, 1.0, 1.5, INCLUSION_CENTER, 0.002, Role.SIGMA)
    return eps, sigma


def smooth_random_coefficient(grid, rng, role, lo=1.0, hi=10.0, n_bumps=3):
    """Random admissible field: background plus a few positive Gaussian bumps."""
    X, Y = grid.meshgrid()
    values = np.full(grid.node_shape, lo)
    for _ in range(n_bumps):
        cx, cy = rng.uniform(0.15, 0.85, 2)
        width = rng.uniform(0.01, 0.08)
        amp = rng.uniform(0.2, 0.45) * (hi - lo)
        values = values + amp * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / width)
    return CoefficientField(grid=grid, values=np.clip(values, lo, hi), role=role)


def smooth_random_spacetime(grid, rng, n_modes=4, kmax=3):
    """Band-limited random space-time array for adjoint consistency tests."""
    X, Y = grid.meshgrid()
    t = grid.times()
    out = np.zeros((grid.nt + 1, *grid.node_shape))
    for _ in range(n_modes):
        kx, ky = rng.integers(0, kmax + 1, 2)
        w = rng.uniform(0.5, 4.0)
        ph = rng.uniform(0, 2 * np.pi, 3)
        out += (
            rng.standard_normal()
            * np.cos(kx * np.pi * X + ph[0])[None]
            * np.cos(ky * np.pi * Y + ph[1])[None]
            * np.cos(w * t + ph[2])[:, None, None]
        )
    return out


def smooth_random_trace(grid, rng, sides=ALL_SIDES, n_modes=3):
    t = grid.times()
    blocks = []
    for side in sides:
        n = grid.side_node_count(side)
        u = np.linspace(0.0, 1.0, n)
        arr = np.zeros((grid.nt + 1, n))
        for _ in range(n_modes):
            k = rng.integers(0, 4)
            w = rng.uniform(0.5, 4.0)
            ph = rng.uniform(0, 2 * np.pi, 2)
            arr += (
                rng.standard_normal()
                * np.cos(k * np.pi * u + ph[0])[None, :]
                * np.cos(w * t + ph[1])[:, None]
            )
        blocks.append(arr)
    return BoundaryTrace(grid=grid, sides=tuple(sides), values=np.hstack(blocks))


def zero_trace(grid, sides=ALL_SIDES):
    values = np.zeros((grid.nt + 1, sum(grid.side_node_count(s) for s in sides)))
    return BoundaryTrace(grid=grid, sides=tuple(sides), values=values)


def stored_state(grid, eps, sigma, src, bc):
    """The forward levels stacked in time order: the stored reference for
    what a ForwardSolution steps back to.  Each level is
    copied, because the time loop reuses its level buffers."""
    snaps = np.empty((grid.nt + 1, *grid.node_shape))
    for n, level in enumerate(leapfrog_levels(forward_operator(grid, eps, sigma, src, bc))):
        snaps[n] = level.nodes
    return snaps


def assert_steps_back_to(sol, E):
    """Check sol.levels_backward() against the stored stack E and return it
    stacked in time order: the levels that sol keeps (the last two among
    them) and every perimeter node bitwise, the interior nodes, stepped
    back, to 1e-12 of max|E|."""
    back = np.stack([level.nodes.copy() for level in sol.levels_backward()])[::-1]
    assert back.shape == E.shape and {E.shape[0] - 1, max(E.shape[0] - 2, 0)} <= set(sol.kept)
    for n in sol.kept:
        assert np.array_equal(back[n], E[n]), n
    for edge in (np.s_[:, 0, :], np.s_[:, -1, :], np.s_[:, :, 0], np.s_[:, :, -1]):
        assert np.array_equal(back[edge], E[edge])
    assert np.abs(back - E).max() <= 1e-12 * np.abs(E).max()
    return back


def advanced(op, cur, prev, n):
    """The level that op.advance writes from node arrays prev and cur
    (levels n-1 and n), stepped in the operator's own levels: a view of the
    nodes of its third level."""
    pc, pp, po = op.levels
    pc.nodes[...], pp.nodes[...] = cur, prev
    op.advance(pc, pp, n, po)
    return po.nodes


def stored_adjoint(op, residual):
    """The multiplier levels of the backward sweep of the forward operator op
    stacked in forward time order (snapshot nt is the zero terminal state):
    the stored reference.  Each level is copied, because the sweep reuses its
    level buffers."""
    levels = [lam.nodes.copy() for lam in leapfrog_levels(op.adjoint(residual))]
    return np.stack(levels[::-1])


def stored_solution(op, E):
    """A stored stack E, solved at the operator op, as gradient_sweep reads a
    ForwardSolution: it carries op, and its levels_backward() yields
    snapshots nt, ..., 0, each in a PaddedLevel of its own."""
    return SimpleNamespace(grid=op.grid, op=op, levels_backward=lambda: (
        PaddedLevel.of(op.grid, snap) for snap in E[::-1]))


def stack_trace(grid, E, sides=ALL_SIDES):
    """The trace of a stored stack E on the sides, each side sliced from
    the stack on its own: the reference for the gathers of the package."""
    cut = {Side.LEFT: E[:, 0, :], Side.BOTTOM: E[:, :, 0],
           Side.RIGHT: E[:, -1, :], Side.TOP: E[:, :, -1]}
    return BoundaryTrace(grid=grid, sides=tuple(sides), values=np.hstack([cut[s] for s in sides]))


def adjoint_gradients(E, residual, reg, gamma_eps, gamma_sigma, mask):
    """The gradients and the multiplier norm of gradient_sweep over the
    adjoint sweep of E's operator that residual drives, composed as the
    optimizer does."""
    lam_backward = leapfrog_levels(E.op.adjoint(residual))
    return gradient_sweep(E, lam_backward, reg, gamma_eps, gamma_sigma, mask)


def all_neumann_bc():
    return BcConfig(sides={s: BcKind.NEUMANN_ZERO for s in ALL_SIDES})


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


def discrete_energy(grid, E, eps, n):
    """level_energy between levels n-1 and n of a stored solution."""
    return level_energy(grid, E[n], E[n - 1], eps)


def adjoint_energy(op, residual):
    """(max_energy, ratio) of the adjoint stability estimate for the
    multiplier of the forward operator op at the residual: the largest
    energy between levels lam^n and lam^{n+1}, level_energy plus the
    sigma-weighted square of their midpoint, and its ratio to the squared
    residual norm, which should stay bounded and roughly grid-independent
    (0 for a zero residual)."""
    g, lam, w = op.grid, stored_adjoint(op, residual), area_weights(op.grid)
    mid = 0.5 * (lam[1:] + lam[:-1])
    energies = [level_energy(g, lam[n + 1], lam[n], op.eps)
                + float(np.sum(w * op.sigma.values * mid[n] * mid[n])) for n in range(g.nt)]
    max_energy = float(np.max(energies)) if g.nt else 0.0
    res_sq = trace_norm_sq(residual)
    return max_energy, (max_energy / res_sq if res_sq > 0.0 else 0.0)


def spacetime_dot(grid, a, b):
    """Trapezoid-in-time, tensor-trapezoid-in-space pairing of two stacks."""
    wt, wx = time_weights(grid), area_weights(grid)
    return float(np.einsum("tij,tij,t,ij->", a, b, wt, wx))


def spacetime_norm(grid, a):
    return float(np.sqrt(spacetime_dot(grid, a, a)))


def synthesize_observations(grid, noise_level=0.1, seed=42):
    """Noisy boundary data from the study-1 truth on the standard setup."""
    eps_t, sigma_t = truth_pair(grid)
    src = SourceSpec()
    bc = BcConfig()
    clean = extract_trace(solve_forward(grid, eps_t, sigma_t, src, bc), ALL_SIDES)
    if noise_level == 0.0:
        return clean, eps_t, sigma_t, src, bc
    noisy = add_noise(clean, "relative_gaussian", noise_level, seed)
    return noisy, eps_t, sigma_t, src, bc


@pytest.fixture
def small_grid():
    return build_grid(16, 16, T=1.2)


@pytest.fixture
def medium_grid():
    return build_grid(32, 32, T=1.2)


@pytest.fixture
def unit_adm():
    return AdmissibleSet()


def decomposition_identity_check(
    eps: CoefficientField,
    sigma: CoefficientField,
    eps_n: CoefficientField,
    sigma_n: CoefficientField,
    obs: BoundaryTrace,
    reg: RegularizationParams,
    gamma_eps: float,
    gamma_sigma: float,
    src: SourceSpec,
    bc: BcConfig,
) -> float:
    """Residual of the exact algebraic split of F(eps, sigma) around a
    second admissible pair; zero up to quadrature round-off.

    The split expresses F at one pair through F at the other plus boundary
    terms in the trace difference and, with regularization on, matching
    quadratic/linear terms in the coefficient differences.
    """
    grid = eps.grid
    tr = forward_trace(grid, eps, sigma, src, bc, obs.sides)
    tr_n = forward_trace(grid, eps_n, sigma_n, src, bc, obs.sides)
    d_tr = tr - tr_n

    lhs = tikhonov(tr, obs, eps, sigma, reg, gamma_eps, gamma_sigma)
    rhs = tikhonov(tr_n, obs, eps_n, sigma_n, reg, gamma_eps, gamma_sigma)
    rhs += -0.5 * trace_norm_sq(d_tr) + trace_dot(tr - obs, d_tr)
    d_eps = eps.values - eps_n.values
    d_sigma = sigma.values - sigma_n.values
    rhs += gamma_eps * (
        -0.5 * field_dot(d_eps, d_eps, grid)
        + field_dot(eps.values - reg.eps_prior.values, d_eps, grid)
    )
    rhs += gamma_sigma * (
        -0.5 * field_dot(d_sigma, d_sigma, grid)
        + field_dot(sigma.values - reg.sigma_prior.values, d_sigma, grid)
    )
    return abs(lhs - rhs)
