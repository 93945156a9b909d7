"""Tikhonov functional, discrete Lagrangian and the error metrics reported
during reconstruction.

Quadrature conventions: trapezoid in time, trapezoid along boundary edges
(half weight at edge ends, so a corner shared by two observed sides gets
its correct perimeter weight) and tensor-trapezoid over the area.  All of
these reproduce constants exactly.

The misfit is one pass over a simulated trace and the observations, BLOCK
time levels at a time, that forms the functional's r^2 and the data
errors' sums together.  It reads the observations by their rows, so
observations refined from a coarser grid (fields.RefinedTrace) are formed
a block at a time and never stored: an iteration on a refined level holds
one trace, the solve's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fields import BLOCK, BoundaryTrace, CoefficientField, RefinedTrace, trace_columns
from .forward import BcConfig, SourceSpec, forward_operator
from .grid import Grid2D, area_weights, perimeter_nodes, perimeter_weights, time_weights


def field_dot(a: CoefficientField | np.ndarray, b: CoefficientField | np.ndarray, grid: Grid2D) -> float:
    av = a.values if isinstance(a, CoefficientField) else a
    bv = b.values if isinstance(b, CoefficientField) else b
    return float(np.sum(area_weights(grid) * av * bv))


def field_norm(a: CoefficientField | np.ndarray, grid: Grid2D) -> float:
    return float(np.sqrt(field_dot(a, a, grid)))


def trace_dot(a: BoundaryTrace, b: BoundaryTrace) -> float:
    a.check_compatible(b)
    return float(time_weights(a.grid) @ (a.values * b.values) @ perimeter_weights(a.grid, a.sides))


def trace_norm_sq(a: BoundaryTrace) -> float:
    return trace_dot(a, a)


@dataclass(frozen=True)
class RegularizationParams:
    """Initial regularization weights, their decay exponent and the priors."""

    gamma_eps0: float
    gamma_sigma0: float
    p: float
    eps_prior: CoefficientField
    sigma_prior: CoefficientField

    def __post_init__(self) -> None:
        if not (0.0 <= self.gamma_eps0 < np.inf and 0.0 <= self.gamma_sigma0 < np.inf):
            raise ValueError("regularization weights must be finite and >= 0")
        if not 0.0 < self.p <= 1.0:
            raise ValueError("decay exponent p must lie in (0, 1]")

    def at_iteration(self, m: int) -> tuple[float, float]:
        """Decayed weights gamma^m = gamma^0 / (m+1)^p."""
        decay = float(m + 1) ** self.p
        return self.gamma_eps0 / decay, self.gamma_sigma0 / decay


class Misfit(NamedTuple):
    """The sums of one blocked pass over (sim, obs): the quadratures of
    r^2, r = sim - obs, and of sim^2, and max|r| and max|sim|, each on
    obs's sides."""

    r_sq: float
    r_sup: float
    sim_sq: float
    sim_sup: float

    def relative(self) -> tuple[float, float]:
        """Relative L2 and supremum misfit of the simulated trace; a zero
        simulated trace raises ValueError."""
        if self.sim_sq == 0.0 or self.sim_sup == 0.0:
            raise ValueError("simulated trace is zero; relative data error undefined")
        return math.sqrt(self.r_sq) / math.sqrt(self.sim_sq), self.r_sup / self.sim_sup


def misfit(sim: BoundaryTrace, obs: BoundaryTrace | RefinedTrace) -> Misfit:
    """The four sums of Misfit over obs's sides, the quadrature of
    (sim - obs)^2 among them, in one pass over BLOCK time levels at a time;
    sim may hold more sides than obs (a solve's all-sides trace), and a side
    of obs that sim does not hold raises ValueError.  obs is read by its rows,
    so a RefinedTrace is formed a block at a time, and the residual and the
    squares are formed in two block buffers that the pass reuses.  The sups
    are taken with np.maximum, so a NaN in any block reaches them."""
    if sim.grid.nt != obs.grid.nt or sim.grid.node_shape != obs.grid.node_shape:
        raise ValueError("traces live on incompatible grids")
    cols = trace_columns(sim, obs.sides)
    wt, wp = time_weights(obs.grid), perimeter_weights(obs.grid, obs.sides)
    r_block, tmp_block = np.empty((2, min(BLOCK, len(wt)), len(wp)))
    sq, sup = np.zeros(2), np.zeros(2)  # of r and of sim
    for a in range(0, len(wt), BLOCK):
        w, s = wt[a:a + BLOCK], sim.values[a:a + BLOCK, cols]
        r, tmp = r_block[:len(w)], tmp_block[:len(w)]
        np.subtract(s, obs.rows(a, a + BLOCK, out=r), out=r)
        sq[0] += w @ np.multiply(r, r, out=tmp) @ wp
        sq[1] += w @ np.multiply(s, s, out=tmp) @ wp
        np.maximum(sup, (np.abs(r, out=tmp).max(), np.abs(s, out=tmp).max()), out=sup)
    return Misfit(float(sq[0]), float(sup[0]), float(sq[1]), float(sup[1]))


def regularized(r_sq: float, eps: CoefficientField, sigma: CoefficientField,
                reg: RegularizationParams, gamma_eps: float, gamma_sigma: float) -> float:
    """The Tikhonov value at a misfit quadrature r_sq: 0.5 r_sq plus the
    weighted squared deviations from the priors."""
    grid = eps.grid
    pen_eps = 0.5 * gamma_eps * field_dot(
        eps.values - reg.eps_prior.values, eps.values - reg.eps_prior.values, grid
    )
    pen_sigma = 0.5 * gamma_sigma * field_dot(
        sigma.values - reg.sigma_prior.values, sigma.values - reg.sigma_prior.values, grid
    )
    return 0.5 * r_sq + pen_eps + pen_sigma


def tikhonov(
    sim: BoundaryTrace,
    obs: BoundaryTrace | RefinedTrace,
    eps: CoefficientField,
    sigma: CoefficientField,
    reg: RegularizationParams,
    gamma_eps: float,
    gamma_sigma: float,
) -> float:
    """0.5 |sim - obs|^2 over the observed space-time boundary plus the
    weighted squared deviations from the priors; sim is read on obs's
    sides, as in misfit."""
    return regularized(misfit(sim, obs).r_sq, eps, sigma, reg, gamma_eps, gamma_sigma)


def forward_defect(
    E: np.ndarray,
    eps: CoefficientField,
    sigma: CoefficientField,
    src: SourceSpec,
    bc: BcConfig,
) -> np.ndarray:
    """Stencil defect of every discrete update equation, in PDE units.

    E holds the snapshots 0..nt as one (nt+1, nx+1, ny+1) float array on
    eps.grid; another shape raises ValueError.  Entry n (n = 0..nt-1)
    measures how far snapshot n+1 is from what the scheme would produce
    from snapshots n and n-1; it is identically zero for the stored levels
    of a forward solve with matching inputs, since it steps snapshots n-1
    and n in the operator's own levels through advance(), as the time loops
    do.  Rows are scaled by the weight of the new level in its equation:
    a_plus for the leapfrog updates, 2 eps / dt^2 for the start-up.
    """
    g, dt = eps.grid, eps.grid.dt
    if E.shape != (g.nt + 1, *g.node_shape):
        raise ValueError(f"state shape {E.shape}, expected {(g.nt + 1, *g.node_shape)}")
    op = forward_operator(g, eps, sigma, src, bc)
    defect = np.empty((g.nt, *g.node_shape))
    a_plus = eps.values / dt**2 + sigma.values / (2.0 * dt)
    a_mid = 2.0 * eps.values / dt**2
    defect[0] = a_mid * (E[1] - op.first_step(E[0]))
    cur, prev, out = op.levels
    for n in range(1, g.nt):
        cur.nodes[...], prev.nodes[...] = E[n], E[n - 1]
        op.advance(cur, prev, n, out)
        defect[n] = a_plus * (E[n + 1] - out.nodes)
    return defect


def lagrangian(
    E: np.ndarray,
    lam: np.ndarray,
    eps: CoefficientField,
    sigma: CoefficientField,
    reg: RegularizationParams,
    gamma_eps: float,
    gamma_sigma: float,
    obs: BoundaryTrace,
    src: SourceSpec,
    bc: BcConfig,
) -> float:
    """Tikhonov value plus the discrete forward defect paired with the
    multiplier; equals the Tikhonov value whenever E solves the scheme.
    E and lam are (nt+1, nx+1, ny+1) float arrays on eps.grid, as in
    forward_defect; another shape of either raises ValueError."""
    g = eps.grid
    if lam.shape != E.shape:
        raise ValueError(f"state and multiplier live on different space-time grids: "
                         f"{E.shape} vs {lam.shape}")
    defect = forward_defect(E, eps, sigma, src, bc)
    sim = BoundaryTrace(grid=g, sides=obs.sides,
                        values=E.reshape(g.nt + 1, -1)[:, perimeter_nodes(g, obs.sides)])
    value = tikhonov(sim, obs, eps, sigma, reg, gamma_eps, gamma_sigma)
    w = area_weights(g)
    pairing = float(np.einsum("nij,nij,ij->", defect, lam[: g.nt], w)) * g.dt
    return value + pairing


def relative_errors(approx: CoefficientField, exact: CoefficientField) -> tuple[float, float]:
    """Relative L2 and supremum errors of one coefficient; a zero reference
    field raises ValueError."""
    grid = exact.grid
    denom_l2 = field_norm(exact, grid)
    denom_sup = float(np.abs(exact.values).max())
    if denom_l2 == 0.0 or denom_sup == 0.0:
        raise ValueError("reference field is zero; relative errors undefined")
    diff = approx.values - exact.values
    return field_norm(diff, grid) / denom_l2, float(np.abs(diff).max()) / denom_sup

