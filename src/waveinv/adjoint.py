"""Backward-in-time adjoint solve driven by the boundary residual.

After substituting s = T - t the adjoint equation
    eps * lam_tt - sigma * lam_t - lap(lam) = 0,   lam(T) = lam_t(T) = 0
turns into the forward damped-wave scheme in s with zero initial data, so
the solve steps through the forward Leapfrog operator with reversed
boundary programs:

  * observation sides get the Neumann ghost source -residual(T - s);
  * sides that were absorbing in the forward problem at time t = T - s
    absorb in reversed time as well (the formal adjoint of the first-order
    outflow condition), composed with the residual source where both apply;
  * zero-Neumann sides stay zero-Neumann.

adjoint_levels yields the multiplier one level at a time as the backward
sweep computes it; solve_adjoint stacks those levels in forward time order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .fields import BoundaryTrace, CoefficientField, FieldKind, SpaceTimeField
from .forward import (
    BcConfig, BcKind, Leapfrog, SideProgram, SourceSpec, discrete_energy, leapfrog_levels,
)
from .grid import ALL_SIDES, Grid2D, Side, area_weights
from .objective import trace_norm_sq


def build_adjoint_programs(
    grid: Grid2D,
    src: SourceSpec,
    bc: BcConfig,
    residual: BoundaryTrace,
) -> dict[Side, SideProgram]:
    nt = grid.nt
    rev_times = grid.T - grid.dt * np.arange(nt + 1)
    programs: dict[Side, SideProgram] = {}
    for side in ALL_SIDES:
        kind = bc.kind(side)
        if kind is BcKind.ABSORBING:
            absorbing = np.ones(nt + 1, dtype=bool)
        elif kind is BcKind.SOURCE_THEN_ABSORBING:
            absorbing = rev_times > src.switch_time() + 1e-14
        else:
            absorbing = np.zeros(nt + 1, dtype=bool)
        series = None
        if side in residual.sides:
            series = -residual.data[side][::-1].copy()
        programs[side] = SideProgram(absorbing, series)
    return programs


def adjoint_levels(
    grid: Grid2D,
    eps: CoefficientField,
    sigma: CoefficientField,
    residual: BoundaryTrace,
    bc: BcConfig,
    src: SourceSpec,
) -> Iterator[np.ndarray]:
    """The adjoint levels backward in time, lam^nt (the zero terminal
    state) first and lam^0 last, one at a time."""
    if residual.grid.nt != grid.nt or residual.grid.node_shape != grid.node_shape:
        raise ValueError("residual trace does not match the grid")
    programs = build_adjoint_programs(grid, src, bc, residual)
    return leapfrog_levels(Leapfrog(grid, eps, sigma, programs))


def solve_adjoint(
    grid: Grid2D,
    eps: CoefficientField,
    sigma: CoefficientField,
    residual: BoundaryTrace,
    bc: BcConfig,
    src: SourceSpec,
) -> SpaceTimeField:
    """Solve the adjoint problem; snapshots are returned in forward time
    order, so snapshot nt is the (identically zero) terminal state."""
    snaps = np.empty((grid.nt + 1, *grid.node_shape))
    for k, level in enumerate(adjoint_levels(grid, eps, sigma, residual, bc, src)):
        snaps[grid.nt - k] = level
    return SpaceTimeField(grid=grid, snapshots=snaps, kind=FieldKind.ADJOINT)


@dataclass(frozen=True)
class AdjointEnergyReport:
    """Discrete energy history of the adjoint versus the residual size.

    energies[k] is the triple-norm analogue between time levels k and k+1;
    ratio compares its maximum to the squared space-time residual norm and
    plays the role of the stability constant, which should stay bounded
    and roughly grid-independent.
    """

    energies: np.ndarray
    max_energy: float
    residual_norm_sq: float
    ratio: float
    c_max: float
    flagged: bool


def adjoint_energy_monitor(
    lam: SpaceTimeField,
    eps: CoefficientField,
    sigma: CoefficientField,
    residual: BoundaryTrace,
    c_max: float = 1e6,
) -> AdjointEnergyReport:
    if lam.kind is not FieldKind.ADJOINT:
        raise ValueError("monitor expects an adjoint field")
    g = lam.grid
    w = area_weights(g)
    energies = np.empty(g.nt)
    for n in range(1, g.nt + 1):
        mid = 0.5 * (lam.snapshots[n] + lam.snapshots[n - 1])
        zero_order = float(np.sum(w * sigma.values * mid * mid))
        energies[n - 1] = discrete_energy(lam, eps, sigma, n) + zero_order
    max_energy = float(energies.max()) if g.nt else 0.0
    res_sq = trace_norm_sq(residual)
    ratio = max_energy / res_sq if res_sq > 0.0 else 0.0
    return AdjointEnergyReport(
        energies=energies,
        max_energy=max_energy,
        residual_norm_sq=res_sq,
        ratio=ratio,
        c_max=c_max,
        flagged=ratio > c_max,
    )
