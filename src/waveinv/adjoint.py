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

adjoint_levels is the one adjoint solve.  It yields the multiplier one
level at a time as the backward sweep computes it, and every consumer (the
gradient sums of the optimizer and of grad-check, the energy monitor, the
L_*.vtk dumps) uses each level as it arrives, so no multiplier is stored.

The residual's one array, negated and reversed once, is the Neumann data
g = -residual(T - s), one block that the observed sides share and that the
Leapfrog scales by 2 h as it adds it, so g is the one copy of the boundary
data a sweep holds: a caller that drops its residual sweeps with g alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .fields import BoundaryTrace, CoefficientField
from .forward import (
    BcConfig, BcKind, Leapfrog, PaddedLevel, SideProgram, SourceSpec, leapfrog_levels,
    level_energy, switched_absorbing,
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
    g = -residual.values[::-1]
    programs: dict[Side, SideProgram] = {}
    for side in ALL_SIDES:
        kind = bc.kind(side)
        if kind is BcKind.ABSORBING:
            absorbing = np.ones(nt + 1, dtype=bool)
        elif kind is BcKind.SOURCE_THEN_ABSORBING:
            absorbing = switched_absorbing(rev_times, src)
        else:
            absorbing = np.zeros(nt + 1, dtype=bool)
        programs[side] = SideProgram(absorbing, g if side in residual.sides else None)
    return programs


def adjoint_levels(
    grid: Grid2D,
    eps: CoefficientField,
    sigma: CoefficientField,
    residual: BoundaryTrace,
    bc: BcConfig,
    src: SourceSpec,
) -> Iterator[PaddedLevel]:
    """The adjoint levels backward in time, lam^nt (the zero terminal
    state) first and lam^0 last, one at a time."""
    if residual.grid.nt != grid.nt or residual.grid.node_shape != grid.node_shape:
        raise ValueError("residual trace does not match the grid")
    programs = build_adjoint_programs(grid, src, bc, residual)
    return leapfrog_levels(Leapfrog(grid, eps, sigma, programs))


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
    lam_backward: Iterable[PaddedLevel],
    eps: CoefficientField,
    sigma: CoefficientField,
    residual: BoundaryTrace,
    c_max: float = 1e6,
) -> AdjointEnergyReport:
    """Energy report of the multiplier levels lam^nt, ..., lam^0 as
    adjoint_levels yields them; only two levels are held."""
    g = eps.grid
    w = area_weights(g)
    energies = np.empty(g.nt)
    lam_next = None
    for n, lam in zip(range(g.nt, -1, -1), lam_backward, strict=True):
        lam = lam.nodes
        if lam_next is not None:
            mid = 0.5 * (lam_next + lam)
            zero_order = float(np.sum(w * sigma.values * mid * mid))
            energies[n] = level_energy(g, lam_next, lam, eps) + zero_order
        lam_next = lam
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
