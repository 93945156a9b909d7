"""Backward-in-time adjoint solve driven by the boundary residual.

After substituting s = T - t the adjoint equation
    eps * lam_tt - sigma * lam_t - lap(lam) = 0,   lam(T) = lam_t(T) = 0
turns into the forward damped-wave scheme in s with zero initial data, and
the multiplier is that: the forward scheme run backward in time.  It is
built from one forward operator alone (a ForwardSolution's op): the same
grid, eps and sigma, and each of its side programs run backward in time:

  * a side absorbs at level s exactly where the forward side absorbs at
    level nt - s, time T - s (the formal adjoint of the first-order
    outflow condition), composed with the residual source where both apply;
  * observation sides get the Neumann ghost source -residual(T - s);
  * the forward Neumann data and volume forcing do not enter.

The forward programs alone decide which side absorbs when, and no adjoint
is formed at other coefficients or boundary conditions than the forward's.

The multiplier is not the transpose of the discrete forward scheme.  The
two agree to round-off at every level but three (ROADMAP item 1a):

  * level nt, the start: the scheme takes a Taylor step, which weights the
    new level by 2 eps/dt^2, where the transpose takes half of a leapfrog
    step from two zero levels, weighted by eps/dt^2 + sigma/(2 dt);
  * the level before the source side switches to absorbing: the transpose
    closes c_cur and c_prev of that step at the absorbing patterns of two
    adjacent levels, the scheme closes both at one;
  * level 1: the forward's Taylor start is in units of 2 eps/dt^2, the
    scheme's last step in units of eps/dt^2 + sigma/(2 dt).

Where E^0 = E^1 = 0, as in every configuration the CLI accepts, the
gradient sums are exact at a fixed multiplier (gradient.py), so the
gradient's error lies in these three levels of the multiplier alone.

adjoint_levels is the one adjoint solve.  It yields the multiplier one
level at a time as the backward sweep computes it, and every consumer (the
gradient sums of the optimizer and of grad-check, the energy monitor, the
L_*.vtk dumps) uses each level as it arrives, so no multiplier is stored.

The residual's one array, reversed and scaled once, is the Neumann ghost
term 2 h g with g = -residual(T - s), and each observed side's series is
the view of its own columns of that array.  So it is the one copy of the
boundary data a sweep holds: a caller that drops its residual sweeps with
it alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .fields import BoundaryTrace, CoefficientField
from .forward import Leapfrog, PaddedLevel, SideProgram, leapfrog_levels, level_energy
from .grid import Side, area_weights
from .objective import trace_norm_sq


def build_adjoint_programs(op: Leapfrog, residual: BoundaryTrace) -> dict[Side, SideProgram]:
    """The forward operator's side programs run backward in time: each one's
    absorbing flags reversed (a view), and on each observed side the view
    of its columns of the ghost term 2 h g, g = -residual(T - s), one array."""
    g = residual.map(lambda v: v[::-1] * (-2.0 * op.grid.h)).data
    return {side: SideProgram(p.absorbing[::-1], g.get(side)) for side, p in op.programs.items()}


def adjoint_levels(op: Leapfrog, residual: BoundaryTrace) -> Iterator[PaddedLevel]:
    """The adjoint levels of the forward operator op backward in time,
    lam^nt (the zero terminal state) first and lam^0 last, one at a time."""
    grid = op.grid
    if residual.grid.nt != grid.nt or residual.grid.node_shape != grid.node_shape:
        raise ValueError("residual trace does not match the grid")
    return leapfrog_levels(Leapfrog(grid, op.eps, op.sigma, build_adjoint_programs(op, residual)))


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
