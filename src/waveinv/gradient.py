"""Adjoint-state gradient assembly and its finite-difference oracle.

The gradient densities of the regularized functional are

    g_eps = gamma_eps (eps - eps_prior) - int_0^T dlam/dt dE/dt dt
    g_sig = gamma_sig (sig - sig_prior) - int_0^T E dlam/dt dt

(divergence terms of the vector model vanish in this scalar setting).  The
time integrals are evaluated with half-step centered differences
(E^{n+1}-E^n)/dt and midpoint values on the staggered levels.  This is a
discretization of the continuous gradient above, not the exact derivative
of the discrete functional that the code minimizes: against central
differences of F, its directional derivative is off by 3-120% depending on
the boundary configuration and the grid (ROADMAP item 1 asks for the exact
discrete adjoint).  Node-centered differences with trapezoid quadrature
were measured at 3-8% mismatch against the per-node oracle at h = 1/24
(the staggered form sits near 0.2%), so the staggered form is the one
shipped.

The sums run backward in time, one half-step at a time, while the adjoint
sweep produces the multiplier, which is therefore never stored.  The state
arrives on the same reversed-level stream, E^nt..E^0: a ForwardSolution
replays it from its checkpoints, so no snapshot stack is stored either,
and a stored SpaceTimeField reads its stack backward with the same sums.
gradient_sweep holds these sums.  Its callers, the optimizer and grad-check,
hand it the multiplier stream of adjoint_levels driven by the residual
sim - obs, and hold no residual once that stream is built.

The oracle differentiates the Tikhonov value by central differences in a
single nodal coefficient value, normalized by the node's area quadrature
weight so both quantities are commensurable gradient densities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .fields import BoundaryTrace, CoefficientField, Role, SpaceTimeField, level_run
from .forward import BcConfig, ForwardSolution, SourceSpec, forward_trace
from .grid import RegionMask, area_weights, time_weights
from .objective import RegularizationParams, tikhonov


def gradient_sweep(
    E: ForwardSolution | SpaceTimeField,
    lam_backward: Iterable[np.ndarray],
    eps: CoefficientField,
    sigma: CoefficientField,
    reg: RegularizationParams,
    gamma_eps: float,
    gamma_sigma: float,
    mask: RegionMask,
) -> tuple[CoefficientField, CoefficientField, float]:
    """Nodal gradients of the Tikhonov functional, zeroed on FRAME nodes, and
    the multiplier's space-time norm, summed while lam^nt, ..., lam^0 (from
    adjoint_levels) and E^nt, ..., E^0 arrive, so only two of each are held.
    The gradient sums run over the levels' runs (fields.level_run), whose
    ghost columns collect values that are dropped at the end."""
    grid = E.grid
    dt = grid.dt
    wt, sqrt_wx = time_weights(grid), np.sqrt(area_weights(grid))
    # sum_eps and sum_sigma as runs of padded rows: node (i, j) at [i, j]
    sums = np.zeros((2, grid.nx + 1, grid.ny + 3))
    length = grid.nx * (grid.ny + 3) + grid.ny + 1
    sum_eps, sum_sigma = sums[0].ravel()[:length], sums[1].ravel()[:length]
    dlam, tmp = np.empty(length), np.empty(length)
    lam_w = tmp[:grid.n_nodes].reshape(grid.node_shape)  # free until the sums use tmp
    lam_sq = 0.0
    lam_next = e_next = None
    levels = zip(range(grid.nt, -1, -1), lam_backward, E.levels_backward(), strict=True)
    for n, lam, e in levels:
        # a contiguous copy, so that the norm sums the same products as a
        # stored multiplier would
        np.copyto(lam_w, lam)
        lam_w *= sqrt_wx
        lam_sq += wt[n] * float(np.vdot(lam_w, lam_w))
        lam, e = level_run(lam), level_run(e)
        if lam_next is not None:
            np.subtract(lam_next, lam, out=dlam)
            sum_eps += np.multiply(np.subtract(e_next, e, out=tmp), dlam, out=tmp)
            sum_sigma += np.multiply(np.add(e_next, e, out=tmp), dlam, out=tmp)
        lam_next, e_next = lam, e
    sum_eps, sum_sigma = sums[:, :, :grid.ny + 1]

    # sum_eps and sum_sigma hold raw differences: the 1/dt of each difference
    # quotient and the dt of the time quadrature are folded in here
    g_eps = gamma_eps * (eps.values - reg.eps_prior.values) - sum_eps / dt
    g_sigma = gamma_sigma * (sigma.values - reg.sigma_prior.values) - 0.5 * sum_sigma
    g_eps[mask.frame] = 0.0
    g_sigma[mask.frame] = 0.0
    return (
        CoefficientField(grid=grid, values=g_eps, role=Role.EPSILON),
        CoefficientField(grid=grid, values=g_sigma, role=Role.SIGMA),
        float(np.sqrt(lam_sq)),
    )


@dataclass(frozen=True)
class GradientSample:
    """One finite-difference probe of the functional at a single node."""

    node: tuple[int, int]
    role: Role
    value: float


def fd_gradient_oracle(
    eps: CoefficientField,
    sigma: CoefficientField,
    obs: BoundaryTrace,
    reg: RegularizationParams,
    gamma_eps: float,
    gamma_sigma: float,
    sample_nodes: list[tuple[int, int]],
    h_fd: float,
    src: SourceSpec,
    bc: BcConfig,
    mask: RegionMask,
    adm,
    roles: tuple[Role, ...] = (Role.EPSILON, Role.SIGMA),
) -> list[GradientSample]:
    """Sampled gradient densities by central differences of the functional.

    Each probe perturbs one nodal value, re-pins FRAME nodes (making FRAME
    directions exactly flat) and runs an independent forward solve.  Probes
    that would leave the admissible box at an INNER node are rejected.
    """
    if h_fd <= 0.0:
        raise ValueError("h_fd must be positive")
    grid = eps.grid
    w = area_weights(grid)

    def functional(eps_f: CoefficientField, sigma_f: CoefficientField) -> float:
        sim = forward_trace(grid, eps_f, sigma_f, src, bc, obs.sides)
        return tikhonov(sim, obs, eps_f, sigma_f, reg, gamma_eps, gamma_sigma)

    samples: list[GradientSample] = []
    for i, j in sample_nodes:
        for role in roles:
            base = eps if role is Role.EPSILON else sigma
            lo, hi = adm.bounds(role)
            values = {}
            for s in (+1.0, -1.0):
                pert = base.values.copy()
                pert[i, j] += s * h_fd
                pert[mask.frame] = adm.background(role)
                if not mask.frame[i, j] and not lo <= pert[i, j] <= hi:
                    raise ValueError(
                        f"probe {pert[i, j]:.6g} leaves [{lo}, {hi}] at node "
                        f"({i}, {j}); use a smaller h_fd or another evaluation point"
                    )
                f = base.with_values(pert)
                if role is Role.EPSILON:
                    values[s] = functional(f, sigma)
                else:
                    values[s] = functional(eps, f)
            deriv = (values[1.0] - values[-1.0]) / (2.0 * h_fd * w[i, j])
            samples.append(GradientSample(node=(i, j), role=role, value=deriv))
    return samples
