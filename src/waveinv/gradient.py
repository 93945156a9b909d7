"""Adjoint-state gradient assembly and its finite-difference oracle.

The gradient densities of the regularized functional are

    g_eps = gamma_eps (eps - eps_prior) - int_0^T dlam/dt dE/dt dt
    g_sig = gamma_sig (sig - sig_prior) - int_0^T E dlam/dt dt

(divergence terms of the vector model vanish in this scalar setting).  The
time integrals are evaluated with half-step centered differences
(E^{n+1}-E^n)/dt and midpoint values on the staggered levels, but for
row 0, the Taylor start, whose own derivatives (2/dt^2)(E^1 - E^0 - dt f1)
in eps and f1 in sigma pair with its multiplier mu^0 = lam^0 a_plus/a_mid.
At a fixed state and multiplier these sums are the exact (eps,
sigma)-derivative of objective.lagrangian, and the multiplier of
Leapfrog.adjoint is the transpose of the discrete forward scheme, so the
gradient is the exact derivative of the discrete F, start data and forcing
included.  On the gradcheck preset it matches central differences of F,
at h_fd = 1e-3, to 8.9e-7 relative; the worst entry is a sigma entry of
about 1e-7, where one ulp of F moves a difference quotient by 3.1e-14,
4e-7 of the entry, so that figure is F's round-off floor, not the FD
truncation (reordering the misfit's sum alone moved it from 2.1e-7).

The sums run backward in time, one half-step at a time, while the adjoint
sweep produces the multiplier, which is therefore never stored.  Both
integrals pair a combination of E^{n+1} and E^n with the same multiplier
difference, so gradient_sweep keeps the two sums A = sum E^{n+1} dlam and
B = sum E^n dlam and forms the difference A - B and the sum A + B once at
the end: five passes over a level per half-step, not seven.  The state
arrives on the same reversed-level stream, E^nt..E^0: a ForwardSolution
steps it back from its last levels, so no snapshot stack is stored either.
The sweep allocates its two sums and the area weights and no other level:
its products go through the operator's scratch level, and dlam is formed
in lam^{n+1}, which the multiplier stream, pulled a level ahead of the
state, no longer reads.
The callers, the optimizer and grad-check, pass E.multiplier(obs), the
adjoint that E's residual drives, and hold no residual.  The regularization
term's coefficients are read from E.op as well, so the state, the
multiplier and the gradient share one linearization point.

The oracle differentiates the Tikhonov value by central differences in a
single nodal coefficient value, normalized by the node's area quadrature
weight so both quantities are commensurable gradient densities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .fields import BoundaryTrace, CoefficientField, Role
from .forward import BcConfig, ForwardSolution, PaddedLevel, SourceSpec, _nodal, forward_trace
from .grid import RegionMask, area_weights, time_weights
from .objective import RegularizationParams, tikhonov


def gradient_sweep(
    E: ForwardSolution,
    lam_backward: Iterable[PaddedLevel],
    reg: RegularizationParams,
    gamma_eps: float,
    gamma_sigma: float,
    mask: RegionMask,
) -> tuple[CoefficientField, CoefficientField, float]:
    """Nodal gradients of the Tikhonov functional, zeroed on FRAME nodes, and
    the multiplier's space-time norm, summed while lam^nt, ..., lam^0 (from
    E.op.adjoint) and E^nt, ..., E^0 (from E.levels_backward()) arrive, so
    only two of each are held.  Every sum runs over the levels' rows; the
    area weights are zero in the ghost columns, and the values that the
    gradient sums collect there are dropped at the end.  The state enters
    through A = sum E^{n+1} dlam and B = sum E^n dlam alone, with
    dlam = lam^{n+1} - lam^n (lam^1 at n = 0) and row 0's term: the eps sum
    is A - B and the sigma sum A + B.  eps, sigma and the initial velocity
    f1 are those of E's operator, the forward solve's own."""
    grid, op = E.grid, E.op
    eps, sigma, dt = op.eps, op.sigma, grid.dt
    wt, w = time_weights(grid), PaddedLevel.of(grid, area_weights(grid)).rows
    sum_next, sum_this = PaddedLevel(grid), PaddedLevel(grid)  # A and B
    tmp = op.coefficients.scratch  # free between the steps of both streams
    lam_sq = 0.0
    lam_next = e_next = None
    # the multiplier is pulled a level ahead of the state, so that when
    # lam^n arrives lam^{n+1} is read by no further step of its stream:
    # dlam is formed in it
    ahead = itertools.pairwise(itertools.chain(lam_backward, [None]))
    levels = zip(range(grid.nt, -1, -1), ahead, E.levels_backward(), strict=True)
    for n, (lam, _), e in levels:
        lam_sq += wt[n] * float(np.dot(np.multiply(lam.rows, w, out=tmp.rows), lam.rows))
        if lam_next is not None:
            # lam^0 enters through row 0's own term alone, below
            dlam = np.subtract(lam_next.rows, lam.rows if n else 0.0, out=lam_next.rows)
            sum_next.rows += np.multiply(e_next.rows, dlam, out=tmp.rows)
            sum_this.rows += np.multiply(e.rows, dlam, out=tmp.rows)
            if n == 0:
                # row 0, the Taylor start, is in units of a_mid: its
                # multiplier is mu^0 = lam^0 a_plus/a_mid, formed in dlam, and
                # its derivatives are (2/dt^2)(E^1 - E^0 - dt f1) in eps and f1
                # in sigma, so A takes -mu^0 (E^1 - E^0) and B takes
                # mu^0 (E^1 - E^0 - 2 dt f1)
                mu = np.divide(lam.rows, op.mid_over_plus(dlam), out=dlam)
                row = np.subtract(e_next.rows, e.rows, out=tmp.rows)
                row *= mu
                sum_next.rows -= row
                if op.f1 is not None:  # f1 is nodal: through the nodes views
                    tmp.nodes -= 2.0 * dt * _nodal(grid, op.f1) * lam_next.nodes
                sum_this.rows += row
        lam_next, e_next = lam, e
    # A - B replaces A and A + B replaces B, through the scratch, so that
    # forming them allocates no level
    np.add(sum_next.rows, sum_this.rows, out=tmp.rows)
    sum_next.rows -= sum_this.rows
    sum_this.rows[...] = tmp.rows
    sum_eps, sum_sigma = sum_next.nodes, sum_this.nodes

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


def check_probes(eps: CoefficientField, sigma: CoefficientField,
                 nodes: list[tuple[int, int]], h_fd: float, mask: RegionMask, adm) -> None:
    """Raise ValueError if a probe v +- h_fd at a node outside FRAME leaves
    the admissible box; FRAME probes are re-pinned to the background."""
    for i, j in nodes:
        for role in Role:
            lo, hi = adm.bounds(role)
            value = (eps if role is Role.EPSILON else sigma).values[i, j]
            for probe in (value + h_fd, value - h_fd):
                if not mask.frame[i, j] and not lo <= probe <= hi:
                    raise ValueError(f"probe {probe:.6g} leaves [{lo}, {hi}] at node ({i}, {j}); "
                                     f"use a smaller h_fd or another evaluation point")


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
) -> list[GradientSample]:
    """Sampled gradient densities by central differences of the functional.

    Each probe perturbs one nodal value, re-pins FRAME nodes (making FRAME
    directions exactly flat) and runs an independent forward solve.  Probes
    that would leave the admissible box at an INNER node are rejected.
    """
    if h_fd <= 0.0:
        raise ValueError("h_fd must be positive")
    check_probes(eps, sigma, sample_nodes, h_fd, mask, adm)
    grid = eps.grid
    w = area_weights(grid)

    def functional(eps_f: CoefficientField, sigma_f: CoefficientField) -> float:
        sim = forward_trace(grid, eps_f, sigma_f, src, bc, obs.sides)
        return tikhonov(sim, obs, eps_f, sigma_f, reg, gamma_eps, gamma_sigma)

    samples: list[GradientSample] = []
    for i, j in sample_nodes:
        for role in Role:
            base = eps if role is Role.EPSILON else sigma
            values = {}
            for s in (+1.0, -1.0):
                pert = base.values.copy()
                pert[i, j] += s * h_fd
                pert[mask.frame] = adm.background(role)
                f = base.with_values(pert)
                if role is Role.EPSILON:
                    values[s] = functional(f, sigma)
                else:
                    values[s] = functional(eps, f)
            deriv = (values[1.0] - values[-1.0]) / (2.0 * h_fd * w[i, j])
            samples.append(GradientSample(node=(i, j), role=role, value=deriv))
    return samples
