"""Conjugate-gradient reconstruction loop and its adaptive multi-level driver.

One iteration is one projected conjugate-gradient step on (eps, sigma).
The trial coefficients v + alpha d, each projected back onto the
admissible box with FRAME nodes pinned, are solved forward, keeping the
simulated boundary trace and checkpoints rather than a snapshot stack.
The step sizes

    alpha = -(g, d) / (gamma (d, d))

are clamped to [-alpha_max, alpha_max] and halved, at most MAX_BACKTRACKS
times, while the functional would increase.  One function then turns the
accepted trial into the next CgState: the Tikhonov functional and the
data errors of its trace, the gradients summed during the backward adjoint
sweep (the checkpoints replay the state backward), the Fletcher-Reeves
directions (restarted when a ratio exceeds beta_max), the next clamped
steps and the size of the update.  That function takes the trace out of
the solve, starts adjoint_levels from the residual and frees both, so the
sweep holds two traces, the observations and the adjoint's boundary data;
no iterate keeps a trace.  The regularization weights decay as
gamma^m = gamma^0 / (m+1)^p.  run_cga and run_acga each stop at the first
of their tolerances, in a fixed order, that a value falls below.

The adaptive driver repeats the loop over nested factor-2 grids, refining
whenever the indicator |h (v - background)| (or |h v| in absolute mode)
reaches a fraction of its maximum over cells, and transfers iterates and
observations to each new grid.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .adjoint import adjoint_levels
from .fields import (
    AdmissibleSet,
    BoundaryTrace,
    CoefficientField,
    extract_trace,
    project,
    transfer_to_refined,
)
from .forward import BcConfig, ForwardSolution, SourceSpec, solve_forward
from .grid import Grid2D, RegionMask, refine, region_mask
from .gradient import gradient_sweep
from .objective import (
    ErrorMetrics,
    RegularizationParams,
    data_errors,
    field_dot,
    field_norm,
    relative_errors,
    tikhonov,
)

LOG_HEADER = (
    "m,F,e_eps_l2,e_eps_sup,e_sigma_l2,e_sigma_sup,e_E_l2,e_E_sup,"
    "g_eps_norm,g_sigma_norm,lambda_norm,gamma_eps,gamma_sigma,alpha_eps,alpha_sigma"
)

LEVELS_HEADER = "level,nno,g_eps_norm_per_node,g_sigma_norm_per_node,max_eps,max_sigma,M_k"

# halvings of the step before an uphill trial is accepted anyway
MAX_BACKTRACKS = 10


@dataclass(frozen=True)
class StoppingTolerances:
    """Update-size (eta1) and gradient-norm (eta2) tolerances plus the
    iteration cap; the loop stops as soon as any single tolerance fires."""

    eta1_eps: float = 1e-8
    eta1_sigma: float = 1e-8
    eta2_eps: float = 1e-8
    eta2_sigma: float = 1e-8
    m_max: int = 100

    def __post_init__(self) -> None:
        if min(self.eta1_eps, self.eta1_sigma, self.eta2_eps, self.eta2_sigma) < 0:
            raise ValueError("tolerances must be >= 0")
        if self.m_max < 0:
            raise ValueError("m_max must be >= 0")


@dataclass(frozen=True)
class InverseProblem:
    """Everything one reconstruction needs besides the iterates themselves."""

    grid: Grid2D
    mask: RegionMask
    adm: AdmissibleSet
    src: SourceSpec
    bc: BcConfig
    obs: BoundaryTrace
    reg: RegularizationParams
    eps_init: CoefficientField
    sigma_init: CoefficientField
    eps_true: CoefficientField | None = None
    sigma_true: CoefficientField | None = None
    alpha_max: float = 1.0
    beta_max: float = 10.0

    def __post_init__(self) -> None:
        if not self.alpha_max > 0.0:  # a clamp at or below 0 turns every step uphill
            raise ValueError(f"alpha_max must be > 0, got {self.alpha_max!r}")
        if not self.beta_max >= 0.0:  # below 0 (or NaN) every iteration restarts
            raise ValueError(f"beta_max must be >= 0, got {self.beta_max!r}")


@dataclass(frozen=True)
class CgState:
    """Fully evaluated iterate m: coefficients, gradients, directions, the
    step size that the next update will take, and the decayed weights."""

    m: int
    eps: CoefficientField
    sigma: CoefficientField
    g_eps: CoefficientField
    g_sigma: CoefficientField
    d_eps: CoefficientField
    d_sigma: CoefficientField
    alpha_eps: float
    alpha_sigma: float
    gamma_eps: float
    gamma_sigma: float
    g_eps_norm: float
    g_sigma_norm: float
    F: float
    e_E_l2: float
    e_E_sup: float
    lambda_norm: float
    restarted: bool = False
    backtracks: int = 0
    update_eps_norm: float = math.inf
    update_sigma_norm: float = math.inf


@dataclass(frozen=True)
class LogRow:
    m: int
    F: float
    metrics: ErrorMetrics
    g_eps_norm: float
    g_sigma_norm: float
    lambda_norm: float
    gamma_eps: float
    gamma_sigma: float
    alpha_eps: float
    alpha_sigma: float

    def values(self) -> list[float]:
        e = self.metrics
        return [
            self.m, self.F, e.e_eps_l2, e.e_eps_sup, e.e_sigma_l2, e.e_sigma_sup,
            e.e_E_l2, e.e_E_sup, self.g_eps_norm, self.g_sigma_norm,
            self.lambda_norm, self.gamma_eps, self.gamma_sigma,
            self.alpha_eps, self.alpha_sigma,
        ]


def step_size(g: CoefficientField, d: CoefficientField, gamma: float, grid: Grid2D) -> float:
    """Unclamped step size -(g, d) / (gamma (d, d)); zero for a zero direction."""
    dd = field_dot(d, d, grid)
    if dd == 0.0 or gamma == 0.0:
        return 0.0
    return -field_dot(g, d, grid) / (gamma * dd)


def fletcher_reeves(g_norm: float, g_prev_norm: float) -> float:
    """Squared gradient-norm ratio; zero (steepest-descent restart) when the
    previous gradient vanished."""
    if g_prev_norm == 0.0:
        return 0.0
    return (g_norm / g_prev_norm) ** 2


def _or_nan(errors, *args) -> tuple[float, float]:
    """A pair of relative errors, or NaN twice where its reference (a declared
    truth coefficient or the simulated trace) is zero."""
    try:
        return errors(*args)
    except ValueError:  # zero reference: relative errors undefined
        return math.nan, math.nan


def _clamped_step(
    problem: InverseProblem, g: CoefficientField, d: CoefficientField, gamma: float
) -> float:
    alpha = step_size(g, d, gamma, problem.grid)
    return float(min(max(alpha, -problem.alpha_max), problem.alpha_max))


def _iterate(
    problem: InverseProblem,
    m: int,
    eps: CoefficientField,
    sigma: CoefficientField,
    E: ForwardSolution,
    prev: CgState | None = None,
    backtracks: int = 0,
) -> CgState:
    """Iterate m from its forward solve E: the functional and the data errors
    of E's trace on the observed sides, the gradients summed during the
    adjoint sweep (neither the state nor the multiplier is stored), the
    direction (steepest descent at the start, Fletcher-Reeves after prev,
    restarting when either ratio exceeds beta_max), the clamped steps and the
    update from prev."""
    grid, obs = problem.grid, problem.obs
    gamma_eps, gamma_sigma = problem.reg.at_iteration(m)
    sim = E.take_trace(obs.sides)
    F = tikhonov(sim, obs, eps, sigma, problem.reg, gamma_eps, gamma_sigma)
    e_E_l2, e_E_sup = _or_nan(data_errors, sim, obs)
    # each trace is freed as soon as the next is formed from it: sim, the
    # residual sim - obs, and the adjoint's Neumann data g, which with obs
    # is all that the sweep holds
    residual = sim - obs
    del sim
    lam_backward = adjoint_levels(grid, eps, sigma, residual, problem.bc, problem.src)
    del residual
    g_eps, g_sigma, lambda_norm = gradient_sweep(
        E, lam_backward, eps, sigma, problem.reg, gamma_eps, gamma_sigma, problem.mask,
    )
    g_eps_norm, g_sigma_norm = field_norm(g_eps.values, grid), field_norm(g_sigma.values, grid)
    d_eps, d_sigma = -g_eps.values, -g_sigma.values
    restarted = False
    update_eps_norm = update_sigma_norm = math.inf
    if prev is not None:
        beta_eps = fletcher_reeves(g_eps_norm, prev.g_eps_norm)
        beta_sigma = fletcher_reeves(g_sigma_norm, prev.g_sigma_norm)
        restarted = beta_eps > problem.beta_max or beta_sigma > problem.beta_max
        if restarted:
            beta_eps = beta_sigma = 0.0
        d_eps = d_eps + beta_eps * prev.d_eps.values
        d_sigma = d_sigma + beta_sigma * prev.d_sigma.values
        update_eps_norm = field_norm(eps.values - prev.eps.values, grid)
        update_sigma_norm = field_norm(sigma.values - prev.sigma.values, grid)
    d_eps, d_sigma = g_eps.with_values(d_eps), g_sigma.with_values(d_sigma)
    return CgState(
        m=m, eps=eps, sigma=sigma, g_eps=g_eps, g_sigma=g_sigma, d_eps=d_eps, d_sigma=d_sigma,
        alpha_eps=_clamped_step(problem, g_eps, d_eps, gamma_eps),
        alpha_sigma=_clamped_step(problem, g_sigma, d_sigma, gamma_sigma),
        gamma_eps=gamma_eps, gamma_sigma=gamma_sigma,
        g_eps_norm=g_eps_norm, g_sigma_norm=g_sigma_norm,
        F=F, e_E_l2=e_E_l2, e_E_sup=e_E_sup, lambda_norm=lambda_norm,
        restarted=restarted, backtracks=backtracks,
        update_eps_norm=update_eps_norm, update_sigma_norm=update_sigma_norm,
    )


def init_state(problem: InverseProblem) -> CgState:
    """Evaluate the initial guesses and seed steepest-descent directions."""
    eps = project(problem.eps_init, problem.adm, problem.mask)
    sigma = project(problem.sigma_init, problem.adm, problem.mask)
    E = solve_forward(problem.grid, eps, sigma, problem.src, problem.bc)
    return _iterate(problem, 0, eps, sigma, E)


def _row(state: CgState, problem: InverseProblem) -> LogRow:
    """The log row of an iterate; the coefficient errors are NaN without a
    declared truth."""
    e_eps = e_sigma = (math.nan, math.nan)
    if problem.eps_true is not None and problem.sigma_true is not None:
        e_eps = _or_nan(relative_errors, state.eps, problem.eps_true)
        e_sigma = _or_nan(relative_errors, state.sigma, problem.sigma_true)
    return LogRow(
        m=state.m, F=state.F,
        metrics=ErrorMetrics(*e_eps, *e_sigma, state.e_E_l2, state.e_E_sup),
        g_eps_norm=state.g_eps_norm, g_sigma_norm=state.g_sigma_norm,
        lambda_norm=state.lambda_norm,
        gamma_eps=state.gamma_eps, gamma_sigma=state.gamma_sigma,
        alpha_eps=state.alpha_eps, alpha_sigma=state.alpha_sigma,
    )


def _trial(
    problem: InverseProblem, v: CoefficientField, alpha: float, d: CoefficientField
) -> CoefficientField:
    """The projected update v + alpha d."""
    return project(v.with_values(v.values + alpha * d.values), problem.adm, problem.mask)


def cg_step(state: CgState, problem: InverseProblem, log: list[LogRow] | None = None) -> CgState:
    """Advance one full iteration: log the received iterate, take the
    projected update (with halving backtracks if the functional would
    increase), then evaluate the new iterate and prepare its direction."""
    if log is not None:
        log.append(_row(state, problem))

    a_eps, a_sigma = state.alpha_eps, state.alpha_sigma
    for backtracks in range(MAX_BACKTRACKS + 1):
        eps_new = _trial(problem, state.eps, a_eps, state.d_eps)
        sigma_new = _trial(problem, state.sigma, a_sigma, state.d_sigma)
        E_new = solve_forward(problem.grid, eps_new, sigma_new, problem.src, problem.bc)
        # no local keeps the trial's trace: _iterate takes it out of E_new
        F_trial = tikhonov(
            extract_trace(E_new, problem.obs.sides), problem.obs, eps_new, sigma_new,
            problem.reg, state.gamma_eps, state.gamma_sigma,
        )
        if F_trial <= state.F or backtracks == MAX_BACKTRACKS:
            break
        del E_new  # drop the rejected trial before the next solve
        a_eps, a_sigma = 0.5 * a_eps, 0.5 * a_sigma
    return _iterate(
        problem, state.m + 1, eps_new, sigma_new, E_new, prev=state, backtracks=backtracks,
    )


def _first_below(checks: Iterable[tuple[str, float, float]]) -> str | None:
    """The reason of the first (reason, value, tol) whose value is below its
    tol, or None."""
    return next((reason for reason, value, tol in checks if value < tol), None)


@dataclass(frozen=True)
class CgaResult:
    eps: CoefficientField
    sigma: CoefficientField
    log: list[LogRow]
    stop_reason: str
    final_g_eps_norm: float
    final_g_sigma_norm: float
    final_F: float


def run_cga(problem: InverseProblem, tols: StoppingTolerances) -> CgaResult:
    """Iterate cg_step until a stopping tolerance fires or the cap is hit.

    One log row is appended per completed iteration; with a cap of M and no
    early stop the log holds rows m = 0..M-1 and the returned coefficients
    are the M-th iterates.
    """
    log: list[LogRow] = []
    state = init_state(problem)
    stop = None
    for _ in range(tols.m_max):
        stop = _first_below((
            ("g_eps", state.g_eps_norm, tols.eta2_eps),
            ("g_sigma", state.g_sigma_norm, tols.eta2_sigma),
        ))
        if stop:
            log.append(_row(state, problem))
            break
        state = cg_step(state, problem, log)
        stop = _first_below((
            ("update_eps", state.update_eps_norm, tols.eta1_eps),
            ("update_sigma", state.update_sigma_norm, tols.eta1_sigma),
        ))
        if stop:
            break
    return CgaResult(
        eps=state.eps, sigma=state.sigma, log=log, stop_reason=stop or "m_max",
        final_g_eps_norm=state.g_eps_norm, final_g_sigma_norm=state.g_sigma_norm,
        final_F=state.F,
    )


@dataclass(frozen=True)
class RefinementFlags:
    """Cell flags from the reconstruction-magnitude indicator."""

    flags: np.ndarray
    max_eps_indicator: float
    max_sigma_indicator: float

    def any(self) -> bool:
        return bool(self.flags.any())


def _check_indicator(beta_eps: float, beta_sigma: float, mode: str) -> None:
    if not 0.0 < beta_eps < 1.0 or not 0.0 < beta_sigma < 1.0:
        raise ValueError("refinement fractions must lie in (0, 1)")
    if mode not in ("absolute", "deviation"):
        raise ValueError(f"unknown indicator mode {mode!r}")


def refinement_flags(
    eps_h: CoefficientField,
    sigma_h: CoefficientField,
    beta_eps: float,
    beta_sigma: float,
    mode: str = "deviation",
    eps_background: float = 1.0,
    sigma_background: float = 1.0,
) -> RefinementFlags:
    """Flag every cell whose indicator |h v| (absolute mode) or
    |h (v - background)| (deviation mode), averaged over cell corners,
    reaches the beta fraction of its maximum for either coefficient.

    A field that is identically background produces no flags in deviation
    mode (the as-printed criterion would flag everything when the maximum
    is zero).
    """
    _check_indicator(beta_eps, beta_sigma, mode)
    grid = eps_h.grid

    def indicator(values: np.ndarray, background: float) -> np.ndarray:
        u = np.abs(values - background) if mode == "deviation" else np.abs(values)
        cell = 0.25 * (u[:-1, :-1] + u[1:, :-1] + u[:-1, 1:] + u[1:, 1:])
        return grid.h * cell

    ind_e = indicator(eps_h.values, eps_background)
    ind_s = indicator(sigma_h.values, sigma_background)
    max_e = float(ind_e.max())
    max_s = float(ind_s.max())
    flags = np.zeros_like(ind_e, dtype=bool)
    if max_e > 0.0:
        flags |= ind_e >= beta_eps * max_e
    if max_s > 0.0:
        flags |= ind_s >= beta_sigma * max_s
    return RefinementFlags(flags=flags, max_eps_indicator=max_e, max_sigma_indicator=max_s)


@dataclass(frozen=True)
class AcgaControls:
    """Refinement fractions, indicator mode, level cap and the cross-level
    stopping tolerances of the adaptive driver."""

    n_max: int = 1
    beta_eps: float = 0.8
    beta_sigma: float = 0.8
    mode: str = "deviation"
    theta1_eps: float = 1e-8
    theta1_sigma: float = 1e-8
    theta2_eps: float = 1e-8
    theta2_sigma: float = 1e-8

    def __post_init__(self) -> None:
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        _check_indicator(self.beta_eps, self.beta_sigma, self.mode)


@dataclass(frozen=True)
class LevelReport:
    level: int
    nno: int
    g_eps_norm_per_node: float
    g_sigma_norm_per_node: float
    max_eps: float
    max_sigma: float
    m_k: int

    def values(self) -> list[float]:
        return [
            self.level, self.nno, self.g_eps_norm_per_node,
            self.g_sigma_norm_per_node, self.max_eps, self.max_sigma, self.m_k,
        ]


@dataclass(frozen=True)
class AcgaResult:
    levels: list[LevelReport]
    level_results: list[CgaResult]
    level_flags: list[RefinementFlags]
    grids: list[Grid2D]
    eps: CoefficientField
    sigma: CoefficientField
    stop_reason: str


def run_acga(
    problem: InverseProblem,
    tols: StoppingTolerances,
    controls: AcgaControls,
    truth_builder=None,
    prior_builder=None,
) -> AcgaResult:
    """Multi-level reconstruction: run the CG loop, flag cells, refine the
    grid and transfer iterates and observations until flags vanish, a
    cross-level tolerance fires or the refinement cap is reached.

    truth_builder/prior_builder are optional callables grid -> (eps, sigma)
    used to resample the exact coefficients (for error reporting) and the
    regularization priors on refined grids; without them the priors are
    interpolated and fine-level coefficient errors are not reported.
    """
    levels: list[LevelReport] = []
    results: list[CgaResult] = []
    flags_per_level: list[RefinementFlags] = []
    grids: list[Grid2D] = []

    prob = problem
    stop = None
    for k in range(controls.n_max + 1):
        result = run_cga(prob, tols)
        grids.append(prob.grid)
        results.append(result)
        levels.append(
            LevelReport(
                level=k,
                nno=prob.grid.n_nodes,
                g_eps_norm_per_node=result.final_g_eps_norm / prob.grid.n_nodes,
                g_sigma_norm_per_node=result.final_g_sigma_norm / prob.grid.n_nodes,
                max_eps=float(result.eps.values.max()),
                max_sigma=float(result.sigma.values.max()),
                m_k=len(result.log),
            )
        )
        flags = refinement_flags(
            result.eps, result.sigma, controls.beta_eps, controls.beta_sigma,
            controls.mode,
            eps_background=prob.adm.eps_background,
            sigma_background=prob.adm.sigma_background,
        )
        flags_per_level.append(flags)

        checks = []
        if k > 0:  # the change from the previous level's reconstruction
            eps_up = transfer_to_refined(results[-2].eps, prob.grid)
            sigma_up = transfer_to_refined(results[-2].sigma, prob.grid)
            checks += [
                ("theta1_eps", field_norm(result.eps.values - eps_up.values, prob.grid),
                 controls.theta1_eps),
                ("theta1_sigma", field_norm(result.sigma.values - sigma_up.values, prob.grid),
                 controls.theta1_sigma),
            ]
        checks += [
            ("theta2_eps", result.final_g_eps_norm, controls.theta2_eps),
            ("theta2_sigma", result.final_g_sigma_norm, controls.theta2_sigma),
        ]
        stop = _first_below(checks)
        if stop or k == controls.n_max:
            break
        if not flags.any():
            stop = "no_flags"
            break

        fine = refine(prob.grid)
        if prior_builder is not None:
            eps_prior_f, sigma_prior_f = prior_builder(fine)
        else:
            eps_prior_f = transfer_to_refined(prob.reg.eps_prior, fine)
            sigma_prior_f = transfer_to_refined(prob.reg.sigma_prior, fine)
        eps_true_f, sigma_true_f = (None, None) if truth_builder is None else truth_builder(fine)
        prob = replace(
            prob, grid=fine, mask=region_mask(fine, prob.mask.frame_width),
            obs=transfer_to_refined(prob.obs, fine),
            reg=replace(prob.reg, eps_prior=eps_prior_f, sigma_prior=sigma_prior_f),
            eps_init=transfer_to_refined(result.eps, fine),
            sigma_init=transfer_to_refined(result.sigma, fine),
            eps_true=eps_true_f, sigma_true=sigma_true_f,
        )

    return AcgaResult(
        levels=levels,
        level_results=results,
        level_flags=flags_per_level,
        grids=grids,
        eps=results[-1].eps,
        sigma=results[-1].sigma,
        stop_reason=stop or "n_max",
    )
