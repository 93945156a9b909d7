"""Conjugate-gradient reconstruction loop and its adaptive multi-level driver.

One iteration is one projected conjugate-gradient step on (eps, sigma).
The trial coefficients v + alpha d, each projected back onto the
admissible box with FRAME nodes pinned, are solved forward, keeping the
boundary trace and two levels rather than a snapshot stack.  The step sizes

    alpha = -(g, d) / (gamma (d, d))

are clamped to [-alpha_max, alpha_max] and halved, at most MAX_BACKTRACKS
times, while the functional would increase.  When even the last trial
increases it, the search restarts once along steepest descent; when that
fails too, no step is taken and the loop stops at the last accepted
iterate (line_search_failed).  Each trial makes one blocked pass over its
trace and the observations, misfit: its r^2 gives the trial's functional,
and the accepted trial's sums give the next iterate's F and data errors,
so a solve's trace is summed once.  One function turns
the accepted trial into the next CgState: the Tikhonov functional and the
data errors of its trace, the gradients summed during the backward
adjoint sweep (the state steps back beside it), the Fletcher-Reeves
directions (restarted when a ratio exceeds beta_max), the next clamped
steps and the size of the update.  It reads eps and sigma from the
solve's operator, then sweeps its own multiplier, whose boundary data are
formed from the solve's trace and the observations a window at a time;
no iterate keeps a trace, and no gradient is formed at coefficients or
boundary conditions other than the solve's.  The regularization weights
decay as gamma^m = gamma^0 / (m+1)^p.  run_cga and run_acga each stop at
the first of their tolerances, in a fixed order, that a value falls
below.

The adaptive driver repeats the loop over nested factor-2 grids, refining
whenever the indicator |h (v - background)| (or |h v| in absolute mode)
reaches a fraction of its maximum over cells, and transfers iterates to
each new grid.  The observations on a refined level are a RefinedTrace
chained from level 0's stored trace, formed a block of rows at a time
where the misfit and the adjoint's window read them.  So a sweep holds
one trace on a refined level, the solve's perimeter record, and two on
level 0, where the observations are stored.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, fields, replace

import numpy as np

from .fields import (
    AdmissibleSet,
    BoundaryTrace,
    CoefficientField,
    RefinedTrace,
    project,
    transfer_to_refined,
)
from .forward import BcConfig, ForwardSolution, SourceSpec, solve_forward
from .grid import (
    Grid2D, RegionMask, area_weights, perimeter_weights, refine, region_mask, time_weights,
)
from .gradient import gradient_sweep
from .objective import (
    Misfit,
    RegularizationParams,
    field_dot,
    field_norm,
    misfit,
    regularized,
    relative_errors,
)

# halvings of the step along one direction before the line search gives it up
MAX_BACKTRACKS = 10


def _check_tolerances(*tols: float) -> None:
    if not all(t >= 0 for t in tols):  # a NaN tolerance fails too
        raise ValueError("tolerances must be >= 0")


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
        _check_tolerances(self.eta1_eps, self.eta1_sigma, self.eta2_eps, self.eta2_sigma)
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
    obs: BoundaryTrace | RefinedTrace
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
        for name in ("gamma_eps0", "gamma_sigma0"):
            if not getattr(self.reg, name) > 0.0:  # at 0 every step of its coefficient is 0
                raise ValueError(f"{name} must be > 0, got {getattr(self.reg, name)!r}")


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
    """One row of convergence.csv: the fields are its columns, in order; the
    e_* columns are relative L2 and sup errors of eps, sigma and the trace."""

    m: int
    F: float
    e_eps_l2: float
    e_eps_sup: float
    e_sigma_l2: float
    e_sigma_sup: float
    e_E_l2: float
    e_E_sup: float
    g_eps_norm: float
    g_sigma_norm: float
    lambda_norm: float
    gamma_eps: float
    gamma_sigma: float
    alpha_eps: float
    alpha_sigma: float


LOG_HEADER = ",".join(f.name for f in fields(LogRow))


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
    problem: InverseProblem, m: int, E: ForwardSolution, sums: Misfit,
    prev: CgState | None = None, backtracks: int = 0,
) -> CgState:
    """Iterate m from its forward solve E, at E's eps and sigma: the
    functional and the data errors of E's trace on the observed sides, from
    sums, misfit(E.trace, problem.obs), the gradients summed over E's
    multiplier (neither the state nor the multiplier is stored),
    the direction (steepest descent at the start, Fletcher-Reeves after
    prev, restarting when either ratio exceeds beta_max), the clamped steps
    and the update from prev."""
    grid, obs, eps, sigma = problem.grid, problem.obs, E.op.eps, E.op.sigma
    gamma_eps, gamma_sigma = problem.reg.at_iteration(m)
    F = regularized(sums.r_sq, eps, sigma, problem.reg, gamma_eps, gamma_sigma)
    e_E_l2, e_E_sup = _or_nan(sums.relative)
    g_eps, g_sigma, lambda_norm = gradient_sweep(
        E, E.multiplier(obs), problem.reg, gamma_eps, gamma_sigma, problem.mask,
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
    return _iterate(problem, 0, E, misfit(E.trace, problem.obs))


def _row(state: CgState, problem: InverseProblem) -> LogRow:
    """The log row of an iterate; the coefficient errors are NaN without a
    declared truth."""
    e_eps = e_sigma = (math.nan, math.nan)
    if problem.eps_true is not None and problem.sigma_true is not None:
        e_eps = _or_nan(relative_errors, state.eps, problem.eps_true)
        e_sigma = _or_nan(relative_errors, state.sigma, problem.sigma_true)
    return LogRow(
        state.m, state.F, *e_eps, *e_sigma, state.e_E_l2, state.e_E_sup,
        state.g_eps_norm, state.g_sigma_norm, state.lambda_norm,
        state.gamma_eps, state.gamma_sigma, state.alpha_eps, state.alpha_sigma,
    )


def _trial(
    problem: InverseProblem, v: CoefficientField, alpha: float, d: CoefficientField
) -> CoefficientField:
    """The projected update v + alpha d."""
    return project(v.with_values(v.values + alpha * d.values), problem.adm, problem.mask)


def _steepest(state: CgState, problem: InverseProblem) -> CgState:
    """state restarted along steepest descent: the direction -g and the
    clamped steps along it."""
    d_eps = state.g_eps.with_values(-state.g_eps.values)
    d_sigma = state.g_sigma.with_values(-state.g_sigma.values)
    return replace(
        state, d_eps=d_eps, d_sigma=d_sigma, restarted=True,
        alpha_eps=_clamped_step(problem, state.g_eps, d_eps, state.gamma_eps),
        alpha_sigma=_clamped_step(problem, state.g_sigma, d_sigma, state.gamma_sigma),
    )


def cg_step(
    state: CgState, problem: InverseProblem, log: list[LogRow] | None = None
) -> CgState | None:
    """Advance one full iteration: log the received iterate, take the
    projected update (with halving backtracks if the functional would
    increase), then evaluate the new iterate and prepare its direction.

    When every trial along a conjugate direction increases the functional,
    the search restarts once along -g: a Fletcher-Reeves direction need
    not be a descent direction.  None when that fails too, or
    when the direction already was -g: no uphill step is taken."""
    if log is not None:
        log.append(_row(state, problem))

    start, rejected = state, 0
    while True:
        a_eps, a_sigma = start.alpha_eps, start.alpha_sigma
        for _ in range(MAX_BACKTRACKS + 1):
            eps_new = _trial(problem, state.eps, a_eps, start.d_eps)
            sigma_new = _trial(problem, state.sigma, a_sigma, start.d_sigma)
            E_new = solve_forward(problem.grid, eps_new, sigma_new, problem.src, problem.bc)
            # the one pass over the trial's trace: the accepted iterate's F
            # and data errors are taken from the same sums
            sums = misfit(E_new.trace, problem.obs)
            F_trial = regularized(sums.r_sq, eps_new, sigma_new,
                                  problem.reg, state.gamma_eps, state.gamma_sigma)
            if F_trial <= state.F:
                return _iterate(problem, state.m + 1, E_new, sums, prev=start,
                                backtracks=rejected)
            del E_new  # drop the rejected trial before the next solve
            rejected += 1
            a_eps, a_sigma = 0.5 * a_eps, 0.5 * a_sigma
        if start.m == 0 or start.restarted:  # the direction was -g
            return None
        start = _steepest(state, problem)


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
    """Iterate cg_step until a stopping tolerance fires, the line search
    fails or the cap is hit.

    One log row is appended per completed iteration; with a cap of M and no
    early stop the log holds rows m = 0..M-1 and the returned coefficients
    are the M-th iterates.  On a failed line search the last row and the
    returned coefficients are those of the last accepted iterate.
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
        new = cg_step(state, problem, log)
        if new is None:
            stop = "line_search_failed"
            break
        state = new
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
) -> np.ndarray:
    """Flag every cell whose indicator |h v| (absolute mode) or
    |h (v - background)| (deviation mode), averaged over cell corners,
    reaches the beta fraction of its maximum for either coefficient.

    A field that is identically background produces no flags in deviation
    mode (the as-printed criterion would flag everything when the maximum
    is zero).
    """
    _check_indicator(beta_eps, beta_sigma, mode)
    grid = eps_h.grid
    flags = np.zeros((grid.nx, grid.ny), dtype=bool)
    for values, background, beta in ((eps_h.values, eps_background, beta_eps),
                                     (sigma_h.values, sigma_background, beta_sigma)):
        u = np.abs(values - background) if mode == "deviation" else np.abs(values)
        indicator = grid.h * (0.25 * (u[:-1, :-1] + u[1:, :-1] + u[:-1, 1:] + u[1:, 1:]))
        peak = float(indicator.max())
        if peak > 0.0:
            flags |= indicator >= beta * peak
    return flags


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
        _check_tolerances(self.theta1_eps, self.theta1_sigma, self.theta2_eps, self.theta2_sigma)
        _check_indicator(self.beta_eps, self.beta_sigma, self.mode)


@dataclass(frozen=True)
class LevelReport:
    """One row of levels.csv: the fields are its columns, in order; M_k is
    the number of CG iterations logged on level k."""

    level: int
    nno: int
    g_eps_norm_per_node: float
    g_sigma_norm_per_node: float
    max_eps: float
    max_sigma: float
    M_k: int


LEVELS_HEADER = ",".join(f.name for f in fields(LevelReport))


@dataclass(frozen=True)
class AcgaResult:
    """The CG result and the refinement flags of every level, coarsest first."""

    level_results: list[CgaResult]
    level_flags: list[np.ndarray]
    stop_reason: str

    @property
    def levels(self) -> list[LevelReport]:
        """One levels.csv row per level."""
        return [
            LevelReport(
                level=k, nno=r.eps.grid.n_nodes,
                g_eps_norm_per_node=r.final_g_eps_norm / r.eps.grid.n_nodes,
                g_sigma_norm_per_node=r.final_g_sigma_norm / r.eps.grid.n_nodes,
                max_eps=float(r.eps.values.max()), max_sigma=float(r.sigma.values.max()),
                M_k=len(r.log),
            )
            for k, r in enumerate(self.level_results)
        ]


def run_acga(
    problem: InverseProblem,
    tols: StoppingTolerances,
    controls: AcgaControls,
    truth_builder=None,
    prior_builder=None,
) -> AcgaResult:
    """Multi-level reconstruction: run the CG loop, flag cells, refine the
    grid and transfer iterates and observations until flags vanish, a
    cross-level tolerance fires or the refinement cap is reached.  A refined
    level's observations are a RefinedTrace of the previous level's, so
    none but problem.obs is stored.

    truth_builder/prior_builder are optional callables grid -> (eps, sigma)
    used to resample the exact coefficients (for error reporting) and the
    regularization priors on refined grids; without them the priors are
    interpolated and fine-level coefficient errors are not reported.
    Source data given as arrays (volume_forcing, f0, f1) fit one grid only,
    so with n_max >= 1 they raise ValueError before any solve.
    """
    arrays = [name for name in ("volume_forcing", "f0", "f1")
              if not (getattr(problem.src, name) is None or callable(getattr(problem.src, name)))]
    if controls.n_max >= 1 and arrays:
        raise ValueError(f"{', '.join(arrays)}: an array fits level 0's grid only, "
                         "refined levels need a callable")
    results: list[CgaResult] = []
    flags: list[np.ndarray] = []

    prob = problem
    stop = None
    for k in range(controls.n_max + 1):
        result = run_cga(prob, tols)
        results.append(result)
        flags.append(refinement_flags(
            result.eps, result.sigma, controls.beta_eps, controls.beta_sigma,
            controls.mode,
            eps_background=prob.adm.eps_background,
            sigma_background=prob.adm.sigma_background,
        ))

        checks = []
        if k > 0:  # the change from the previous level's reconstruction, the initial guess
            eps_change = field_norm(result.eps.values - prob.eps_init.values, prob.grid)
            sigma_change = field_norm(result.sigma.values - prob.sigma_init.values, prob.grid)
            checks += [
                ("theta1_eps", eps_change, controls.theta1_eps),
                ("theta1_sigma", sigma_change, controls.theta1_sigma),
            ]
        checks += [
            ("theta2_eps", result.final_g_eps_norm, controls.theta2_eps),
            ("theta2_sigma", result.final_g_sigma_norm, controls.theta2_sigma),
        ]
        stop = _first_below(checks)
        if not stop and result.stop_reason == "line_search_failed":
            stop = result.stop_reason  # a stalled level is not refined
        if stop or k == controls.n_max:
            break
        if not flags[-1].any():
            stop = "no_flags"
            break

        fine = refine(prob.grid)
        # the fine grid's quadrature weights are cached for the process's
        # life; made before the level's arrays, they sit below them in the
        # heap, so that the C allocator can return the level's memory when
        # it is freed, which one of them made mid-level would pin
        area_weights(fine), time_weights(fine), perimeter_weights(fine, prob.obs.sides)
        if prior_builder is not None:
            eps_prior_f, sigma_prior_f = prior_builder(fine)
        else:
            eps_prior_f = transfer_to_refined(prob.reg.eps_prior, fine)
            sigma_prior_f = transfer_to_refined(prob.reg.sigma_prior, fine)
        eps_true_f, sigma_true_f = (None, None) if truth_builder is None else truth_builder(fine)
        prob = replace(
            prob, grid=fine, mask=region_mask(fine, prob.mask.frame_width),
            obs=RefinedTrace(prob.obs, fine),  # formed a block at a time, never stored
            reg=replace(prob.reg, eps_prior=eps_prior_f, sigma_prior=sigma_prior_f),
            eps_init=transfer_to_refined(result.eps, fine),
            sigma_init=transfer_to_refined(result.sigma, fine),
            eps_true=eps_true_f, sigma_true=sigma_true_f,
        )

    return AcgaResult(level_results=results, level_flags=flags, stop_reason=stop or "n_max")
