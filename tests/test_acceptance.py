"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (run with -s to see them alongside pytest's own report).
"""

import time

import numpy as np
import pytest

from waveinv import (
    ALL_SIDES,
    AcgaControls,
    AdmissibleSet,
    BcConfig,
    BcKind,
    InverseProblem,
    RegularizationParams,
    Role,
    Side,
    SourceSpec,
    StoppingTolerances,
    build_grid,
    bump_perturbed,
    constant_coefficient,
    extract_trace,
    fd_gradient_oracle,
    field_norm,
    fletcher_reeves,
    gaussian_coefficient,
    lagrangian,
    project,
    region_mask,
    run_acga,
    run_cga,
    solve_forward,
    step_size,
    tikhonov,
    trace_dot,
    trace_norm_sq,
)
from conftest import (
    INCLUSION_CENTER,
    adjoint_gradients,
    decomposition_identity_check,
    discrete_energy,
    smooth_random_coefficient,
    smooth_random_spacetime,
    smooth_random_trace,
    spacetime_dot,
    spacetime_norm,
    stack_trace,
    stored_adjoint,
    stored_state,
    synthesize_observations,
    truth_pair,
)


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({label}): {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_01_manufactured_solution_convergence():
    t0 = time.time()

    def run(ncell):
        g = build_grid(ncell, ncell, T=0.5)
        eps = gaussian_coefficient(g, 1.0, 0.5, (0.4, 0.6), 0.1, Role.EPSILON)
        sig = constant_coefficient(g, 1.0, Role.SIGMA)

        def exact(X, Y, t):
            return np.sin(np.pi * X) * np.sin(np.pi * Y) * np.cos(t)

        def forcing(X, Y, t):
            ss = np.sin(np.pi * X) * np.sin(np.pi * Y)
            return ss * (
                -eps.values * np.cos(t)
                - sig.values * np.sin(t)
                + 2.0 * np.pi**2 * np.cos(t)
            )

        flux = {
            Side.LEFT: lambda x, y, t: -np.pi * np.cos(np.pi * x) * np.sin(np.pi * y) * np.cos(t),
            Side.RIGHT: lambda x, y, t: np.pi * np.cos(np.pi * x) * np.sin(np.pi * y) * np.cos(t),
            Side.BOTTOM: lambda x, y, t: -np.pi * np.sin(np.pi * x) * np.cos(np.pi * y) * np.cos(t),
            Side.TOP: lambda x, y, t: np.pi * np.sin(np.pi * x) * np.cos(np.pi * y) * np.cos(t),
        }
        bc = BcConfig(sides={s: BcKind.NEUMANN_DATA for s in ALL_SIDES}, neumann_data=flux)
        src = SourceSpec(volume_forcing=forcing, f0=lambda X, Y: exact(X, Y, 0.0))
        E = stored_state(g, eps, sig, src, bc)
        X, Y = g.meshgrid()
        return float(np.abs(E[-1] - exact(X, Y, g.T)).max())

    errs = [run(n) for n in (32, 64, 128)]
    orders = [float(np.log2(errs[k] / errs[k + 1])) for k in range(2)]
    elapsed = time.time() - t0
    ok = all(1.8 <= o <= 2.2 for o in orders) and elapsed < 60.0
    report(1, "manufactured-solution order", ok,
           f"orders={[round(o, 3) for o in orders]} in [1.8, 2.2], {elapsed:.1f}s < 60s")


def test_criterion_02_energy_monotonicity():
    g = build_grid(100, 100, T=1.2)
    eps, sig = truth_pair(g)  # sigma >= 1 everywhere
    src = SourceSpec()
    E = stored_state(g, eps, sig, src, BcConfig())
    H = np.array([discrete_energy(g, E, eps, n) for n in range(1, g.nt + 1)])
    start = int(np.searchsorted(g.times(), src.switch_time())) + 2
    tail = H[start:]
    increments = np.diff(tail)
    worst = float((increments / tail[:-1]).max())
    ok = bool(np.all(increments <= 1e-8 * tail[:-1]))
    report(2, "energy monotonicity", ok,
           f"worst relative per-step increment {worst:.2e} <= 1e-8 "
           f"over {len(tail)} post-source steps")


def test_criterion_03_adjoint_dot_product_identity():
    t0 = time.time()
    g = build_grid(32, 32, T=1.2)
    eps, sig = truth_pair(g)
    bc = BcConfig(sides={s: BcKind.NEUMANN_ZERO for s in ALL_SIDES})
    defects = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        u = smooth_random_spacetime(g, rng)
        r = smooth_random_trace(g, rng)
        src = SourceSpec(amplitude=0.0, volume_forcing=u)
        E = solve_forward(g, eps, sig, src, bc)
        lam = stored_adjoint(E.op, r)
        # pairing convention: <trace E[u], r> = -<u, lam[r]> for the adjoint
        # driven by dlam/dn = -r, so the defect sums the two pairings
        num = abs(trace_dot(extract_trace(E, ALL_SIDES), r) + spacetime_dot(g, u, lam))
        defects.append(num / (spacetime_norm(g, u) * np.sqrt(trace_norm_sq(r))))
    elapsed = time.time() - t0
    ok = max(defects) <= 3e-2 and elapsed < 30.0
    report(3, "adjoint dot-product identity", ok,
           f"max relative defect {max(defects):.2e} <= 3e-2 over 10 seeds, "
           f"{elapsed:.1f}s < 30s")


def _gradient_mismatches(ncell, n_nodes=8, seed=7):
    g = build_grid(ncell, ncell, T=1.2)
    mask = region_mask(g, 2)
    adm = AdmissibleSet()
    src, bc = SourceSpec(), BcConfig()
    eps_t, sig_t = truth_pair(g)
    obs = extract_trace(solve_forward(g, eps_t, sig_t, src, bc), ALL_SIDES)
    eps_e = project(constant_coefficient(g, 2.0, Role.EPSILON), adm, mask)
    sig_e = project(constant_coefficient(g, 2.0, Role.SIGMA), adm, mask)
    reg = RegularizationParams(0.0, 0.0, 0.5, eps_e, sig_e)
    E = solve_forward(g, eps_e, sig_e, src, bc)
    residual = extract_trace(E, ALL_SIDES) - obs
    g_eps, g_sig, _ = adjoint_gradients(E, residual, reg, 0.0, 0.0, mask)
    rng = np.random.default_rng(seed)
    inner = np.argwhere(mask.inner)
    nodes = [tuple(inner[k]) for k in rng.choice(len(inner), n_nodes, replace=False)]
    samples = fd_gradient_oracle(
        eps_e, sig_e, obs, reg, 0.0, 0.0, nodes, 1e-3, src, bc, mask, adm
    )
    max_fd = {
        role: max(abs(s.value) for s in samples if s.role is role)
        for role in (Role.EPSILON, Role.SIGMA)
    }
    rels = []
    for s in samples:
        if abs(s.value) < 1e-3 * max_fd[s.role]:
            continue
        adj = (g_eps if s.role is Role.EPSILON else g_sig).values[s.node]
        rels.append(abs(adj - s.value) / max(abs(s.value), 1e-12))
    return rels


def test_criterion_04_gradient_check():
    t0 = time.time()
    rels_24 = _gradient_mismatches(24)
    rels_48 = _gradient_mismatches(48)
    elapsed = time.time() - t0
    ok = (
        max(rels_24) <= 5e-2
        and np.median(rels_48) < np.median(rels_24)
        and elapsed < 120.0
    )
    report(4, "adjoint vs finite-difference gradient", ok,
           f"max mismatch {max(rels_24):.2e} <= 5e-2 at h=1/24; median "
           f"{np.median(rels_24):.2e} -> {np.median(rels_48):.2e} at h=1/48; "
           f"{elapsed:.1f}s < 120s")


def test_criterion_05_lagrangian_identity():
    g = build_grid(24, 24, T=1.2)
    eps, sig = truth_pair(g)
    src, bc = SourceSpec(), BcConfig()
    E = stored_state(g, eps, sig, src, bc)
    obs = stack_trace(g, E)
    reg = RegularizationParams(
        0.1, 0.1, 0.5,
        constant_coefficient(g, 1.0, Role.EPSILON),
        constant_coefficient(g, 1.0, Role.SIGMA),
    )
    F = tikhonov(obs, obs, eps, sig, reg, 0.1, 0.1)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(5):
        lam = rng.standard_normal(E.shape)
        L = lagrangian(E, lam, eps, sig, reg, 0.1, 0.1, obs, src, bc)
        worst = max(worst, abs(L - F))
    tol = 1e-10 * (1.0 + abs(F))
    ok = worst <= tol
    report(5, "discrete Lagrangian equals functional", ok,
           f"max |L - F| = {worst:.2e} <= {tol:.2e} over 5 random multipliers")


def test_criterion_06_decomposition_identities():
    g = build_grid(32, 32, T=1.2)
    src, bc = SourceSpec(), BcConfig()
    eps_t, sig_t = truth_pair(g)
    obs = extract_trace(solve_forward(g, eps_t, sig_t, src, bc), ALL_SIDES)
    reg = RegularizationParams(
        1.0, 1.0, 0.5,
        constant_coefficient(g, 1.0, Role.EPSILON),
        constant_coefficient(g, 1.0, Role.SIGMA),
    )
    rng = np.random.default_rng(12)
    worst = {(0.0, 0.0): 0.0, (0.1, 0.2): 0.0}
    for _ in range(10):
        eps_a = smooth_random_coefficient(g, rng, Role.EPSILON)
        sig_a = smooth_random_coefficient(g, rng, Role.SIGMA)
        eps_b = smooth_random_coefficient(g, rng, Role.EPSILON)
        sig_b = smooth_random_coefficient(g, rng, Role.SIGMA)
        sim = extract_trace(solve_forward(g, eps_a, sig_a, src, bc), ALL_SIDES)
        for gammas in worst:
            F = tikhonov(sim, obs, eps_a, sig_a, reg, *gammas)
            resid = decomposition_identity_check(
                eps_a, sig_a, eps_b, sig_b, obs, reg, *gammas, src, bc
            )
            worst[gammas] = max(worst[gammas], resid / (1.0 + abs(F)))
    ok = all(v <= 1e-10 for v in worst.values())
    report(6, "split identities with/without regularization", ok,
           f"normalized residuals: plain {worst[(0.0, 0.0)]:.2e}, "
           f"regularized {worst[(0.1, 0.2)]:.2e}, both <= 1e-10 on 10 pairs")


def _study_problem(grid, perturbed_start: bool):
    obs, eps_t, sig_t, src, bc = synthesize_observations(grid, 0.1, 42)
    if perturbed_start:
        eps0 = bump_perturbed(eps_t, 20.0)
        sig0 = bump_perturbed(sig_t, 20.0)
    else:
        eps0 = constant_coefficient(grid, 1.0, Role.EPSILON)
        sig0 = constant_coefficient(grid, 1.0, Role.SIGMA)
    reg = RegularizationParams(0.01, 0.01, 0.5, eps0, sig0)
    return InverseProblem(
        grid=grid, mask=region_mask(grid, 0), adm=AdmissibleSet(),
        src=src, bc=bc, obs=obs, reg=reg,
        eps_init=eps0, sigma_init=sig0, eps_true=eps_t, sigma_true=sig_t,
    ), eps_t


@pytest.mark.slow
def test_criterion_07_flat_start_reconstruction():
    g = build_grid(100, 100, T=1.2)
    problem, eps_t = _study_problem(g, perturbed_start=False)
    result = run_cga(problem, StoppingTolerances(m_max=100))

    e0 = result.log[0].e_eps_l2
    e_final = field_norm(result.eps.values - eps_t.values, g) / field_norm(eps_t.values, g)
    e_E = [row.e_E_l2 for row in result.log[:11]]
    decreasing = all(e_E[k + 1] < e_E[k] for k in range(10))
    iv, jv = np.unravel_index(np.argmax(result.eps.values - 1.0), result.eps.values.shape)
    dist = max(abs(iv * g.h - INCLUSION_CENTER[0]), abs(jv * g.h - INCLUSION_CENTER[1]))
    ok = e_final < e0 and decreasing and dist <= 0.2
    report(7, "flat-start study", ok,
           f"e_eps {e0:.4f} -> {e_final:.4f}; data error decreasing over first 10 "
           f"iterations: {decreasing}; peak at distance {dist:.3f} <= 0.2 from "
           f"{INCLUSION_CENTER}")


@pytest.mark.slow
def test_criterion_08_perturbed_start_reconstruction():
    g = build_grid(100, 100, T=1.2)
    problem, _ = _study_problem(g, perturbed_start=True)
    result = run_cga(problem, StoppingTolerances(m_max=100))
    first, last = result.log[0], result.log[-1]
    series = ("e_eps_l2", "e_eps_sup", "e_sigma_l2", "e_sigma_sup", "e_E_l2", "e_E_sup")
    drops = {s: getattr(last, s) < getattr(first, s) for s in series}
    grads_drop = (
        last.g_eps_norm < first.g_eps_norm and last.g_sigma_norm < first.g_sigma_norm
    )
    ok = all(drops.values()) and grads_drop
    values = ", ".join(
        f"{s} {getattr(first, s):.4f} -> {getattr(last, s):.4f} ({drops[s]})" for s in series
    )
    report(8, "perturbed-start study", ok,
           f"all six error series decreased: {all(drops.values())} [{values}]; "
           f"gradient norms decreased: {grads_drop}")


@pytest.mark.slow
def test_criterion_09_adaptive_improvement():
    g = build_grid(50, 50, T=1.2)  # desk-scale base; level 1 runs at 100x100

    def truth_builder(grid):
        return truth_pair(grid)

    def prior_builder(grid):
        e, s = truth_pair(grid)
        return bump_perturbed(e, 20.0), bump_perturbed(s, 20.0)

    problem, _ = _study_problem(g, perturbed_start=True)
    controls = AcgaControls(n_max=1, beta_eps=0.8, beta_sigma=0.8, mode="deviation")
    res = run_acga(problem, StoppingTolerances(m_max=30), controls,
                   truth_builder, prior_builder)

    e_levels = [r.log[-1].e_eps_l2 for r in res.level_results]
    flags = res.level_flags[0]
    cells = np.argwhere(flags)
    g0 = res.level_results[0].eps.grid
    dists = [
        float(np.hypot((i + 0.5) * g0.h - INCLUSION_CENTER[0],
                       (j + 0.5) * g0.h - INCLUSION_CENTER[1]))
        for i, j in cells
    ]
    ok = (
        len(e_levels) == 2
        and e_levels[1] <= e_levels[0]
        and len(cells) > 0
        and max(dists) <= 0.25
    )
    report(9, "adaptive refinement improves the reconstruction", ok,
           f"e_eps per level {[round(v, 5) for v in e_levels]} (non-increasing); "
           f"{len(cells)} flagged cells within {max(dists):.3f} <= 0.25 of the inclusion")


def test_criterion_10_update_formula_arithmetic():
    beta = fletcher_reeves(2.0, 4.0)
    reg = RegularizationParams(
        0.1, 0.1, 0.5,
        constant_coefficient(build_grid(8, 8), 1.0, Role.EPSILON),
        constant_coefficient(build_grid(8, 8), 1.0, Role.SIGMA),
    )
    gammas = (reg.at_iteration(0)[0], reg.at_iteration(3)[0])
    g = build_grid(8, 8)
    grad = gaussian_coefficient(g, 0.0, 1.0, (0.5, 0.5), 0.05, Role.EPSILON)
    alpha = step_size(grad, grad.with_values(-grad.values), 0.1, g)
    ok = (
        beta == 0.25
        and gammas == (0.1, 0.05)
        and alpha == pytest.approx(10.0, rel=1e-12)
    )
    report(10, "update formula arithmetic", ok,
           f"beta(2,4)={beta}; gamma schedule at m=0,3: {gammas}; "
           f"steepest-descent alpha={alpha} (= 1/gamma pre-clamp)")
