import tracemalloc
from dataclasses import astuple, fields, replace

import numpy as np
import pytest

import waveinv.optimizer as optimizer
from waveinv import (
    ALL_SIDES,
    AcgaControls,
    AdmissibleSet,
    BcConfig,
    BoundaryTrace,
    ForwardSolution,
    InverseProblem,
    RegularizationParams,
    Role,
    SourceSpec,
    StoppingTolerances,
    build_grid,
    cg_step,
    constant_coefficient,
    extract_trace,
    fletcher_reeves,
    gaussian_coefficient,
    init_state,
    refinement_flags,
    region_mask,
    run_acga,
    run_cga,
    solve_forward,
    step_size,
)
from conftest import synthesize_observations, truth_pair


def small_problem(ncell=16, noise=0.1, seed=42, frame_width=0, g0=0.01, **kwargs):
    g = build_grid(ncell, ncell, T=1.2)
    obs, eps_t, sig_t, src, bc = synthesize_observations(g, noise, seed)
    eps0 = constant_coefficient(g, 1.0, Role.EPSILON)
    sig0 = constant_coefficient(g, 1.0, Role.SIGMA)
    reg = RegularizationParams(g0, g0, 0.5, eps0, sig0)
    return InverseProblem(
        grid=g,
        mask=region_mask(g, frame_width),
        adm=AdmissibleSet(),
        src=src,
        bc=bc,
        obs=obs,
        reg=reg,
        eps_init=eps0,
        sigma_init=sig0,
        eps_true=eps_t,
        sigma_true=sig_t,
        **kwargs,
    )


class TestFormulas:
    def test_fletcher_reeves_ratio(self):
        assert fletcher_reeves(2.0, 4.0) == 0.25

    def test_fletcher_reeves_restart_on_zero(self):
        assert fletcher_reeves(1.0, 0.0) == 0.0

    def test_step_size_inverse_gamma_for_steepest_descent(self):
        g = build_grid(8, 8)
        grad = gaussian_coefficient(g, 0.0, 1.0, (0.5, 0.5), 0.05, Role.EPSILON)
        d = grad.with_values(-grad.values)
        assert step_size(grad, d, 0.1, g) == pytest.approx(10.0, rel=1e-12)

    def test_step_size_zero_direction(self):
        g = build_grid(8, 8)
        zero = constant_coefficient(g, 0.0, Role.EPSILON)
        assert step_size(zero, zero, 0.1, g) == 0.0


class TestCgStep:
    def test_initial_directions_are_steepest_descent(self):
        problem = small_problem()
        state = init_state(problem)
        assert state.m == 0
        assert np.array_equal(state.d_eps.values, -state.g_eps.values)
        assert np.array_equal(state.d_sigma.values, -state.g_sigma.values)

    def test_iterates_stay_admissible_with_aggressive_steps(self):
        problem = small_problem(alpha_max=50.0)
        state = init_state(problem)
        log = []
        for _ in range(3):
            state = cg_step(state, problem, log)
            for field, role in ((state.eps, Role.EPSILON), (state.sigma, Role.SIGMA)):
                lo, hi = problem.adm.bounds(role)
                assert field.values.min() >= lo
                assert field.values.max() <= hi

    def test_frame_nodes_pinned_through_iterations(self):
        problem = small_problem(frame_width=2)
        state = init_state(problem)
        state = cg_step(state, problem, [])
        assert np.all(state.eps.values[problem.mask.frame] == 1.0)
        assert np.all(state.sigma.values[problem.mask.frame] == 1.0)

    def test_beta_cap_forces_steepest_descent_restart(self):
        problem = small_problem(beta_max=1e-12)
        state = init_state(problem)
        new = cg_step(state, problem, [])
        assert new.restarted
        assert np.array_equal(new.d_eps.values, -new.g_eps.values)

    def test_zero_beta_cap_is_steepest_descent(self):
        problem = small_problem(beta_max=0.0)
        new = cg_step(init_state(problem), problem, [])
        assert np.array_equal(new.d_eps.values, -new.g_eps.values)
        assert np.array_equal(new.d_sigma.values, -new.g_sigma.values)

    @pytest.mark.parametrize("beta_max", [-1.0, float("nan")])
    def test_negative_or_nan_beta_cap_rejected(self, beta_max):
        with pytest.raises(ValueError, match="beta_max"):
            small_problem(beta_max=beta_max)

    @pytest.mark.parametrize("name", ["gamma_eps0", "gamma_sigma0"])
    def test_zero_regularization_weight_rejected(self, name):
        # step_size is 0 at a zero weight, so that coefficient would never move
        problem = small_problem()
        with pytest.raises(ValueError, match=name):
            replace(problem, reg=replace(problem.reg, **{name: 0.0}))

    @pytest.mark.parametrize("m", [0, 1])
    def test_no_uphill_step_when_every_trial_raises_F(self, m):
        # at m = 1 the direction is conjugate, so the steepest-descent restart fails too
        problem = small_problem()
        state = init_state(problem)
        for _ in range(m):
            state = cg_step(state, problem)
        log = []
        assert cg_step(replace(state, F=-1.0), problem, log) is None
        assert [(row.m, row.F) for row in log] == [(m, -1.0)]

    def test_uphill_direction_restarts_along_steepest_descent(self):
        problem = small_problem()
        state = cg_step(init_state(problem), problem)
        assert state.m == 1 and not state.restarted
        # F rises along +g, so every halving along it is rejected
        uphill = replace(state, d_eps=state.g_eps, d_sigma=state.g_sigma,
                         alpha_eps=problem.alpha_max, alpha_sigma=problem.alpha_max)
        new = cg_step(uphill, problem)
        expected = cg_step(optimizer._steepest(state, problem), problem)
        assert new.backtracks == optimizer.MAX_BACKTRACKS + 1 + expected.backtracks
        assert np.array_equal(new.eps.values, expected.eps.values)
        assert np.array_equal(new.sigma.values, expected.sigma.values)
        assert np.array_equal(new.d_eps.values, expected.d_eps.values)

    def test_gamma_schedule_in_log(self):
        problem = small_problem(g0=0.1)
        log = []
        state = init_state(problem)
        for _ in range(4):
            state = cg_step(state, problem, log)
        for row in log:
            assert row.gamma_eps == pytest.approx(0.1 / (row.m + 1) ** 0.5, rel=1e-14)
        assert log[3].gamma_eps == pytest.approx(0.05, abs=1e-15)


def traced_stacks(fn, grid):
    """Run fn under tracemalloc; return its result and the peak of the memory
    it allocated, in snapshot stacks of the grid."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / ((grid.nt + 1) * grid.n_nodes * 8)


class TestMemory:
    """An iteration stores neither a state stack nor the multiplier, and a
    rejected line-search trial is freed before the next one."""

    @staticmethod
    def iteration_peaks():
        """Peaks of init_state and of a cg_step that backtracks, at 64²."""
        problem = small_problem(64)
        state, init_peak = traced_stacks(lambda: init_state(problem), problem.grid)
        # a thousand times the clamped steps: the first trials overshoot and are rejected
        forced = replace(state, alpha_eps=1e3 * state.alpha_eps,
                         alpha_sigma=1e3 * state.alpha_sigma)
        new, step_peak = traced_stacks(lambda: cg_step(forced, problem), problem.grid)
        assert new.backtracks >= 1
        return init_peak, step_peak

    def test_init_state_and_backtracking_cg_step_peak_below_1_6_stacks(self):
        init_peak, step_peak = self.iteration_peaks()
        assert init_peak <= 1.6
        assert step_peak <= 1.6

    def test_checkpointed_solves_peak_below_half_a_stack(self):
        # a stored state alone would be one stack; a ForwardSolution holds its
        # trace and its last two levels, and steps back in its operator's own
        init_peak, step_peak = self.iteration_peaks()
        assert init_peak <= 0.5
        assert step_peak <= 0.5

    def test_iteration_peak_below_0_4_stacks(self):
        # each trace is about 4/(n+1) of a stack, 0.06 at 64²: the residual,
        # the simulated trace and the previous iterate's trace are gone
        # before the sweep (the peaks exclude the observations)
        init_peak, step_peak = self.iteration_peaks()
        assert init_peak <= 0.40
        assert step_peak <= 0.40

    def test_iteration_peak_below_0_3_stacks(self):
        # the levels stepped back in place of the checkpoints and their
        # rebuilt block: 0.291 and 0.286 measured, 0.387 and 0.382 with those
        init_peak, step_peak = self.iteration_peaks()
        assert init_peak <= 0.30
        assert step_peak <= 0.30

    def test_iteration_peak_below_0_26_stacks(self):
        # the adjoint's data a window of levels at a time, and the misfit
        # summed in blocks: 0.255 and 0.249 measured, 0.291 and 0.286 with the
        # residual and its reversed copy held as whole traces
        init_peak, step_peak = self.iteration_peaks()
        assert init_peak <= 0.26
        assert step_peak <= 0.26

    def test_iteration_peak_below_0_20_stacks(self):
        # the adjoint shares its operator's coefficients and the state steps
        # back in the operator's own three levels: 0.192 and 0.187 measured,
        # 0.255 and 0.249 with a second set of coefficients and a ring of ten
        # levels
        init_peak, step_peak = self.iteration_peaks()
        assert init_peak <= 0.20
        assert step_peak <= 0.20

    def test_sweep_holds_only_observations_and_adjoint_data(self, monkeypatch):
        """Halfway through each backward sweep of init_state and cg_step the
        only trace-sized arrays alive are the observations and the
        solution's trace, the perimeter record of its reverse steps, one
        (nt+1, P) array each, and no array of one side's size is alive (a
        per-side copy of any).  The adjoint's boundary data are formed from
        these two a window of levels at a time, so no third trace, the
        residual or its reversed copy, is held: three were alive here
        while the adjoint kept its data as a whole trace."""
        alive = []
        levels_backward = ForwardSolution.levels_backward

        def spy(sol):
            side_bytes = (sol.grid.nt + 1) * (sol.grid.ny + 1) * 8
            trace_bytes = len(ALL_SIDES) * side_bytes
            for n, level in enumerate(levels_backward(sol)):
                if n == sol.grid.nt // 2:
                    sizes = [t.size for t in tracemalloc.take_snapshot().traces]
                    alive.append((sizes.count(trace_bytes), sizes.count(side_bytes)))
                yield level

        monkeypatch.setattr(ForwardSolution, "levels_backward", spy)
        tracemalloc.start()
        try:
            problem = small_problem(32)
            cg_step(init_state(problem), problem)
        finally:
            tracemalloc.stop()
        assert alive == [(2, 0)] * 2


def test_no_iterate_field_is_a_trace():
    # an iterate keeps the data errors of its trace, not the trace itself
    problem = small_problem()
    state = init_state(problem)
    for s in (state, cg_step(state, problem)):
        assert not any(isinstance(getattr(s, f.name), BoundaryTrace) for f in fields(s))


class TestRunCga:
    def test_stops_immediately_when_already_optimal(self):
        g = build_grid(16, 16, T=1.2)
        eps0 = constant_coefficient(g, 1.0, Role.EPSILON)
        sig0 = constant_coefficient(g, 1.0, Role.SIGMA)
        src, bc = SourceSpec(), BcConfig()
        obs = extract_trace(solve_forward(g, eps0, sig0, src, bc), ALL_SIDES)
        reg = RegularizationParams(0.01, 0.01, 0.5, eps0, sig0)
        problem = InverseProblem(
            grid=g, mask=region_mask(g, 0), adm=AdmissibleSet(), src=src, bc=bc,
            obs=obs, reg=reg, eps_init=eps0, sigma_init=sig0,
        )
        result = run_cga(problem, StoppingTolerances(m_max=10))
        assert result.stop_reason in ("g_eps", "g_sigma")
        assert len(result.log) == 1
        assert np.array_equal(result.eps.values, eps0.values)

    def test_zero_iteration_cap_returns_initial_guess(self):
        problem = small_problem()
        result = run_cga(problem, StoppingTolerances(m_max=0))
        assert result.log == []
        assert np.all(result.eps.values == 1.0)
        assert np.all(result.sigma.values == 1.0)

    def test_log_length_bounded_by_cap(self):
        problem = small_problem()
        result = run_cga(problem, StoppingTolerances(m_max=5))
        assert len(result.log) == 5
        assert [row.m for row in result.log] == [0, 1, 2, 3, 4]

    def test_failed_line_search_stops_at_last_accepted_iterate(self, monkeypatch):
        # no trial reaches an F of -1, so the first line search fails
        initial = optimizer.init_state
        monkeypatch.setattr(optimizer, "init_state", lambda p: replace(initial(p), F=-1.0))
        result = run_cga(small_problem(), StoppingTolerances(m_max=5))
        assert result.stop_reason == "line_search_failed"
        assert [(row.m, row.F) for row in result.log] == [(0, -1.0)]
        assert result.final_F == -1.0
        assert np.all(result.eps.values == 1.0)
        assert np.all(result.sigma.values == 1.0)

    def test_deterministic_repeat(self):
        r1 = run_cga(small_problem(), StoppingTolerances(m_max=3))
        r2 = run_cga(small_problem(), StoppingTolerances(m_max=3))
        for a, b in zip(r1.log, r2.log):
            assert astuple(a) == astuple(b)
        assert np.array_equal(r1.eps.values, r2.eps.values)

    def test_fit_decreases_on_desk_scale_study(self):
        problem = small_problem(ncell=24)
        result = run_cga(problem, StoppingTolerances(m_max=10))
        assert result.log[-1].F < result.log[0].F
        assert result.final_F <= result.log[-1].F * (1 + 1e-12)

    # A huge tolerance fires at its first check.  The gradient tolerances are
    # checked before an update, the update tolerances after it, eps before
    # sigma; the cases with several huge tolerances pin that order.
    @pytest.mark.parametrize("huge, reason, rows", [
        (("eta2_eps",), "g_eps", 1),
        (("eta2_sigma",), "g_sigma", 1),
        (("eta1_eps",), "update_eps", 1),
        (("eta1_sigma",), "update_sigma", 1),
        (("eta2_eps", "eta2_sigma", "eta1_eps", "eta1_sigma"), "g_eps", 1),
        (("eta2_sigma", "eta1_eps", "eta1_sigma"), "g_sigma", 1),
        (("eta1_eps", "eta1_sigma"), "update_eps", 1),
        ((), "m_max", 2),
    ])
    def test_stop_reason_and_order(self, huge, reason, rows):
        tols = StoppingTolerances(m_max=2, **{name: 1e30 for name in huge})
        result = run_cga(small_problem(), tols)
        assert result.stop_reason == reason
        assert len(result.log) == rows


class TestRefinementFlags:
    def test_constant_field_absolute_mode_flags_everything(self):
        g = build_grid(10, 10)
        c = constant_coefficient(g, 2.0, Role.EPSILON)
        s = constant_coefficient(g, 2.0, Role.SIGMA)
        fl = refinement_flags(c, s, 0.8, 0.8, mode="absolute")
        assert fl.all()

    def test_background_field_deviation_mode_flags_nothing(self):
        g = build_grid(10, 10)
        c = constant_coefficient(g, 1.0, Role.EPSILON)
        s = constant_coefficient(g, 1.0, Role.SIGMA)
        fl = refinement_flags(c, s, 0.8, 0.8, mode="deviation")
        assert not fl.any()

    def test_localized_inclusion_flags_near_center(self):
        g = build_grid(40, 40)
        eps, sig = truth_pair(g)
        fl = refinement_flags(eps, sig, 0.8, 0.8, mode="deviation")
        assert fl.any()
        for i, j in np.argwhere(fl):
            cx, cy = (i + 0.5) * g.h, (j + 0.5) * g.h
            assert max(abs(cx - 0.5), abs(cy - 0.7)) <= 0.25

    def test_invalid_fractions_rejected(self):
        g = build_grid(10, 10)
        c = constant_coefficient(g, 1.0, Role.EPSILON)
        with pytest.raises(ValueError):
            refinement_flags(c, c, 0.0, 0.5)
        with pytest.raises(ValueError):
            refinement_flags(c, c, 0.5, 1.0)
        with pytest.raises(ValueError):
            refinement_flags(c, c, 0.5, 0.5, mode="nonsense")


@pytest.mark.parametrize("value", [np.nan, -1.0])
@pytest.mark.parametrize("cls, name", [
    (StoppingTolerances, "eta1_eps"), (StoppingTolerances, "eta2_sigma"),
    (AcgaControls, "theta1_eps"), (AcgaControls, "theta2_sigma"),
])
def test_tolerance_below_zero_or_nan_rejected(cls, name, value):
    # NaN compares false with every value, so its tolerance would never fire
    with pytest.raises(ValueError, match="tolerances must be >= 0"):
        cls(**{name: value})
    assert getattr(cls(**{name: np.inf}), name) == np.inf  # fires at once, as documented


class TestAcga:
    def test_single_level_matches_run_cga(self):
        problem = small_problem()
        tols = StoppingTolerances(m_max=3)
        plain = run_cga(problem, tols)
        adaptive = run_acga(problem, tols, AcgaControls(n_max=0))
        assert len(adaptive.levels) == 1
        assert np.array_equal(adaptive.level_results[-1].eps.values, plain.eps.values)
        assert np.array_equal(adaptive.level_results[-1].sigma.values, plain.sigma.values)

    def test_no_flags_stops_after_first_level(self):
        # huge fractions flag only the indicator peak; adjust instead with a
        # flat reconstruction: zero iterations keep the background guess, so
        # deviation mode produces no flags at all
        problem = small_problem()
        res = run_acga(problem, StoppingTolerances(m_max=0), AcgaControls(n_max=3))
        assert len(res.levels) == 1
        assert res.stop_reason == "no_flags"

    def test_failed_line_search_is_not_refined(self, monkeypatch):
        initial = optimizer.init_state
        monkeypatch.setattr(optimizer, "init_state", lambda p: replace(initial(p), F=-1.0))
        res = run_acga(small_problem(), StoppingTolerances(m_max=3), AcgaControls(n_max=2))
        assert res.stop_reason == "line_search_failed"
        assert len(res.levels) == 1

    @pytest.mark.parametrize("name", ["volume_forcing", "f0", "f1"])
    def test_array_source_data_fails_before_any_solve(self, monkeypatch, name):
        # an array fits level 0's grid only, so a refined level could not use it
        problem = small_problem(ncell=12)
        g = problem.grid
        shape = (g.nt + 1, *g.node_shape) if name == "volume_forcing" else g.node_shape
        problem = replace(problem, src=replace(problem.src, **{name: np.zeros(shape)}))

        def no_solve(*args):
            raise AssertionError("a forward solve ran")

        monkeypatch.setattr(optimizer, "solve_forward", no_solve)
        with pytest.raises(ValueError, match=name):
            run_acga(problem, StoppingTolerances(m_max=2), AcgaControls(n_max=1))

    def test_array_source_data_runs_on_one_level(self):
        problem = small_problem(ncell=12)
        problem = replace(problem, src=replace(problem.src, f0=np.zeros(problem.grid.node_shape)))
        res = run_acga(problem, StoppingTolerances(m_max=2), AcgaControls(n_max=0))
        assert len(res.levels) == 1
        assert res.level_results[0].eps.grid.nx == 12

    def test_two_levels_track_grids_and_reports(self):
        problem = small_problem(ncell=16)
        res = run_acga(problem, StoppingTolerances(m_max=3), AcgaControls(n_max=1))
        assert [lv.level for lv in res.levels] == [0, 1]
        assert res.level_results[1].eps.grid.nx == 2 * res.level_results[0].eps.grid.nx
        assert res.levels[1].nno == res.level_results[1].eps.grid.n_nodes
        assert res.levels[0].M_k == 3
        assert res.level_results[-1].eps.grid.nx == 32

    # The update tolerances compare a level with its coarser predecessor, so
    # they are checked from the second level on, before the gradient
    # tolerances, eps before sigma; the level cap is checked after them.
    @pytest.mark.parametrize("huge, n_max, reason, levels", [
        (("theta1_eps",), 2, "theta1_eps", 2),
        (("theta1_sigma",), 2, "theta1_sigma", 2),
        (("theta2_eps",), 2, "theta2_eps", 1),
        (("theta2_sigma",), 2, "theta2_sigma", 1),
        (("theta1_eps", "theta1_sigma"), 2, "theta1_eps", 2),
        (("theta2_eps", "theta2_sigma"), 2, "theta2_eps", 1),
        (("theta2_sigma",), 0, "theta2_sigma", 1),
        ((), 1, "n_max", 2),
    ])
    def test_stop_reason_and_order(self, huge, n_max, reason, levels):
        controls = AcgaControls(n_max=n_max, **{name: 1e30 for name in huge})
        res = run_acga(small_problem(), StoppingTolerances(m_max=3), controls)
        assert res.stop_reason == reason
        assert len(res.levels) == levels
