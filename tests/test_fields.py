import tracemalloc

import numpy as np
import pytest

from waveinv import (
    ALL_SIDES,
    AdmissibleSet,
    BcConfig,
    BoundaryTrace,
    CoefficientField,
    Role,
    Side,
    SourceSpec,
    add_noise,
    build_grid,
    constant_coefficient,
    extract_trace,
    gaussian_coefficient,
    project,
    refine,
    region_mask,
    solve_forward,
    transfer_to_refined,
)
from waveinv.fields import BLOCK
from waveinv.forward import PaddedLevel, trace_of_levels
from waveinv.grid import perimeter_offsets
from conftest import (
    grid_of_levels, smooth_random_trace, stored_adjoint, stored_state, truth_pair, zero_trace,
)


class TestGaussianBuilder:
    def test_peak_value_at_center(self):
        g = build_grid(10, 10)
        f = gaussian_coefficient(g, 1.0, 3.0, (0.5, 0.7), 0.002)
        i, j = 5, 7  # node exactly at the center
        assert f.values[i, j] == pytest.approx(4.0, abs=1e-13)

    def test_far_field_decay(self):
        g = build_grid(10, 10)
        f = gaussian_coefficient(g, 1.0, 3.0, (0.5, 0.7), 0.002)
        assert f.values[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_amplitude_is_constant(self):
        g = build_grid(10, 10)
        f = gaussian_coefficient(g, 2.5, 0.0, (0.5, 0.5), 0.01)
        assert np.all(f.values == 2.5)

    def test_width_must_be_positive(self):
        g = build_grid(10, 10)
        with pytest.raises(ValueError):
            gaussian_coefficient(g, 1.0, 3.0, (0.5, 0.5), 0.0)


class TestProjection:
    def test_clamps_both_roles(self, unit_adm):
        g = build_grid(10, 10)
        mask = region_mask(g, 0)
        eps = constant_coefficient(g, 12.0, Role.EPSILON)
        assert np.all(project(eps, unit_adm, mask).values == 10.0)
        adm = AdmissibleSet(sigma_min=0.0, sigma_background=0.0)
        sig = constant_coefficient(g, -0.3, Role.SIGMA)
        assert np.all(project(sig, adm, mask).values == 0.0)

    def test_admissible_field_unchanged_bitwise(self, unit_adm):
        g = build_grid(10, 10)
        mask = region_mask(g, 2)
        values = np.full(g.node_shape, 3.7)
        values[mask.frame] = 1.0
        f = CoefficientField(grid=g, values=values, role=Role.EPSILON)
        out = project(f, unit_adm, mask)
        assert np.array_equal(out.values, f.values)

    def test_idempotent(self, unit_adm):
        g = build_grid(12, 12)
        mask = region_mask(g, 1)
        rng = np.random.default_rng(3)
        f = CoefficientField(
            grid=g, values=rng.uniform(-5, 20, g.node_shape), role=Role.EPSILON
        )
        once = project(f, unit_adm, mask)
        twice = project(once, unit_adm, mask)
        assert np.array_equal(once.values, twice.values)

    def test_frame_pinned_to_background(self, unit_adm):
        g = build_grid(12, 12)
        mask = region_mask(g, 2)
        f = constant_coefficient(g, 5.0, Role.EPSILON)
        out = project(f, unit_adm, mask)
        assert np.all(out.values[mask.frame] == unit_adm.eps_background)
        assert np.all(out.values[mask.inner] == 5.0)


class TestNoise:
    def test_zero_level_is_identity(self, small_grid):
        tr = zero_trace(small_grid)
        out = add_noise(tr, "additive_gaussian", 0.0, seed=1)
        for s in tr.sides:
            assert np.array_equal(out.data[s], tr.data[s])

    @pytest.mark.parametrize("level", [np.nan, np.inf, -0.1])
    def test_level_not_finite_and_nonnegative_rejected(self, small_grid, level):
        with pytest.raises(ValueError, match="noise level"):
            add_noise(zero_trace(small_grid), "additive_gaussian", level, seed=1)

    def test_sample_std_matches_level(self):
        g = build_grid(40, 40, T=1.2)  # > 1e4 samples over sides and steps
        tr = zero_trace(g)
        out = add_noise(tr, "additive_gaussian", 0.1, seed=11)
        diffs = np.concatenate([(out.data[s] - tr.data[s]).ravel() for s in tr.sides])
        assert diffs.size >= 10_000
        assert np.std(diffs) == pytest.approx(0.1, rel=0.05)

    def test_deterministic_for_fixed_seed(self, small_grid):
        rng = np.random.default_rng(0)
        values = np.hstack([rng.standard_normal((small_grid.nt + 1, small_grid.side_node_count(s)))
                            for s in ALL_SIDES])
        tr = BoundaryTrace(grid=small_grid, sides=ALL_SIDES, values=values)
        a = add_noise(tr, "additive_gaussian", 0.3, seed=9)
        b = add_noise(tr, "additive_gaussian", 0.3, seed=9)
        for s in ALL_SIDES:
            assert np.array_equal(a.data[s], b.data[s])

    def test_noise_independent_of_signal(self, small_grid):
        rng = np.random.default_rng(1)
        t1 = BoundaryTrace(
            grid=small_grid, sides=ALL_SIDES,
            values=np.hstack([rng.standard_normal((small_grid.nt + 1, small_grid.side_node_count(s)))
                              for s in ALL_SIDES]),
        )
        t2 = zero_trace(small_grid)
        n1 = add_noise(t1, "additive_gaussian", 0.2, seed=5)
        n2 = add_noise(t2, "additive_gaussian", 0.2, seed=5)
        for s in ALL_SIDES:
            # recovered noise matches to round-off of the (signal+noise)-signal trip
            assert np.allclose(
                n1.data[s] - t1.data[s], n2.data[s] - t2.data[s], rtol=0, atol=1e-13
            )

    def test_draws_fill_the_sides_in_side_order(self):
        # the contract that keeps obs.csv fixed per seed: one standard normal
        # stream, its first (nt+1) n_LEFT values LEFT's block in time-major
        # order, the next TOP's; the sides differ in length on this grid
        g = build_grid(24, 12, T=0.4, extent=(2.0, 1.0))
        sides = (Side.LEFT, Side.TOP)
        counts = [g.side_node_count(s) for s in sides]
        assert counts[0] != counts[1]
        stream = np.random.default_rng(17).standard_normal((g.nt + 1) * sum(counts))
        cut = (g.nt + 1) * counts[0]
        expected = np.hstack([stream[:cut].reshape(g.nt + 1, counts[0]),
                              stream[cut:].reshape(g.nt + 1, counts[1])])
        zero = BoundaryTrace(grid=g, sides=sides, values=np.zeros_like(expected))
        noisy = add_noise(zero, "additive_gaussian", 1.0, seed=17)
        assert np.array_equal((noisy - zero).values, expected)
        signal = np.random.default_rng(3).standard_normal(expected.shape)
        tr = BoundaryTrace(grid=g, sides=sides, values=signal)
        noisy = add_noise(tr, "additive_gaussian", 0.3, seed=17)
        assert np.array_equal(noisy.values, signal + 0.3 * expected)

    def test_relative_model_scales_by_trace_maximum(self, small_grid):
        values = np.hstack([
            2.0 * np.ones((small_grid.nt + 1, small_grid.side_node_count(s)))
            for s in ALL_SIDES
        ])
        tr = BoundaryTrace(grid=small_grid, sides=ALL_SIDES, values=values)
        out = add_noise(tr, "relative_gaussian", 0.1, seed=2)
        diffs = np.concatenate([(out.data[s] - tr.data[s]).ravel() for s in tr.sides])
        assert np.std(diffs) == pytest.approx(0.1 * 2.0, rel=0.1)


class TestExtractTrace:
    def test_zero_field_gives_zero_trace(self, small_grid):
        tr = zero_trace(small_grid)
        for s in tr.sides:
            assert np.all(tr.data[s] == 0.0)

    def test_all_sides_cover_perimeter_nodes(self):
        g = build_grid(10, 10)
        tr = zero_trace(g)
        covered = set()
        covered.update((0, j) for j in range(g.ny + 1))
        covered.update((g.nx, j) for j in range(g.ny + 1))
        covered.update((i, 0) for i in range(g.nx + 1))
        covered.update((i, g.ny) for i in range(g.nx + 1))
        assert len(covered) == 40
        assert sum(tr.data[s].shape[1] for s in tr.sides) == 44  # corners twice

    def test_partial_sides(self, small_grid):
        eps, sig = truth_pair(small_grid)
        src, bc = SourceSpec(), BcConfig()
        tr = extract_trace(solve_forward(small_grid, eps, sig, src, bc), (Side.RIGHT,))
        assert tr.sides == (Side.RIGHT,)
        snaps = stored_state(small_grid, eps, sig, src, bc)
        assert np.array_equal(tr.data[Side.RIGHT], snaps[:, -1, :])

    def test_empty_side_set_rejected(self, small_grid):
        with pytest.raises(ValueError):
            zero_trace(small_grid, ())

    @pytest.mark.parametrize("count", [0, 5, 55, 57])
    def test_level_stream_of_wrong_length_rejected(self, small_grid, count):
        assert small_grid.nt + 1 == 56
        levels = (PaddedLevel(small_grid) for _ in range(count))
        with pytest.raises(ValueError, match="zip"):
            trace_of_levels(small_grid, levels, ALL_SIDES)

    def test_forward_solution_sides_share_its_trace(self):
        g = build_grid(12, 12, T=0.5)
        eps = constant_coefficient(g, 2.0, Role.EPSILON)
        sig = constant_coefficient(g, 1.0, Role.SIGMA)
        sol = solve_forward(g, eps, sig, SourceSpec(), BcConfig())
        tr = extract_trace(sol, (Side.TOP, Side.LEFT))
        assert tr.sides == (Side.LEFT, Side.TOP)
        assert np.array_equal(tr.data[Side.TOP], sol.trace.data[Side.TOP])
        every = extract_trace(sol, ALL_SIDES)
        assert all(np.shares_memory(every.data[s], sol.trace.values) for s in ALL_SIDES)
        with pytest.raises(ValueError):
            extract_trace(sol, ())

    def test_multiplier_keeps_the_trace_of_the_solution(self):
        # the trace is the perimeter record from which the solution steps
        # back, so the sweep holds it beside obs, and the adjoint reads its
        # data from these two
        g = build_grid(12, 12, T=0.5)
        eps = constant_coefficient(g, 2.0, Role.EPSILON)
        sig = constant_coefficient(g, 1.0, Role.SIGMA)
        for sides in (ALL_SIDES, (Side.LEFT,)):
            sol = solve_forward(g, eps, sig, SourceSpec(), BcConfig())
            obs = smooth_random_trace(g, np.random.default_rng(5), sides)
            trace = sol.trace
            by_hand = stored_adjoint(sol.op, extract_trace(sol, sides) - obs)
            lam_backward = sol.multiplier(obs)
            assert sol.trace is trace and trace.sides == ALL_SIDES
            streamed = np.stack([lam.nodes.copy() for lam in lam_backward][::-1])
            assert streamed.any() and np.array_equal(streamed, by_hand)


class TestTransfer:
    def test_constant_field_preserved(self):
        g = build_grid(16, 16)
        f = refine(g)
        c = constant_coefficient(g, 3.25, Role.EPSILON)
        out = transfer_to_refined(c, f)
        assert np.all(out.values == 3.25)

    def test_bilinear_exact_on_linears(self):
        g = build_grid(16, 16)
        f = refine(g)
        X, Y = g.meshgrid()
        lin = CoefficientField(grid=g, values=2.0 * X - 0.7 * Y + 0.3, role=Role.EPSILON)
        out = transfer_to_refined(lin, f)
        Xf, Yf = f.meshgrid()
        assert np.abs(out.values - (2.0 * Xf - 0.7 * Yf + 0.3)).max() < 1e-12

    def test_restriction_recovers_coarse_values(self):
        g = build_grid(12, 12)
        f = refine(g)
        rng = np.random.default_rng(7)
        c = CoefficientField(grid=g, values=rng.uniform(1, 4, g.node_shape), role=Role.EPSILON)
        out = transfer_to_refined(c, f)
        assert np.array_equal(out.values[::2, ::2], c.values)

    def test_trace_time_interpolation_error_bound(self):
        g = build_grid(16, 16, T=1.2)
        f = refine(g)
        omega = 20.0
        t = g.times()
        values = np.tile(np.sin(omega * t)[:, None], (1, g.ny + 1))
        tr = BoundaryTrace(grid=g, sides=(Side.LEFT,), values=values)
        out = transfer_to_refined(tr, f)
        exact = np.sin(omega * f.times())[:, None]
        err = np.abs(out.data[Side.LEFT][:, ::2] - exact).max()
        assert err <= (omega * g.dt) ** 2 / 8.0 * 1.0 + 1e-12

    @staticmethod
    def whole_trace_refined(trace, fine):
        """The refined values of a trace formed whole: linear in time over
        every fine level at once, then each fine node of a side the mean of
        coarse nodes k // 2 and (k + 1) // 2."""
        coarse = trace.grid
        pos = np.minimum(fine.times(), coarse.times()[-1]) / coarse.dt
        k = np.minimum(pos.astype(int), coarse.nt - 1)
        w = pos - k
        in_time = (1.0 - w)[:, None] * trace.values[k, :] + w[:, None] * trace.values[k + 1, :]
        start_c, start_f = (perimeter_offsets(g, trace.sides) for g in (coarse, fine))
        cols = []
        for side, (a, b) in enumerate(zip(start_f, start_f[1:])):
            node = np.arange(b - a)
            cols.append((start_c[side] + node // 2, start_c[side] + (node + 1) // 2))
        lo, hi = (np.concatenate(c) for c in zip(*cols))
        return 0.5 * (in_time[:, lo] + in_time[:, hi])

    # 38, 64, 66 and 196 fine levels: under one block, one block exactly, one
    # level over it and several blocks
    @pytest.mark.parametrize("levels", [20, 33, 34, 99])
    @pytest.mark.parametrize("sides", [ALL_SIDES, (Side.LEFT, Side.TOP), (Side.RIGHT,)])
    def test_trace_is_bitwise_the_whole_trace_formula(self, levels, sides):
        g = grid_of_levels(levels, 8)
        f = refine(g)
        assert f.nt + 1 == 2 * levels - 2
        tr = smooth_random_trace(g, np.random.default_rng(levels), sides)
        out = transfer_to_refined(tr, f)
        assert out.sides == tr.sides and out.values.shape == (f.nt + 1, perimeter_offsets(f, sides)[-1])
        assert np.array_equal(out.values, self.whole_trace_refined(tr, f))

    def test_trace_transfer_holds_its_output_and_one_block(self):
        # the refined trace is formed BLOCK fine levels at a time into its
        # output: beyond it one block of rows of each trace is alive, and
        # index tables of the perimeter and the time axis (the whole-trace
        # form held about three times the output at once)
        g = build_grid(64, 64, T=1.2)
        f = refine(g)
        tr = smooth_random_trace(g, np.random.default_rng(3))
        transfer_to_refined(tr, f)  # warm: no first-call import is counted
        tracemalloc.start()
        try:
            out = transfer_to_refined(tr, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        width_c, width_f = tr.values.shape[1], out.values.shape[1]
        block = BLOCK * (width_c + width_f) * 8
        tables = 16 * (width_f + f.nt + 1) * 8
        assert f.nt + 1 > 4 * BLOCK
        assert peak <= out.values.nbytes + block + tables

    def test_non_nested_grids_rejected(self):
        g = build_grid(16, 16)
        other = build_grid(24, 24)
        with pytest.raises(ValueError):
            transfer_to_refined(constant_coefficient(g, 1.0, Role.EPSILON), other)


class TestAdmissibleSet:
    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            AdmissibleSet(eps_background=0.5)
        with pytest.raises(ValueError):
            AdmissibleSet(eps_max=0.9)
        with pytest.raises(ValueError):
            AdmissibleSet(sigma_min=-1.0)
        with pytest.raises(ValueError):
            AdmissibleSet(sigma_background=0.0, sigma_min=1.0)
        # unbounded boxes are valid, infinite pinned values are not
        with pytest.raises(ValueError):
            AdmissibleSet(eps_background=np.inf, eps_max=np.inf)
        with pytest.raises(ValueError):
            AdmissibleSet(sigma_background=np.inf, sigma_max=np.inf)

    @pytest.mark.parametrize("key", ["eps_max", "sigma_min", "sigma_max"])
    def test_nan_bound_rejected(self, key):
        # NaN compares false with every bound, so eps_max < eps_background let
        # it through and project then returned NaN coefficients
        with pytest.raises(ValueError):
            AdmissibleSet(**{key: np.nan})

    def test_bounds_by_role(self, unit_adm):
        assert unit_adm.bounds(Role.EPSILON) == (1.0, 10.0)
        assert unit_adm.bounds(Role.SIGMA) == (1.0, 10.0)
        assert unit_adm.background(Role.SIGMA) == 1.0
