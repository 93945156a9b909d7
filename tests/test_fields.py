import tracemalloc

import numpy as np
import pytest

from waveinv import (
    ALL_SIDES,
    AdmissibleSet,
    BcConfig,
    BoundaryTrace,
    CoefficientField,
    RefinedTrace,
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
from waveinv.objective import misfit
from conftest import (
    grid_of_levels, smooth_random_trace, stored_adjoint, stored_refined, stored_state, truth_pair,
    whole_trace_refined, zero_trace,
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
        out = stored_refined(tr, f)
        exact = np.sin(omega * f.times())[:, None]
        err = np.abs(out.data[Side.LEFT][:, ::2] - exact).max()
        assert err <= (omega * g.dt) ** 2 / 8.0 * 1.0 + 1e-12

    # 38, 64, 66 and 196 fine levels: under one block, one block exactly, one
    # level over it and several blocks
    @pytest.mark.parametrize("levels", [20, 33, 34, 99])
    @pytest.mark.parametrize("sides", [ALL_SIDES, (Side.LEFT, Side.TOP), (Side.RIGHT,)])
    def test_trace_is_bitwise_the_whole_trace_formula(self, levels, sides):
        g = grid_of_levels(levels, 8)
        f = refine(g)
        assert f.nt + 1 == 2 * levels - 2
        tr = smooth_random_trace(g, np.random.default_rng(levels), sides)
        out = stored_refined(tr, f)
        assert out.sides == tr.sides and out.values.shape == (f.nt + 1, perimeter_offsets(f, sides)[-1])
        assert np.array_equal(out.values, whole_trace_refined(tr, f))
        # BLOCK rows at a time, as the misfit and the adjoint's window read them
        refined = RefinedTrace(tr, f)
        for a in range(0, f.nt + 1, BLOCK):
            assert np.array_equal(refined.rows(a, a + BLOCK), out.values[a:a + BLOCK])

    def test_a_trace_is_refined_by_refined_trace_alone(self):
        # transfer_to_refined moves coefficient fields; a stored or a refined
        # trace passed to it raises, and the message names the one way
        g = build_grid(8, 8)
        tr = smooth_random_trace(g, np.random.default_rng(2))
        for trace in (tr, RefinedTrace(tr, refine(g))):
            with pytest.raises(TypeError, match="RefinedTrace"):
                transfer_to_refined(trace, refine(trace.grid))

    def test_non_nested_grids_rejected(self):
        g = build_grid(16, 16)
        other = build_grid(24, 24)
        with pytest.raises(ValueError):
            transfer_to_refined(constant_coefficient(g, 1.0, Role.EPSILON), other)


class TestRefinedTrace:
    """A RefinedTrace forms the rows of the whole-trace formula, bitwise, a
    block at a time, and holds only its time index and weights."""

    @staticmethod
    def chain(levels, sides, stages):
        """A stored trace on a 12² grid of the given levels, the lazy
        refinement of it over the stages and the stored one, each stage of
        which holds all rows of a RefinedTrace of the stored stage below,
        bitwise the whole-trace formula."""
        tr = smooth_random_trace(grid_of_levels(levels, 12), np.random.default_rng(levels), sides)
        lazy = stored = tr
        for _ in range(stages):
            fine = refine(stored.grid)
            lazy, below, stored = RefinedTrace(lazy, fine), stored, stored_refined(stored, fine)
            assert np.array_equal(stored.values, whole_trace_refined(below, fine))
        return lazy, stored

    # 76 fine levels one stage up, 150 two stages up: ranges within a block,
    # on its edges, across them, the whole trace and past its end, clipped
    @pytest.mark.parametrize("stages", [1, 2])
    @pytest.mark.parametrize("sides", [ALL_SIDES, *((side,) for side in Side),
                                       (Side.LEFT, Side.TOP)])
    def test_rows_are_bitwise_the_transferred_trace(self, stages, sides):
        lazy, stored = self.chain(39, sides, stages)
        n = stored.grid.nt + 1
        assert n > BLOCK + 2 and lazy.sides == stored.sides and lazy.grid == stored.grid
        ranges = [(0, BLOCK), (BLOCK, 2 * BLOCK), (3, 5), (BLOCK - 1, BLOCK + 1),
                  (BLOCK - 7, BLOCK + 9), (0, n), (n - 5, n + BLOCK), (n - 1, n), (2, 2)]
        for a, b in ranges:
            expect = stored.values[a:b]
            assert np.array_equal(lazy.rows(a, b), expect)
            # into a window's reversed rows, as the adjoint's data are formed
            window = np.full((len(expect), lazy.width), np.nan)
            lazy.rows(a, b, out=window[::-1])
            assert np.array_equal(window[::-1], expect)
            assert np.array_equal(stored.rows(a, b), expect)

    def test_building_allocates_only_its_index_arrays(self):
        # the chain of run_acga from 50² to 200² at the test2 time axis: the
        # 200² trace it stands for would be 4.4 MB; each stage keeps its time
        # index k and the weights 1 - w and w, and building one makes a few
        # time-axis temporaries (29 KB kept and 36 KB peak measured)
        g = build_grid(50, 50, T=1.2, cfl_safety=0.5)
        fine, finest = refine(g), refine(refine(g))
        tr = smooth_random_trace(g, np.random.default_rng(5))
        RefinedTrace(RefinedTrace(tr, fine), finest)  # warm: no first-call import is counted
        tracemalloc.start()
        try:
            lazy = RefinedTrace(RefinedTrace(tr, fine), finest)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tables = 3 * 8 * (fine.nt + 1 + finest.nt + 1)
        temporaries = 3 * 8 * (finest.nt + 1)
        objects = 8192  # the stage, slice and view objects, which do not grow with the grid
        assert (finest.nt + 1) * lazy.width * 8 > 50 * (tables + temporaries + objects)
        assert kept <= tables + objects
        assert peak <= tables + temporaries + objects

    def test_a_misfit_pass_allocates_at_most_a_few_blocks(self):
        # the residual and the squares go through two buffers of BLOCK rows;
        # a block of fine rows is formed in the first of them from half a
        # block of coarse rows and their time interpolation, in turn formed
        # from the coarser stage: 3.3 blocks measured, where the stored 200²
        # trace is ten
        g = build_grid(50, 50, T=1.2, cfl_safety=0.5)
        finest = refine(refine(g))
        rng = np.random.default_rng(6)
        tr, sim = smooth_random_trace(g, rng), smooth_random_trace(finest, rng)
        lazy, warm = (RefinedTrace(RefinedTrace(tr, refine(g)), finest) for _ in range(2))
        misfit(sim, warm)  # warm, on another instance: lazy is first read below
        tracemalloc.start()
        try:
            misfit(sim, lazy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = BLOCK * lazy.width * 8
        assert (finest.nt + 1) * lazy.width * 8 > 10 * block
        assert peak <= 4 * block

    def test_non_nested_source_rejected(self):
        g = build_grid(16, 16)
        with pytest.raises(ValueError):
            RefinedTrace(zero_trace(g), build_grid(24, 24))


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
