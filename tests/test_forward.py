import tracemalloc
import warnings

import numpy as np
import pytest

from waveinv import (
    ALL_SIDES,
    BcConfig,
    BcKind,
    BoundaryTrace,
    Role,
    Side,
    SourceSpec,
    StabilityError,
    build_grid,
    constant_coefficient,
    extract_trace,
    gaussian_coefficient,
    solve_forward,
)
import waveinv.forward
from waveinv.forward import (
    Leapfrog, PaddedLevel, _anchor_spacing, _block, _nodal, build_forward_programs,
    forward_operator, forward_trace, leapfrog_levels,
)
from conftest import (
    CHECKPOINT_NT, advanced, all_neumann_bc, assert_steps_back_to, discrete_energy,
    smooth_random_coefficient, smooth_random_trace, stack_trace, stored_state, truth_pair,
)


def homogeneous(grid, eps_val=1.0, sigma_val=0.0):
    return (
        constant_coefficient(grid, eps_val, Role.EPSILON),
        constant_coefficient(grid, sigma_val, Role.SIGMA),
    )


def test_zero_data_gives_zero_field(small_grid):
    eps, sig = homogeneous(small_grid, 1.0, 1.0)
    E = stored_state(small_grid, eps, sig, SourceSpec(amplitude=0.0), BcConfig())
    assert np.all(E == 0.0)


def test_snapshot_count_and_start(small_grid):
    eps, sig = homogeneous(small_grid)
    E = stored_state(small_grid, eps, sig, SourceSpec(), BcConfig())
    assert E.shape[0] == small_grid.nt + 1
    assert np.all(E[0] == 0.0)
    assert np.isfinite(E).all()


def test_source_scaling_is_exact():
    g = build_grid(20, 20, T=0.6)
    eps, sig = homogeneous(g, 1.0, 1.0)
    base = stored_state(g, eps, sig, SourceSpec(amplitude=1.0), BcConfig())
    doubled = stored_state(g, eps, sig, SourceSpec(amplitude=2.0), BcConfig())
    assert np.array_equal(doubled, 2.0 * base)
    scaled = stored_state(g, eps, sig, SourceSpec(amplitude=3.0), BcConfig())
    assert np.allclose(scaled, 3.0 * base, rtol=1e-12, atol=1e-15)


def test_field_ahead_of_front_is_negligible():
    g = build_grid(32, 32, T=1.2)
    eps, sig = homogeneous(g, 1.0, 0.0)
    E = stored_state(g, eps, sig, SourceSpec(), BcConfig())
    n = np.searchsorted(g.times(), 0.3)
    i = round(0.9 / g.h)
    assert np.abs(E[n, i, :]).max() <= 1e-3 * np.abs(E).max()


@pytest.mark.parametrize("x0", [0.5, 0.9])
def test_causality_on_two_grids(x0):
    # the quiet zone stands off the front by a few cells to exclude the
    # stencil's front smear; the refined run confirms the zone is not a
    # resolution artifact
    for ncell in (32, 64):
        g = build_grid(ncell, ncell, T=1.2)
        eps, sig = homogeneous(g, 1.0, 0.0)
        E = stored_state(g, eps, sig, SourceSpec(), BcConfig())
        t_cut = np.searchsorted(g.times(), x0 - 4 * g.h) - 1
        i_cut = int(np.ceil(x0 / g.h))
        ahead = np.abs(E[: t_cut + 1, i_cut:, :]).max()
        assert ahead <= 1e-3 * np.abs(E).max()


def test_manufactured_solution_second_order():
    def run(ncell):
        g = build_grid(ncell, ncell, T=0.5)
        eps = gaussian_coefficient(g, 1.0, 0.5, (0.4, 0.6), 0.1, Role.EPSILON)
        sig = constant_coefficient(g, 1.0, Role.SIGMA)

        def exact(X, Y, t):
            return np.sin(np.pi * X) * np.sin(np.pi * Y) * np.cos(t)

        def forcing(X, Y, t):
            ss = np.sin(np.pi * X) * np.sin(np.pi * Y)
            return ss * (
                -eps.values * np.cos(t) - sig.values * np.sin(t)
                + 2.0 * np.pi**2 * np.cos(t)
            )

        flux = {
            Side.LEFT: lambda x, y, t: -np.pi * np.cos(np.pi * x) * np.sin(np.pi * y) * np.cos(t),
            Side.RIGHT: lambda x, y, t: np.pi * np.cos(np.pi * x) * np.sin(np.pi * y) * np.cos(t),
            Side.BOTTOM: lambda x, y, t: -np.pi * np.sin(np.pi * x) * np.cos(np.pi * y) * np.cos(t),
            Side.TOP: lambda x, y, t: np.pi * np.sin(np.pi * x) * np.cos(np.pi * y) * np.cos(t),
        }
        bc = BcConfig(
            sides={s: BcKind.NEUMANN_DATA for s in ALL_SIDES}, neumann_data=flux
        )
        src = SourceSpec(
            volume_forcing=forcing, f0=lambda X, Y: exact(X, Y, 0.0), f1=None
        )
        E = stored_state(g, eps, sig, src, bc)
        X, Y = g.meshgrid()
        return np.abs(E[-1] - exact(X, Y, g.T)).max()

    errs = [run(n) for n in (16, 32, 64)]
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert all(1.8 <= o <= 2.2 for o in orders), orders


def test_energy_conserved_in_closed_box():
    g = build_grid(20, 20, T=1.0)
    eps, sig = homogeneous(g, 1.0, 0.0)
    src = SourceSpec(
        amplitude=0.0,
        f0=lambda X, Y: np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / 0.01),
    )
    E = stored_state(g, eps, sig, src, all_neumann_bc())
    H = np.array([discrete_energy(g, E, eps, n) for n in range(1, g.nt + 1)])
    assert H[0] > 0
    assert np.abs(np.diff(H)).max() <= 1e-8 * H[0]


def test_energy_decays_under_damping():
    g = build_grid(20, 20, T=1.0)
    eps, sig = homogeneous(g, 1.0, 2.0)
    src = SourceSpec(
        amplitude=0.0,
        f0=lambda X, Y: np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / 0.01),
    )
    E = stored_state(g, eps, sig, src, all_neumann_bc())
    H = np.array([discrete_energy(g, E, eps, n) for n in range(1, g.nt + 1)])
    assert np.all(np.diff(H) <= 1e-14 * H[0])
    assert H[-1] < H[0]


def test_energy_monotone_after_source_with_absorbing_and_damping():
    g = build_grid(40, 40, T=1.2)
    eps, sig = truth_pair(g)
    src = SourceSpec()
    E = stored_state(g, eps, sig, src, BcConfig())
    H = np.array([discrete_energy(g, E, eps, n) for n in range(1, g.nt + 1)])
    start = int(np.searchsorted(g.times(), src.switch_time())) + 2
    tail = H[start:]
    assert np.all(np.diff(tail) <= 1e-8 * tail[:-1])


def test_stability_guard_floors():
    g = build_grid(16, 16, cfl_safety=0.9, eps_min=4.0)  # dt tuned for eps >= 4
    eps, sig = homogeneous(g, 1.0, 1.0)  # true wave speed twice the assumed one
    with pytest.raises(StabilityError):
        solve_forward(g, eps, sig, SourceSpec(), BcConfig())
    with pytest.raises(StabilityError):
        bad = constant_coefficient(g, -1.0, Role.SIGMA)
        solve_forward(g, constant_coefficient(g, 4.0, Role.EPSILON), bad, SourceSpec(), BcConfig())


def test_trace_only_solve_keeps_the_guards():
    g = build_grid(16, 16, cfl_safety=0.9, eps_min=4.0)
    eps, sig = homogeneous(g, 1.0, 1.0)
    with pytest.raises(StabilityError, match="CFL violation"):
        forward_trace(g, eps, sig, SourceSpec(), BcConfig(), ALL_SIDES)
    bad = constant_coefficient(g, -1.0, Role.SIGMA)
    with pytest.raises(StabilityError, match="conductivity must be >= 0"):
        forward_trace(g, constant_coefficient(g, 4.0, Role.EPSILON), bad, SourceSpec(),
                      BcConfig(), ALL_SIDES)


def test_non_finite_level_is_reported_with_its_step(small_grid):
    g = small_grid
    eps, sig = homogeneous(g, 1.0, 1.0)
    nan_start = np.zeros(g.node_shape)
    nan_start[3, 4] = np.nan
    with pytest.raises(StabilityError, match="non-finite field values at start-up"):
        solve_forward(g, eps, sig, SourceSpec(f0=nan_start), BcConfig())
    forcing = np.zeros((g.nt + 1, *g.node_shape))
    forcing[5, 3, 4] = np.inf
    with pytest.raises(StabilityError, match="non-finite field values at step 6$"):
        forward_trace(g, eps, sig, SourceSpec(volume_forcing=forcing), BcConfig(), ALL_SIDES)


@pytest.mark.parametrize("where", ["block start", "mid-block", "last level"])
@pytest.mark.parametrize("numpy_warnings", ["error", "ignore"])
def test_block_check_names_the_exact_step(small_grid, where, numpy_warnings):
    # finiteness is checked at each block's pair and the last level; a failure
    # replays the solve with every level checked.  numpy's own RuntimeWarning
    # on the blow-up is raised as an error under pytest's filter and ignored
    # under the other, so both ways to a failed block are taken
    g = small_grid
    b = _block(g.nt)
    step = {"block start": 2 * b, "mid-block": 2 * b + b // 2, "last level": g.nt}[where]
    assert where == "block start" or step % b > 1
    eps, sig = homogeneous(g, 1.0, 1.0)
    forcing = np.zeros((g.nt + 1, *g.node_shape))
    forcing[step - 1, 3, 4] = np.inf  # the update from level step-1 writes level step
    src = SourceSpec(volume_forcing=forcing)
    with warnings.catch_warnings():
        warnings.simplefilter(numpy_warnings, RuntimeWarning)
        with pytest.raises(StabilityError, match=f"non-finite field values at step {step}$"):
            forward_trace(g, eps, sig, src, BcConfig(), ALL_SIDES)
        with pytest.raises(StabilityError, match=f"non-finite field values at step {step}$"):
            solve_forward(g, eps, sig, src, BcConfig())


@pytest.mark.parametrize("sides", [ALL_SIDES, (Side.RIGHT,), (Side.TOP, Side.LEFT)])
def test_forward_trace_equals_trace_of_stored_stack(sides):
    g = build_grid(20, 20, T=1.0)
    eps, sig = truth_pair(g)
    flux = {Side.TOP: lambda x, y, t: np.sin(4.0 * t) * x}
    bc = BcConfig(sides={
        Side.LEFT: BcKind.SOURCE_THEN_ABSORBING,
        Side.BOTTOM: BcKind.NEUMANN_ZERO,
        Side.RIGHT: BcKind.ABSORBING,
        Side.TOP: BcKind.NEUMANN_DATA,
    }, neumann_data=flux)
    src = SourceSpec(f1=lambda X, Y: 0.1 * X * Y)
    stored = stack_trace(g, stored_state(g, eps, sig, src, bc), sorted(sides))
    for streamed in (forward_trace(g, eps, sig, src, bc, sides),
                     extract_trace(solve_forward(g, eps, sig, src, bc), sides)):
        assert streamed.sides == stored.sides
        for side in stored.sides:
            assert np.array_equal(streamed.data[side], stored.data[side])


@pytest.mark.parametrize("field_builder", ["homogeneous", "inclusion"])
def test_no_blowup_at_cfl_09(field_builder):
    g = build_grid(24, 24, T=1.2, cfl_safety=0.9, eps_min=1.0)
    if field_builder == "homogeneous":
        eps, sig = homogeneous(g, 1.0, 1.0)
    else:
        eps, sig = truth_pair(g)
    E = stored_state(g, eps, sig, SourceSpec(amplitude=1.0), BcConfig())
    assert np.abs(E).max() <= 10.0 * 1.0


def test_source_switch_time_default():
    assert SourceSpec(omega=20.0).switch_time() == pytest.approx(np.pi / 10.0)
    assert SourceSpec(omega=20.0, t_on=0.5).switch_time() == 0.5
    assert SourceSpec(t_on=np.inf).switch_time() == np.inf  # a source that never switches


@pytest.mark.parametrize("t_on", [np.nan, 0.0, -1.0])
def test_switch_time_not_positive_rejected(t_on):
    # NaN compares false with every time, so its source would never switch
    with pytest.raises(ValueError, match="t_on must be positive"):
        SourceSpec(t_on=t_on)


@pytest.mark.parametrize("shape", [
    lambda g: (g.nt, g.nx + 1, g.ny + 1),
    lambda g: (g.nt + 1, 1, 1),
    lambda g: (g.nt + 1, 1, g.ny + 1),
], ids=["one_level_short", "one_node", "one_row"])
def test_wrong_shaped_forcing_array_rejected(small_grid, shape):
    # each of these would index or broadcast without an error
    eps, sig = homogeneous(small_grid, 1.0, 1.0)
    src = SourceSpec(volume_forcing=np.zeros(shape(small_grid)))
    with pytest.raises(ValueError, match="volume forcing shape"):
        solve_forward(small_grid, eps, sig, src, BcConfig())


def test_bc_config_rejects_two_source_sides():
    with pytest.raises(ValueError):
        BcConfig(sides={
            Side.LEFT: BcKind.SOURCE_THEN_ABSORBING,
            Side.RIGHT: BcKind.SOURCE_THEN_ABSORBING,
        })


def unfused_levels(grid, eps, sigma, src, bc):
    """The leapfrog scheme as it was written before the fused kernel: a
    fresh ghost-padded copy per level, the 5-point Laplacian divided by h^2
    and one division of the whole update by a_plus.  The reference for
    Leapfrog.advance and leapfrog_levels; returns the step function and the
    stacked levels 0..nt."""
    h, dt = grid.h, grid.dt
    e, s = eps.values, sigma.values
    a_plus = e / dt**2 + s / (2.0 * dt)
    a_mid = 2.0 * e / dt**2
    a_minus = e / dt**2 - s / (2.0 * dt)
    programs = build_forward_programs(grid, src, bc)
    X, Y = grid.meshgrid()

    def force(n):
        f = src.volume_forcing
        if f is None:
            return 0.0
        return f[n] if isinstance(f, np.ndarray) else f(X, Y, n * dt)

    def laplacian(cur, prev, n):
        P = np.zeros((grid.nx + 3, grid.ny + 3))
        P[1:-1, 1:-1] = cur
        for side, ghost, mirror, edge in (
            (Side.LEFT, np.s_[0, 1:-1], np.s_[1, :], np.s_[0, :]),
            (Side.RIGHT, np.s_[-1, 1:-1], np.s_[-2, :], np.s_[-1, :]),
            (Side.BOTTOM, np.s_[1:-1, 0], np.s_[:, 1], np.s_[:, 0]),
            (Side.TOP, np.s_[1:-1, -1], np.s_[:, -2], np.s_[:, -1]),
        ):
            prog = programs[side]
            value = cur[mirror].copy()
            if prog.series is not None:
                value += prog.series[n]  # 2 h g, scaled by the programs
            if prog.absorbing[n]:
                value -= 2.0 * h * (cur[edge] - prev[edge]) / dt
            P[ghost] = value
        return (
            P[2:, 1:-1] + P[:-2, 1:-1] + P[1:-1, 2:] + P[1:-1, :-2] - 4.0 * P[1:-1, 1:-1]
        ) / (h * h)

    def step(cur, prev, n):
        return (a_mid * cur - a_minus * prev + laplacian(cur, prev, n) + force(n)) / a_plus

    e0, f1 = _nodal(grid, src.f0), _nodal(grid, src.f1)
    levels = [e0, e0 + dt * f1 + dt**2 / (2.0 * e) * (
        laplacian(e0, e0 - dt * f1, 0) - s * f1 + force(0))]
    for n in range(1, grid.nt):
        levels.append(step(levels[-1], levels[-2], n))
    return step, np.stack(levels)


def pulse(X, Y):
    return np.exp(-((X - 0.6) ** 2 + (Y - 0.4) ** 2) / 0.02)


def kernel_case(name, nt=None):
    """(grid, eps, sigma, src, bc) for one boundary or forcing configuration,
    with nt time steps of the same dt when nt is given."""
    g = build_grid(24, 12, extent=(2.0, 1.0)) if name == "non_square" else build_grid(
        16, 16, T=0.8)
    if nt is not None:
        g = build_grid(g.nx, g.ny, T=nt * g.dt, extent=g.extent)
        assert g.nt == nt
    rng = np.random.default_rng(11)
    eps = smooth_random_coefficient(g, rng, Role.EPSILON, lo=1.0, hi=3.0)
    sig = smooth_random_coefficient(g, rng, Role.SIGMA, lo=0.0, hi=2.0)
    src, bc = SourceSpec(), BcConfig()
    absorbing = BcConfig(sides={s: BcKind.ABSORBING for s in ALL_SIDES})
    if name == "all_absorbing":
        src, bc = SourceSpec(f0=pulse), absorbing
    elif name == "all_neumann_data":
        flux = {s: lambda x, y, t, k=int(s): np.sin(3.0 * t + k) * (x + 2.0 * y)
                for s in ALL_SIDES}
        bc = BcConfig(sides={s: BcKind.NEUMANN_DATA for s in ALL_SIDES}, neumann_data=flux)
    elif name == "source_bottom":
        bc = BcConfig(sides={Side.BOTTOM: BcKind.SOURCE_THEN_ABSORBING,
                             Side.RIGHT: BcKind.ABSORBING})
    elif name == "forcing_arrays":
        X, Y = g.meshgrid()
        forcing = np.sin(5.0 * g.times())[:, None, None] * pulse(X, Y)[None]
        src = SourceSpec(volume_forcing=forcing, f0=0.3 * pulse(X, Y), f1=X * Y)
    elif name == "forcing_callables":
        src = SourceSpec(volume_forcing=lambda X, Y, t: np.cos(4.0 * t) * pulse(X, Y),
                         f0=lambda X, Y: 0.3 * pulse(X, Y), f1=lambda X, Y: X - Y)
    elif name == "non_square":
        src, bc = SourceSpec(f0=pulse, f1=lambda X, Y: 0.5 * Y), absorbing
    return g, eps, sig, src, bc


KERNEL_CASES = ["default", "all_absorbing", "all_neumann_data", "source_bottom",
                "forcing_arrays", "forcing_callables", "non_square"]


def rel_err(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_fused_step_matches_unfused_update(name):
    g, eps, sig, src, bc = kernel_case(name)
    ref_step, _ = unfused_levels(g, eps, sig, src, bc)
    op = forward_operator(g, eps, sig, src, bc)
    rng = np.random.default_rng(5)
    # steps while the source drives its side and after it switches to absorbing
    for n in (1, 2, g.nt // 3, g.nt - 1):
        cur, prev = rng.standard_normal((2, *g.node_shape))
        expected = ref_step(cur, prev, n)
        out = advanced(op, cur, prev, n).copy()
        # advance writes the out level alone: the nodes it steps from stay
        assert np.array_equal(op.levels[0].nodes, cur)
        assert np.array_equal(op.levels[1].nodes, prev)
        assert rel_err(out, expected) <= 1e-13
        assert np.array_equal(advanced(op, cur, prev, n), out)


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_forward_levels_match_unfused_scheme(name):
    g, eps, sig, src, bc = kernel_case(name)
    _, expected = unfused_levels(g, eps, sig, src, bc)
    op = forward_operator(g, eps, sig, src, bc)
    levels = np.stack([lv.nodes.copy() for lv in leapfrog_levels(op)])
    assert levels.shape == expected.shape
    assert rel_err(levels, expected) <= 1e-13


@pytest.mark.parametrize("nt", [None, *CHECKPOINT_NT],
                         ids=lambda nt: "default" if nt is None else f"nt{nt}")
def test_solve_forward_replays_the_streamed_levels_backward(nt):
    # forcing and start-up data reach the levels stepped back through the
    # forcing and the last two levels; the short time axes start the reverse
    # steps in each of the operator's three levels, level n in n % 3; the kept
    # levels and the perimeter are bitwise the pass, the interior to 1e-12
    # of max|E|
    for name in KERNEL_CASES:
        g, eps, sig, src, bc = kernel_case(name, nt)
        op = forward_operator(g, eps, sig, src, bc)
        streamed = np.stack([lv.nodes.copy() for lv in leapfrog_levels(op)])
        sol = solve_forward(g, eps, sig, src, bc)
        assert_steps_back_to(sol, streamed)
        assert np.array_equal(sol.trace.data[Side.LEFT], streamed[:, 0, :]), name


def worst_level_error_stepping_back(sol, every=8):
    """The largest error of sol.levels_backward() on every level-th level
    (a stored stack at 100², T = 6 would be 139 MB), relative to max|E|."""
    ref, top = {}, 0.0
    for n, level in enumerate(leapfrog_levels(sol.op)):
        top = max(top, np.abs(level.nodes).max())
        if n % every == 0:
            ref[n] = level.nodes.copy()
    return max(np.abs(level.nodes - ref[n]).max()
               for n, level in zip(range(sol.grid.nt, -1, -1), sol.levels_backward())
               if n in ref) / top


def test_re_anchor_pairs_bound_the_error_stepping_back(monkeypatch):
    # sigma = 10, eps = 1, the admissible box's worst corner: a reverse step
    # grows an error by about exp(sigma dt/eps), exp(60) over T = 6, which
    # with no pair below the last two levels reads 6.8e+2 of max|E|
    g = build_grid(100, 100, T=6.0)
    eps, sig = homogeneous(g, 1.0, 10.0)
    sol = solve_forward(g, eps, sig, SourceSpec(), BcConfig())
    spacing = _anchor_spacing(sol.op)
    assert 2 < spacing < g.nt and len(sol.kept) == 2 + 2 * (g.nt // spacing)
    assert worst_level_error_stepping_back(sol) <= 1e-11
    monkeypatch.setattr(waveinv.forward, "ANCHOR_GROWTH", 1e300)
    sol = solve_forward(g, eps, sig, SourceSpec(), BcConfig())
    assert len(sol.kept) == 2 and worst_level_error_stepping_back(sol) > 1.0


def test_a_damping_that_reverses_the_step_keeps_every_level():
    # sigma dt >= 2 eps makes a_minus <= 0: the step cannot be solved for its
    # oldest level, and every level is kept
    g = build_grid(12, 12, T=0.3)
    eps, sig = homogeneous(g, 1.0, 2.0 / g.dt)
    sol = solve_forward(g, eps, sig, SourceSpec(), BcConfig())
    assert _anchor_spacing(sol.op) == 1 and sorted(sol.kept) == list(range(g.nt + 1))
    assert_steps_back_to(sol, stored_state(g, eps, sig, SourceSpec(), BcConfig()))


def test_a_non_finite_level_stepped_back_is_reported(small_grid):
    # the reverse stream checks the levels n % _block(nt) < 2 as the pass does
    g = small_grid
    eps, sig = homogeneous(g, 1.0, 1.0)
    sol = solve_forward(g, eps, sig, SourceSpec(), BcConfig())
    n = _block(g.nt)
    values = sol.trace.values.copy()
    values[n, 3] = np.inf  # a perimeter node of level n
    sol.trace = BoundaryTrace(grid=g, sides=sol.trace.sides, values=values)
    with pytest.raises(StabilityError, match=f"non-finite field values at level {n}, stepping"):
        for _ in sol.levels_backward():
            pass


def test_two_most_recent_levels_survive_the_next_pull():
    g, eps, sig, src, bc = kernel_case("default")
    # the forward loop's three buffers, and the kept levels and the same
    # three buffers stepped back into
    for stream in (leapfrog_levels(forward_operator(g, eps, sig, src, bc)),
                   solve_forward(g, eps, sig, src, bc).levels_backward()):
        held = []
        for level in stream:
            for kept, copy in held:
                assert np.array_equal(kept, copy)
            held = held[-1:] + [(level.nodes, level.nodes.copy())]


def test_step_and_level_loop_allocate_no_level():
    # a level large against the interpreter's own small allocations
    g = build_grid(64, 64, T=0.1)
    eps, sig = homogeneous(g, 2.0, 1.0)
    src, bc = SourceSpec(), BcConfig()
    op = forward_operator(g, eps, sig, src, bc)
    level_bytes = np.empty(g.node_shape).nbytes
    cur, prev = np.ones((2, *g.node_shape))
    levels = leapfrog_levels(forward_operator(g, eps, sig, src, bc))
    tracemalloc.start()
    try:
        for _ in range(4):  # the loop's buffers exist once level 2 is out
            next(levels)
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for n in range(1, 6):
            advanced(op, cur, prev, n)
        for _ in levels:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < level_bytes // 2


@pytest.mark.parametrize("direction", ["forward", "adjoint"])
def test_step_after_a_pass_closes_the_sides_of_its_own_level(direction):
    # a pass leaves the absorbing closure of its last step patched into the
    # coefficients; a later step must close the sides that absorb at its own n
    g, eps, sig, src, bc = kernel_case("default")
    rng = np.random.default_rng(3)
    if direction == "forward":
        programs = build_forward_programs(g, src, bc)
    else:
        programs = forward_operator(g, eps, sig, src, bc).adjoint(
            smooth_random_trace(g, rng)).programs
    switched = programs[Side.LEFT].absorbing
    switch = int(np.flatnonzero(switched != switched[0])[0])
    used = Leapfrog(g, eps, sig, programs)
    for _ in leapfrog_levels(used):
        pass
    for n in (g.nt - 1, 1, switch, switch - 1, switch + 1, 2):
        cur, prev = rng.standard_normal((2, *g.node_shape))
        fresh = advanced(Leapfrog(g, eps, sig, programs), cur, prev, n)
        assert np.array_equal(advanced(used, cur, prev, n), fresh), n


@pytest.mark.parametrize("offset", [0, 1, "mid"], ids=["block_first", "block_second", "mid_block"])
def test_replay_across_the_switch_is_bitwise_the_pass(offset):
    # the source side first absorbs at level k b + offset of a block of b
    # levels; the reverse step reads no absorbing pattern, and its perimeter
    # and the kept levels are bitwise the pass
    g = build_grid(16, 16, T=0.8)
    b = _block(g.nt)
    first = 2 * b + (b // 2 if offset == "mid" else offset)
    src, bc = SourceSpec(t_on=(first - 0.5) * g.dt), BcConfig()
    absorbing = build_forward_programs(g, src, bc)[Side.LEFT].absorbing
    assert int(np.flatnonzero(absorbing)[0]) == first
    eps, sig = truth_pair(g)
    op = forward_operator(g, eps, sig, src, bc)
    streamed = np.stack([lv.nodes.copy() for lv in leapfrog_levels(op)])
    assert_steps_back_to(solve_forward(g, eps, sig, src, bc), streamed)


def test_building_a_leapfrog_allocates_no_level_beyond_its_own():
    # the absorbing closure's tables are perimeter-sized: the operator keeps
    # its three levels, three coefficient rows and a rows-sized scratch, and
    # while it forms the coefficients a_plus and one temporary at most
    g = build_grid(128, 128, T=0.1)
    eps, sig = truth_pair(g)
    programs = build_forward_programs(g, SourceSpec(t_on=0.05), BcConfig())
    level_bytes = np.empty(g.node_shape).nbytes
    pad_bytes = np.empty((g.nx + 3, g.ny + 3)).nbytes
    tracemalloc.start()
    try:
        op = Leapfrog(g, eps, sig, programs)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    owned = 6 * pad_bytes + (g.nx + 1) * (g.ny + 3) * 8
    assert len(op.levels) == 3
    assert kept - owned < level_bytes // 2
    assert peak - owned < 2 * level_bytes


def leapfrog_kept_beyond_its_levels():
    """(bytes, perimeter) at 128²: what a Leapfrog keeps beyond what it
    owns, seven PaddedLevels (three levels, three coefficient rows, the
    scratch), each with its cache line, and the one-byte finite flag per
    padded node; and the number of perimeter nodes."""
    g = build_grid(128, 128, T=0.1)
    eps, sig = truth_pair(g)
    programs = build_forward_programs(g, SourceSpec(t_on=0.05), BcConfig())
    Leapfrog(g, eps, sig, programs)  # warm: no first-call import is counted
    tracemalloc.start()
    try:
        op = Leapfrog(g, eps, sig, programs)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(op.levels) == 3
    padded = (g.nx + 3) * (g.ny + 3)
    owned = 7 * (padded + PaddedLevel.LINE) * 8 + padded
    return kept - owned, 2 * (g.nx + 1) + 2 * (g.ny + 1)


def test_a_leapfrog_keeps_its_seven_levels_and_perimeter_tables():
    # all else the operator keeps must be perimeter-sized: eight tables of
    # one 8-byte entry per perimeter node (33 KB at 128²), and 8 KB for the
    # array and view objects, which do not grow with the grid
    kept, perimeter = leapfrog_kept_beyond_its_levels()
    assert kept <= 8 * perimeter * 8 + 8192


def test_a_leapfrog_keeps_at_most_five_perimeter_tables():
    # the ghosts are filled through each level's own views, with no index
    # table, so the operator keeps the absorbing closure's tables alone
    kept, perimeter = leapfrog_kept_beyond_its_levels()
    assert kept <= 5 * perimeter * 8 + 8192


def test_a_solve_operator_streams_the_solve_from_its_own_start_data():
    # the operator of a solve owns its f0, f1 and forcing, so a second pass
    # over it is the solve itself, here with nonzero start data
    g, eps, sig, src, bc = kernel_case("forcing_arrays")
    sol = solve_forward(g, eps, sig, src, bc)
    streamed = np.stack([lv.nodes.copy() for lv in leapfrog_levels(sol.op)])
    back = assert_steps_back_to(sol, streamed)
    assert np.abs(back[0]).max() > 0.0 and np.abs(back[1] - back[0]).max() > 0.0


def test_a_forward_solve_gathers_its_trace_once():
    # the trace is gathered into its one (nt+1, P) array and held as it is:
    # beyond what the operator owns (as above) and the kept levels, a
    # solve holds one trace and a perimeter-sized slack of 32 tables of one
    # 8-byte entry per perimeter node (103 KB at 100², under one level),
    # which covers the operator's index tables and the step's temporaries
    g = build_grid(100, 100, T=1.2)
    eps, sig = truth_pair(g)
    src, bc = SourceSpec(), BcConfig()
    perimeter = 2 * (g.nx + 1) + 2 * (g.ny + 1)
    trace_bytes = (g.nt + 1) * perimeter * 8
    padded = (g.nx + 3) * (g.ny + 3)
    level_bytes = (padded + PaddedLevel.LINE) * 8
    owned = 7 * level_bytes + padded
    slack = 32 * perimeter * 8

    def traced_peak(solve):
        solve()  # warm: no first-call import is counted
        tracemalloc.start()
        try:
            return solve(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    trace, peak = traced_peak(lambda: forward_trace(g, eps, sig, src, bc, ALL_SIDES))
    assert peak <= owned + trace_bytes + slack
    sol, peak = traced_peak(lambda: solve_forward(g, eps, sig, src, bc))
    assert len(sol.kept) == 2  # the last two levels: at the truth no re-anchor pair
    assert peak <= owned + len(sol.kept) * level_bytes + trace_bytes + slack
    for tr in (trace, sol.trace):
        assert tr.values.nbytes == trace_bytes
        assert all(np.shares_memory(tr.data[side], tr.values) for side in ALL_SIDES)


def on_cache_line(run):
    return run.ctypes.data % 64 == 0


# the row pitch ny+3 odd (16², 17x24, 33x20) and even (24x17, 20x33)
@pytest.mark.parametrize("nx,ny", [(16, 16), (17, 24), (33, 20), (24, 17), (20, 33)])
def test_every_level_run_starts_on_a_cache_line(nx, ny):
    # numpy stores an out= run that starts off a 64-byte line on a slower path
    g = build_grid(nx, ny, T=0.3, extent=(nx / max(nx, ny), ny / max(nx, ny)))
    eps, sig = truth_pair(g)
    src, bc = SourceSpec(), BcConfig()
    assert all(on_cache_line(PaddedLevel(g).rows) for _ in range(8))
    op = forward_operator(g, eps, sig, src, bc)
    assert all(on_cache_line(run) for run in (op._c_lap, op._c_cur, op._c_prev, op._scratch))
    assert all(on_cache_line(level.rows) for level in leapfrog_levels(op))
    sol = solve_forward(g, eps, sig, src, bc)
    assert all(on_cache_line(level.rows) for level in sol.kept.values())
    assert all(on_cache_line(level.rows) for level in sol.levels_backward())
    residual = smooth_random_trace(g, np.random.default_rng(5))
    assert all(on_cache_line(level.rows) for level in leapfrog_levels(op.adjoint(residual)))

