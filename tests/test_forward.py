import tracemalloc
import warnings

import numpy as np
import pytest

from waveinv import (
    ALL_SIDES,
    BcConfig,
    BcKind,
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
from waveinv.forward import (
    _block, _nodal, build_forward_programs, forward_levels, forward_operator, forward_trace,
)
from conftest import (
    all_neumann_bc, discrete_energy, smooth_random_coefficient, stored_state, truth_pair,
)


def homogeneous(grid, eps_val=1.0, sigma_val=0.0):
    return (
        constant_coefficient(grid, eps_val, Role.EPSILON),
        constant_coefficient(grid, sigma_val, Role.SIGMA),
    )


def test_zero_data_gives_zero_field(small_grid):
    eps, sig = homogeneous(small_grid, 1.0, 1.0)
    E = stored_state(small_grid, eps, sig, SourceSpec(amplitude=0.0), BcConfig())
    assert np.all(E.snapshots == 0.0)


def test_snapshot_count_and_start(small_grid):
    eps, sig = homogeneous(small_grid)
    E = stored_state(small_grid, eps, sig, SourceSpec(), BcConfig())
    assert E.snapshots.shape[0] == small_grid.nt + 1
    assert np.all(E.snapshots[0] == 0.0)
    assert np.isfinite(E.snapshots).all()


def test_source_scaling_is_exact():
    g = build_grid(20, 20, T=0.6)
    eps, sig = homogeneous(g, 1.0, 1.0)
    base = stored_state(g, eps, sig, SourceSpec(amplitude=1.0), BcConfig())
    doubled = stored_state(g, eps, sig, SourceSpec(amplitude=2.0), BcConfig())
    assert np.array_equal(doubled.snapshots, 2.0 * base.snapshots)
    scaled = stored_state(g, eps, sig, SourceSpec(amplitude=3.0), BcConfig())
    assert np.allclose(scaled.snapshots, 3.0 * base.snapshots, rtol=1e-12, atol=1e-15)


def test_field_ahead_of_front_is_negligible():
    g = build_grid(32, 32, T=1.2)
    eps, sig = homogeneous(g, 1.0, 0.0)
    E = stored_state(g, eps, sig, SourceSpec(), BcConfig())
    n = np.searchsorted(g.times(), 0.3)
    i = round(0.9 / g.h)
    assert np.abs(E.snapshots[n, i, :]).max() <= 1e-3 * np.abs(E.snapshots).max()


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
        ahead = np.abs(E.snapshots[: t_cut + 1, i_cut:, :]).max()
        assert ahead <= 1e-3 * np.abs(E.snapshots).max()


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
        return np.abs(E.snapshots[-1] - exact(X, Y, g.T)).max()

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
    H = np.array([discrete_energy(E, eps, n) for n in range(1, g.nt + 1)])
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
    H = np.array([discrete_energy(E, eps, n) for n in range(1, g.nt + 1)])
    assert np.all(np.diff(H) <= 1e-14 * H[0])
    assert H[-1] < H[0]


def test_energy_monotone_after_source_with_absorbing_and_damping():
    g = build_grid(40, 40, T=1.2)
    eps, sig = truth_pair(g)
    src = SourceSpec()
    E = stored_state(g, eps, sig, src, BcConfig())
    H = np.array([discrete_energy(E, eps, n) for n in range(1, g.nt + 1)])
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
    streamed = forward_trace(g, eps, sig, src, bc, sides)
    stored = extract_trace(solve_forward(g, eps, sig, src, bc), sides)
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
    assert np.abs(E.snapshots).max() <= 10.0 * 1.0


def test_source_switch_time_default():
    assert SourceSpec(omega=20.0).switch_time() == pytest.approx(np.pi / 10.0)
    assert SourceSpec(omega=20.0, t_on=0.5).switch_time() == 0.5


def test_bc_config_rejects_two_source_sides():
    with pytest.raises(ValueError):
        BcConfig(sides={
            Side.LEFT: BcKind.SOURCE_THEN_ABSORBING,
            Side.RIGHT: BcKind.SOURCE_THEN_ABSORBING,
        })


def test_discrete_energy_time_index_validated(small_grid):
    eps, sig = homogeneous(small_grid)
    E = stored_state(small_grid, eps, sig, SourceSpec(amplitude=0.0), BcConfig())
    assert discrete_energy(E, eps, 1) == 0.0
    with pytest.raises(ValueError):
        discrete_energy(E, eps, 0)


def unfused_levels(grid, eps, sigma, src, bc):
    """The leapfrog scheme as it was written before the fused kernel: a
    fresh ghost-padded copy per level, the 5-point Laplacian divided by h^2
    and one division of the whole update by a_plus.  The reference for
    Leapfrog.step and leapfrog_levels; returns the step function and the
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
                value += 2.0 * h * prog.series[n]
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


def kernel_case(name):
    """(grid, eps, sigma, src, bc) for one boundary or forcing configuration."""
    g = build_grid(24, 12, extent=(2.0, 1.0)) if name == "non_square" else build_grid(
        16, 16, T=0.8)
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
    out = np.empty(g.node_shape)
    # steps while the source drives its side and after it switches to absorbing
    for n in (1, 2, g.nt // 3, g.nt - 1):
        cur, prev = rng.standard_normal((2, *g.node_shape))
        expected = ref_step(cur, prev, n)
        assert op.step(cur, prev, n, out=out) is out
        assert rel_err(out, expected) <= 1e-13
        assert np.array_equal(op.step(cur, prev, n), out)


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_forward_levels_match_unfused_scheme(name):
    g, eps, sig, src, bc = kernel_case(name)
    _, expected = unfused_levels(g, eps, sig, src, bc)
    levels = np.stack([lv.copy() for lv in forward_levels(g, eps, sig, src, bc)])
    assert levels.shape == expected.shape
    assert rel_err(levels, expected) <= 1e-13


def test_solve_forward_replays_the_streamed_levels_backward():
    # forcing and start-up data reach the replayed blocks only through their pairs
    for name in KERNEL_CASES:
        g, eps, sig, src, bc = kernel_case(name)
        streamed = np.stack([lv.copy() for lv in forward_levels(g, eps, sig, src, bc)])
        sol = solve_forward(g, eps, sig, src, bc)
        replayed = np.stack([lv.copy() for lv in sol.levels_backward()])
        assert np.array_equal(replayed, streamed[::-1]), name
        assert np.array_equal(sol.trace.data[Side.LEFT], streamed[:, 0, :]), name


def test_two_most_recent_levels_survive_the_next_pull():
    g, eps, sig, src, bc = kernel_case("default")
    # the forward loop's three buffers, and the replay's pairs and rebuilt block
    for stream in (forward_levels(g, eps, sig, src, bc),
                   solve_forward(g, eps, sig, src, bc).levels_backward()):
        held = []
        for level in stream:
            for kept, copy in held:
                assert np.array_equal(kept, copy)
            held = held[-1:] + [(level, level.copy())]


def test_step_and_level_loop_allocate_no_level():
    # a level large against the interpreter's own small allocations
    g = build_grid(64, 64, T=0.1)
    eps, sig = homogeneous(g, 2.0, 1.0)
    src, bc = SourceSpec(), BcConfig()
    op = forward_operator(g, eps, sig, src, bc)
    level_bytes = np.empty(g.node_shape).nbytes
    cur, prev, out = np.ones((3, *g.node_shape))
    levels = forward_levels(g, eps, sig, src, bc)
    tracemalloc.start()
    try:
        for _ in range(4):  # the loop's buffers exist once level 2 is out
            next(levels)
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for n in range(1, 6):
            op.step(cur, prev, n, out=out)
        for _ in levels:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < level_bytes // 2
