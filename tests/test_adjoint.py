import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from waveinv import (
    ALL_SIDES,
    BcConfig,
    BoundaryTrace,
    RefinedTrace,
    RegularizationParams,
    Role,
    SourceSpec,
    StabilityError,
    build_grid,
    constant_coefficient,
    extract_trace,
    forward_defect,
    gradient_sweep,
    refine,
    region_mask,
    solve_forward,
    trace_dot,
    trace_norm_sq,
)
from waveinv.fields import BLOCK
from waveinv.forward import (
    BcKind, Leapfrog, PaddedLevel, SideProgram, forward_operator, leapfrog_levels,
)
from waveinv.grid import Side, area_weights, perimeter_offsets
from conftest import (
    adjoint_energy,
    advanced,
    all_neumann_bc,
    grid_of_levels,
    smooth_random_spacetime,
    smooth_random_trace,
    spacetime_dot,
    spacetime_norm,
    stored_adjoint,
    stored_refined,
    stored_state,
    truth_pair,
    whole_trace_refined,
    zero_trace,
)


def test_zero_residual_gives_zero_adjoint(small_grid):
    eps = constant_coefficient(small_grid, 1.0, Role.EPSILON)
    sig = constant_coefficient(small_grid, 1.0, Role.SIGMA)
    op = forward_operator(small_grid, eps, sig, SourceSpec(), BcConfig())
    lam = stored_adjoint(op, zero_trace(small_grid))
    assert np.all(lam == 0.0)


def test_terminal_conditions(small_grid):
    rng = np.random.default_rng(0)
    eps = constant_coefficient(small_grid, 1.5, Role.EPSILON)
    sig = constant_coefficient(small_grid, 1.0, Role.SIGMA)
    res = smooth_random_trace(small_grid, rng)
    lam = stored_adjoint(forward_operator(small_grid, eps, sig, SourceSpec(), BcConfig()), res)
    assert np.all(lam[-1] == 0.0)
    # the reversed Taylor start admits only the O(dt^2) ghost-source kick,
    # so the terminal backward velocity is O(dt), not O(1)
    vel = np.abs((lam[-1] - lam[-2]) / small_grid.dt).max()
    assert vel <= 2.0 * small_grid.dt * res.max_abs() / small_grid.h


def test_linearity_in_residual(small_grid):
    rng = np.random.default_rng(1)
    eps = constant_coefficient(small_grid, 2.0, Role.EPSILON)
    sig = constant_coefficient(small_grid, 1.0, Role.SIGMA)
    r1 = smooth_random_trace(small_grid, rng)
    r2 = smooth_random_trace(small_grid, rng)
    a, b = 1.75, -0.5
    combo = type(r1)(
        grid=small_grid,
        sides=r1.sides,
        values=a * r1.values + b * r2.values,
    )
    op = forward_operator(small_grid, eps, sig, SourceSpec(), BcConfig())
    lam1 = stored_adjoint(op, r1)
    lam2 = stored_adjoint(op, r2)
    lam = stored_adjoint(op, combo)
    ref = a * lam1 + b * lam2
    scale = np.abs(ref).max()
    assert np.abs(lam - ref).max() <= 1e-12 * scale


def test_time_reversal_matches_forward_on_reversed_source():
    g = build_grid(16, 16, T=0.8)
    eps = constant_coefficient(g, 1.3, Role.EPSILON)
    sig = constant_coefficient(g, 0.0, Role.SIGMA)
    rng = np.random.default_rng(5)
    res = smooth_random_trace(g, rng, sides=(Side.LEFT,))
    bc = all_neumann_bc()
    lam = stored_adjoint(forward_operator(g, eps, sig, SourceSpec(amplitude=0.0), bc), res)

    flipped = -res.data[Side.LEFT][::-1]

    def g_left(x, y, t):
        n = round(t / g.dt)
        return flipped[n]

    bc_fwd = BcConfig(
        sides={
            Side.LEFT: BcKind.NEUMANN_DATA,
            Side.BOTTOM: BcKind.NEUMANN_ZERO,
            Side.RIGHT: BcKind.NEUMANN_ZERO,
            Side.TOP: BcKind.NEUMANN_ZERO,
        },
        neumann_data={Side.LEFT: g_left},
    )
    mu = stored_state(g, eps, sig, SourceSpec(amplitude=0.0), bc_fwd)
    scale = max(np.abs(mu).max(), 1e-300)
    assert np.abs(lam - mu[::-1]).max() <= 1e-12 * scale


def test_dot_product_identity_smoke(medium_grid):
    eps, sig = truth_pair(medium_grid)
    bc = all_neumann_bc()
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        u = smooth_random_spacetime(medium_grid, rng)
        r = smooth_random_trace(medium_grid, rng)
        src = SourceSpec(amplitude=0.0, volume_forcing=u)
        E = solve_forward(medium_grid, eps, sig, src, bc)
        lam = stored_adjoint(E.op, r)
        lhs = trace_dot(extract_trace(E, ALL_SIDES), r)
        rhs = spacetime_dot(medium_grid, u, lam)
        defect = abs(lhs + rhs) / (spacetime_norm(medium_grid, u) * np.sqrt(trace_norm_sq(r)))
        assert defect <= 3e-2


# the boundary set-ups of the exact identity: (BcConfig, t_on), the default,
# the default switching early, all-Neumann, and LEFT absorbing from t = 0
# with the source on TOP
EXACT_IDENTITY_BCS = {
    "default": (BcConfig(), None),
    "default_t_on": (BcConfig(), 0.3),
    "all_neumann": (all_neumann_bc(), None),
    "left_absorbing_top_source": (BcConfig(sides={
        Side.LEFT: BcKind.ABSORBING, Side.TOP: BcKind.SOURCE_THEN_ABSORBING}), 0.25),
}


@pytest.mark.parametrize("sides", [ALL_SIDES, (Side.LEFT, Side.TOP)], ids=["all", "left_top"])
@pytest.mark.parametrize("setup", EXACT_IDENTITY_BCS)
def test_dot_product_identity_is_exact_under_the_lagrangian_pairing(setup, sides):
    # <trace E[u], r> + dt sum_{n<nt} <u^n, mu^n>_w = 0 to round-off, where
    # E[u] is the state that volume forcing u alone drives and mu is the
    # multiplier in the Lagrangian's pairing: lam^n, and at the Taylor
    # start mu^0 = lam^0 / mid_over_plus
    bc, t_on = EXACT_IDENTITY_BCS[setup]
    g = build_grid(16, 16, T=0.8)
    eps, sig = truth_pair(g)
    rng = np.random.default_rng(list(EXACT_IDENTITY_BCS).index(setup))
    u = smooth_random_spacetime(g, rng)
    r = smooth_random_trace(g, rng, sides)
    E = solve_forward(g, eps, sig, SourceSpec(amplitude=0.0, t_on=t_on, volume_forcing=u), bc)
    mu = stored_adjoint(E.op, r)
    ratio = PaddedLevel(g)
    E.op.mid_over_plus(ratio.rows)
    mu[0] /= ratio.nodes
    lhs = trace_dot(extract_trace(E, sides), r)
    rhs = g.dt * float(np.einsum("nij,nij,ij->", u[:g.nt], mu[:g.nt], area_weights(g)))
    assert abs(lhs + rhs) <= 1e-12 * (abs(lhs) + abs(rhs))


class TestEnergyMonitor:
    def test_zero_residual_reports_zeros(self, small_grid):
        eps = constant_coefficient(small_grid, 1.0, Role.EPSILON)
        sig = constant_coefficient(small_grid, 1.0, Role.SIGMA)
        res = zero_trace(small_grid)
        op = forward_operator(small_grid, eps, sig, SourceSpec(), BcConfig())
        max_energy, ratio = adjoint_energy(op, res)
        assert max_energy == 0.0
        assert ratio == 0.0
        assert ratio <= 1e6

    def test_doubling_residual_quadruples_energy(self, small_grid):
        rng = np.random.default_rng(2)
        eps = constant_coefficient(small_grid, 1.5, Role.EPSILON)
        sig = constant_coefficient(small_grid, 1.0, Role.SIGMA)
        res = smooth_random_trace(small_grid, rng)
        op = forward_operator(small_grid, eps, sig, SourceSpec(), BcConfig())
        max_energy1, ratio1 = adjoint_energy(op, res)
        doubled = BoundaryTrace(grid=res.grid, sides=res.sides, values=2.0 * res.values)
        max_energy2, ratio2 = adjoint_energy(op, doubled)
        assert max_energy2 == pytest.approx(4.0 * max_energy1, rel=1e-10)
        assert ratio2 == pytest.approx(ratio1, rel=1e-10)

    def test_ratio_stable_under_refinement(self):
        # study-1 medium driven by the background-model residual
        ratios = []
        for ncell in (24, 48):
            g = build_grid(ncell, ncell, T=1.2)
            eps_t, sig_t = truth_pair(g)
            src, bc = SourceSpec(), BcConfig()
            obs = extract_trace(solve_forward(g, eps_t, sig_t, src, bc), ALL_SIDES)
            eps0 = constant_coefficient(g, 1.0, Role.EPSILON)
            sig0 = constant_coefficient(g, 1.0, Role.SIGMA)
            E = solve_forward(g, eps0, sig0, src, bc)
            res = extract_trace(E, ALL_SIDES) - obs
            _, ratio = adjoint_energy(E.op, res)
            assert np.isfinite(ratio) and ratio <= 1e6
            ratios.append(ratio)
        assert abs(ratios[1] - ratios[0]) < 0.5 * ratios[0]


def test_adjoint_copies_the_boundary_data_once(medium_grid):
    # building the sweep copies no residual: its Neumann ghost term 2 h g,
    # g = -residual(T - s), is formed into one window of levels, each level
    # once, as the sweep reaches it, so no whole copy, scaled or not, is kept
    eps, sig = truth_pair(medium_grid)
    residual = smooth_random_trace(medium_grid, np.random.default_rng(4))
    trace_bytes = sum(a.nbytes for a in residual.data.values())
    op = forward_operator(medium_grid, eps, sig, SourceSpec(), BcConfig())
    tracemalloc.start()
    try:
        lam_backward = leapfrog_levels(op.adjoint(residual))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * trace_bytes
    assert sum(1 for _ in lam_backward) == medium_grid.nt + 1


def test_adjoint_holds_one_window_beyond_its_operator(medium_grid):
    # what a whole sweep allocates beyond the same operator with series-free
    # programs is one window of the boundary data, BLOCK of its nt+1 levels
    # (the programs' flags are views of the forward operator's); one warm
    # sweep first, so that no lazy import of numpy is counted
    g = medium_grid
    assert g.nt + 1 > BLOCK
    eps, sig = truth_pair(g)
    residual = smooth_random_trace(g, np.random.default_rng(4))
    op = forward_operator(g, eps, sig, SourceSpec(), BcConfig())
    for _ in leapfrog_levels(op.adjoint(residual)):
        pass
    programs = op.adjoint(residual).programs

    def traced_peak(build):
        tracemalloc.start()
        try:
            for _ in leapfrog_levels(build()):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    sweep = traced_peak(lambda: op.adjoint(residual))
    operator = traced_peak(lambda: Leapfrog(g, eps, sig, {
        side: SideProgram(p.absorbing.copy(), None) for side, p in programs.items()
    }, lag=1))
    window_bytes = BLOCK * residual.values.shape[1] * 8
    # one float time axis and one flag per side, per level
    time_and_flags = (g.nt + 1) * (8 + len(ALL_SIDES))
    assert sweep - operator <= window_bytes + time_and_flags


def test_adjoint_shares_the_coefficients_of_its_operator():
    # the adjoint forms no coefficient run: it steps with its forward
    # operator's runs, scratch, flags and perimeter tables, and what building
    # it keeps is its three levels, one window of the boundary data and the
    # flags; draining it adds the Taylor start's temporaries, f1's node array
    # and numpy's fixed-size buffers for its strided operands: 2.5 node
    # arrays measured at 128², 5.0 while the start formed each term anew
    g = build_grid(128, 128, T=0.6)
    assert g.nt + 1 > BLOCK
    eps, sig = truth_pair(g)
    residual = smooth_random_trace(g, np.random.default_rng(4))
    op = forward_operator(g, eps, sig, SourceSpec(), BcConfig())
    for _ in leapfrog_levels(op.adjoint(residual)):  # warm: no lazy import is counted
        pass
    tracemalloc.start()
    try:
        adjoint = op.adjoint(residual)
        kept = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for _ in leapfrog_levels(adjoint):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert adjoint.coefficients is op.coefficients
    for run in ("_c_cur", "_c_prev", "_c_lap", "_scratch"):
        assert getattr(adjoint, run) is getattr(op, run)
    assert not any(np.shares_memory(a.pad, b.pad) for a in adjoint.levels for b in op.levels)
    level_bytes = ((g.nx + 3) * (g.ny + 3) + PaddedLevel.LINE) * 8
    window_bytes = BLOCK * residual.values.shape[1] * 8
    time_and_flags = (g.nt + 1) * (8 + len(ALL_SIDES))
    objects = 16384  # the array, view and program objects, which do not grow with the grid
    assert kept <= 3 * level_bytes + window_bytes + time_and_flags + objects
    assert peak <= kept + 3 * np.empty(g.node_shape).nbytes


def solve_defect(op, E):
    """forward_defect's rows n >= 1, a_plus (E^{n+1} - step(E^n, E^{n-1})),
    stepped through the given operator in place of a fresh one."""
    g, cur, prev, out = op.grid, *op.levels
    a_plus = op.eps.values / g.dt**2 + op.sigma.values / (2.0 * g.dt)
    rows = []
    for n in range(1, g.nt):
        cur.nodes[...], prev.nodes[...] = E[n], E[n - 1]
        op.advance(cur, prev, n, out)
        rows.append(a_plus * (E[n + 1] - out.nodes))
    return np.stack(rows)


@pytest.mark.parametrize("sides", [ALL_SIDES, (Side.LEFT, Side.TOP)])
def test_a_forward_operator_steps_as_before_after_its_adjoint(sides):
    # the adjoint patches the shared c_cur and c_prev at its own patterns,
    # lag 1, and its last steps close other sides than a forward step after
    # the source's switch; the solve's operator re-patches at its next step,
    # so after a sweep that step, the operator's defect and its pass are
    # bitwise those of a fresh operator, and a second multiplier stream is
    # the first
    g = build_grid(24, 24, T=1.2)
    eps, sig = truth_pair(g)
    src, bc = SourceSpec(f1=lambda X, Y: X * Y), BcConfig()
    sol = solve_forward(g, eps, sig, src, bc)
    obs = smooth_random_trace(g, np.random.default_rng(6), sides)
    stack = stored_state(g, eps, sig, src, bc)
    late, (cur, prev) = g.nt - 2, np.random.default_rng(7).standard_normal((2, *g.node_shape))
    fresh = advanced(forward_operator(g, eps, sig, src, bc), cur, prev, late).copy()
    assert np.array_equal(advanced(sol.op, cur, prev, late), fresh)
    before = solve_defect(sol.op, stack)
    first = np.stack([lam.nodes.copy() for lam in sol.multiplier(obs)])
    reg = RegularizationParams(0.1, 0.1, 0.5, eps, sig)
    gradient_sweep(sol, sol.multiplier(obs), reg, 0.1, 0.1, region_mask(g, 2))
    assert np.array_equal(advanced(sol.op, cur, prev, late), fresh)
    second = np.stack([lam.nodes.copy() for lam in sol.multiplier(obs)])
    assert first.any() and np.array_equal(first, second)
    assert np.array_equal(before, forward_defect(stack, eps, sig, src, bc)[1:])
    assert np.array_equal(solve_defect(sol.op, stack), before)
    assert np.array_equal(np.stack([lv.nodes.copy() for lv in leapfrog_levels(sol.op)]), stack)


def whole_trace_adjoint(op, residual):
    """The adjoint of op driven by a residual trace formed whole: the ghost
    term -2h residual(T - s) of every level in one reversed, scaled copy,
    each observed side's series a view of its columns."""
    g = residual.grid
    data = residual.values[::-1] * (-2.0 * g.h)
    start = perimeter_offsets(g, residual.sides)
    series = {side: data[:, a:b] for side, a, b in zip(residual.sides, start, start[1:])}
    programs = {side: SideProgram(p.absorbing[::-1], series.get(side))
                for side, p in op.programs.items()}
    return Leapfrog(g, op.eps, op.sigma, programs, lag=1)


@pytest.mark.parametrize("levels", [BLOCK - 7, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
@pytest.mark.parametrize("sides", [ALL_SIDES, (Side.LEFT, Side.TOP)])
def test_multiplier_is_bitwise_the_adjoint_of_the_formed_residual(levels, sides):
    # the multiplier reads trace - obs a window at a time, with the element
    # operations of the residual formed whole, reversed and scaled: below
    # one window, one window exactly, one level over it and several windows
    g = grid_of_levels(levels)
    eps, sig = truth_pair(g)
    sol = solve_forward(g, eps, sig, SourceSpec(), BcConfig())
    obs = smooth_random_trace(g, np.random.default_rng(levels), sides)
    residual = extract_trace(sol, sides) - obs
    by_hand = stored_adjoint(sol.op, residual)
    whole = np.stack([lam.nodes.copy() for lam in leapfrog_levels(
        whole_trace_adjoint(sol.op, residual))][::-1])
    streamed = np.stack([lam.nodes.copy() for lam in sol.multiplier(obs)][::-1])
    assert streamed.any()
    assert np.array_equal(streamed, by_hand) and np.array_equal(streamed, whole)


@pytest.mark.parametrize("sides", [ALL_SIDES, (Side.LEFT, Side.TOP)])
def test_multiplier_of_refined_observations_is_bitwise_that_of_the_stored_ones(sides):
    # the window forms a RefinedTrace's rows straight into its buffer, the
    # stored trace's are copied there: the stream is the same, bit for bit,
    # over several windows of a two-stage refinement
    coarse = grid_of_levels(BLOCK + 3, 8)
    fine = refine(refine(coarse))
    assert fine.nt + 1 > 3 * BLOCK
    tr = smooth_random_trace(coarse, np.random.default_rng(8), sides)
    lazy = RefinedTrace(RefinedTrace(tr, refine(coarse)), fine)
    mid = stored_refined(tr, refine(coarse))
    stored = stored_refined(mid, fine)
    assert np.array_equal(mid.values, whole_trace_refined(tr, mid.grid))
    assert np.array_equal(stored.values, whole_trace_refined(mid, fine))
    eps, sig = truth_pair(fine)
    sol = solve_forward(fine, eps, sig, SourceSpec(), BcConfig())
    streams = [np.stack([lam.nodes.copy() for lam in leapfrog_levels(sol.op.adjoint(sol.trace, obs))])
               for obs in (lazy, stored)]
    assert streams[0].any() and np.array_equal(*streams)


def test_a_dropped_multiplier_stream_frees_its_operator_and_solve(small_grid):
    # no reference cycle holds the adjoint operator or the solve: both are
    # freed when the drained stream and the solve are dropped, with the
    # cyclic collector off
    eps, sig = truth_pair(small_grid)
    obs = smooth_random_trace(small_grid, np.random.default_rng(2), (Side.LEFT, Side.TOP))
    gc.disable()
    try:
        sol = solve_forward(small_grid, eps, sig, SourceSpec(), BcConfig())
        stream = sol.multiplier(obs)
        adjoint, solve = weakref.ref(stream.gi_frame.f_locals["op"]), weakref.ref(sol)
        assert sum(1 for _ in stream) == small_grid.nt + 1
        del stream, sol
        assert adjoint() is None and solve() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_residual_is_reported_with_its_step(small_grid, bad):
    # the adjoint's Neumann data at its step s is -residual(T - s), and the
    # update from level s writes level s+1
    g = small_grid
    eps = constant_coefficient(g, 1.0, Role.EPSILON)
    sig = constant_coefficient(g, 1.0, Role.SIGMA)
    values = np.zeros((g.nt + 1, sum(g.side_node_count(s) for s in ALL_SIDES)))
    row = g.nt // 3
    values[row, g.side_node_count(Side.LEFT) + 5] = bad  # node 5 of BOTTOM
    residual = BoundaryTrace(grid=g, sides=ALL_SIDES, values=values)
    op = forward_operator(g, eps, sig, SourceSpec(), BcConfig())
    step = g.nt - row + 1
    with pytest.raises(StabilityError, match=f"non-finite field values at step {step}$"):
        for _ in leapfrog_levels(op.adjoint(residual)):
            pass


def test_mismatched_residual_rejected(small_grid):
    other = build_grid(24, 24, T=1.2)
    eps = constant_coefficient(small_grid, 1.0, Role.EPSILON)
    sig = constant_coefficient(small_grid, 1.0, Role.SIGMA)
    op = forward_operator(small_grid, eps, sig, SourceSpec(), BcConfig())
    with pytest.raises(ValueError):
        op.adjoint(zero_trace(other))


@pytest.mark.parametrize("n", [8, 50, 400])
@pytest.mark.parametrize("T", [0.6, 0.9, 1.2, 2.0])
@pytest.mark.parametrize("t_on", [None, 0.1, 0.25, 0.5])
def test_switched_side_absorbs_at_the_reversed_forward_levels(n, T, t_on):
    # the adjoint level s runs at time T - s dt, and the switched side
    # absorbs there exactly when that time is after the switch
    g = build_grid(n, n, T=T)
    src = SourceSpec(t_on=t_on)
    eps, sig = constant_coefficient(g, 1.0, Role.EPSILON), constant_coefficient(g, 1.0, Role.SIGMA)
    op = forward_operator(g, eps, sig, src, BcConfig())
    adjoint = op.adjoint(zero_trace(g)).programs[Side.LEFT].absorbing
    expected = g.T - g.dt * np.arange(g.nt + 1) > src.switch_time() + 1e-14
    assert expected.any() and not expected.all()
    assert np.array_equal(adjoint, expected)
