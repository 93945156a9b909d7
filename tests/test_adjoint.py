import tracemalloc

import numpy as np
import pytest

from waveinv import (
    ALL_SIDES,
    BcConfig,
    BoundaryTrace,
    FieldKind,
    Role,
    SourceSpec,
    SpaceTimeField,
    StabilityError,
    adjoint_energy_monitor,
    adjoint_levels,
    build_grid,
    constant_coefficient,
    extract_trace,
    solve_forward,
    trace_dot,
    trace_norm_sq,
)
from waveinv.adjoint import build_adjoint_programs
from waveinv.forward import BcKind, build_forward_programs
from waveinv.grid import Side
from conftest import (
    all_neumann_bc,
    smooth_random_spacetime,
    smooth_random_trace,
    spacetime_dot,
    spacetime_norm,
    stored_adjoint,
    stored_state,
    truth_pair,
    zero_trace,
)


def test_zero_residual_gives_zero_adjoint(small_grid):
    eps = constant_coefficient(small_grid, 1.0, Role.EPSILON)
    sig = constant_coefficient(small_grid, 1.0, Role.SIGMA)
    lam = stored_adjoint(small_grid, eps, sig, zero_trace(small_grid), BcConfig(), SourceSpec())
    assert np.all(lam.snapshots == 0.0)
    assert lam.kind is FieldKind.ADJOINT


def test_terminal_conditions(small_grid):
    rng = np.random.default_rng(0)
    eps = constant_coefficient(small_grid, 1.5, Role.EPSILON)
    sig = constant_coefficient(small_grid, 1.0, Role.SIGMA)
    res = smooth_random_trace(small_grid, rng)
    lam = stored_adjoint(small_grid, eps, sig, res, BcConfig(), SourceSpec())
    assert np.all(lam.snapshots[-1] == 0.0)
    # the reversed Taylor start admits only the O(dt^2) ghost-source kick,
    # so the terminal backward velocity is O(dt), not O(1)
    vel = np.abs((lam.snapshots[-1] - lam.snapshots[-2]) / small_grid.dt).max()
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
        data={s: a * r1.data[s] + b * r2.data[s] for s in r1.sides},
    )
    bc, src = BcConfig(), SourceSpec()
    lam1 = stored_adjoint(small_grid, eps, sig, r1, bc, src)
    lam2 = stored_adjoint(small_grid, eps, sig, r2, bc, src)
    lam = stored_adjoint(small_grid, eps, sig, combo, bc, src)
    ref = a * lam1.snapshots + b * lam2.snapshots
    scale = np.abs(ref).max()
    assert np.abs(lam.snapshots - ref).max() <= 1e-12 * scale


def test_time_reversal_matches_forward_on_reversed_source():
    g = build_grid(16, 16, T=0.8)
    eps = constant_coefficient(g, 1.3, Role.EPSILON)
    sig = constant_coefficient(g, 0.0, Role.SIGMA)
    rng = np.random.default_rng(5)
    res = smooth_random_trace(g, rng, sides=(Side.LEFT,))
    bc = all_neumann_bc()
    lam = stored_adjoint(g, eps, sig, res, bc, SourceSpec(amplitude=0.0))

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
    scale = max(np.abs(mu.snapshots).max(), 1e-300)
    assert np.abs(lam.snapshots - mu.snapshots[::-1]).max() <= 1e-12 * scale


def test_dot_product_identity_smoke(medium_grid):
    eps, sig = truth_pair(medium_grid)
    bc = all_neumann_bc()
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        u = smooth_random_spacetime(medium_grid, rng)
        r = smooth_random_trace(medium_grid, rng)
        src = SourceSpec(amplitude=0.0, volume_forcing=u)
        E = solve_forward(medium_grid, eps, sig, src, bc)
        lam = stored_adjoint(medium_grid, eps, sig, r, bc, src)
        u_field = SpaceTimeField(grid=medium_grid, snapshots=u, kind=FieldKind.STATE)
        lhs = trace_dot(extract_trace(E, ALL_SIDES), r)
        rhs = spacetime_dot(u_field, lam)
        defect = abs(lhs + rhs) / (spacetime_norm(u_field) * np.sqrt(trace_norm_sq(r)))
        assert defect <= 3e-2


class TestEnergyMonitor:
    def test_zero_residual_reports_zeros(self, small_grid):
        eps = constant_coefficient(small_grid, 1.0, Role.EPSILON)
        sig = constant_coefficient(small_grid, 1.0, Role.SIGMA)
        res = zero_trace(small_grid)
        lam_backward = adjoint_levels(small_grid, eps, sig, res, BcConfig(), SourceSpec())
        rep = adjoint_energy_monitor(lam_backward, eps, sig, res)
        assert rep.max_energy == 0.0
        assert rep.ratio == 0.0
        assert not rep.flagged

    def test_doubling_residual_quadruples_energy(self, small_grid):
        rng = np.random.default_rng(2)
        eps = constant_coefficient(small_grid, 1.5, Role.EPSILON)
        sig = constant_coefficient(small_grid, 1.0, Role.SIGMA)
        res = smooth_random_trace(small_grid, rng)
        bc, src = BcConfig(), SourceSpec()
        lam1 = adjoint_levels(small_grid, eps, sig, res, bc, src)
        lam2 = adjoint_levels(small_grid, eps, sig, res.map(lambda a: 2.0 * a), bc, src)
        rep1 = adjoint_energy_monitor(lam1, eps, sig, res)
        rep2 = adjoint_energy_monitor(lam2, eps, sig, res.map(lambda a: 2.0 * a))
        assert rep2.max_energy == pytest.approx(4.0 * rep1.max_energy, rel=1e-10)
        assert rep2.ratio == pytest.approx(rep1.ratio, rel=1e-10)

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
            sim = extract_trace(solve_forward(g, eps0, sig0, src, bc), ALL_SIDES)
            res = sim - obs
            lam_backward = adjoint_levels(g, eps0, sig0, res, bc, src)
            rep = adjoint_energy_monitor(lam_backward, eps0, sig0, res)
            assert np.isfinite(rep.ratio) and not rep.flagged
            ratios.append(rep.ratio)
        assert abs(ratios[1] - ratios[0]) < 0.5 * ratios[0]

    @pytest.mark.parametrize("drop", [1, -1])
    def test_level_stream_of_wrong_length_rejected(self, small_grid, drop):
        eps = constant_coefficient(small_grid, 1.0, Role.EPSILON)
        sig = constant_coefficient(small_grid, 1.0, Role.SIGMA)
        res = zero_trace(small_grid)
        lam = stored_adjoint(small_grid, eps, sig, res, BcConfig(), SourceSpec())
        levels = list(lam.levels_backward())
        levels = levels[:-1] if drop > 0 else levels + levels[-1:]
        with pytest.raises(ValueError, match="zip"):
            adjoint_energy_monitor(iter(levels), eps, sig, res)


def test_adjoint_levels_copies_the_boundary_data_once(medium_grid):
    # building the sweep copies the residual once, into the Neumann data
    # g = -residual reversed in time; the Leapfrog scales g by 2 h as it
    # fills its ghost rows instead of keeping a scaled second copy
    eps, sig = truth_pair(medium_grid)
    residual = smooth_random_trace(medium_grid, np.random.default_rng(4))
    trace_bytes = sum(a.nbytes for a in residual.data.values())
    tracemalloc.start()
    try:
        lam_backward = adjoint_levels(medium_grid, eps, sig, residual, BcConfig(), SourceSpec())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * trace_bytes
    assert sum(1 for _ in lam_backward) == medium_grid.nt + 1


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_residual_is_reported_with_its_step(small_grid, bad):
    # the adjoint's Neumann data at its step s is -residual(T - s), and the
    # update from level s writes level s+1
    g = small_grid
    eps = constant_coefficient(g, 1.0, Role.EPSILON)
    sig = constant_coefficient(g, 1.0, Role.SIGMA)
    data = {s: np.zeros((g.nt + 1, g.side_node_count(s))) for s in ALL_SIDES}
    row = g.nt // 3
    data[Side.BOTTOM][row, 5] = bad
    residual = BoundaryTrace(grid=g, sides=ALL_SIDES, data=data)
    step = g.nt - row + 1
    with pytest.raises(StabilityError, match=f"non-finite field values at step {step}$"):
        for _ in adjoint_levels(g, eps, sig, residual, BcConfig(), SourceSpec()):
            pass


def test_mismatched_residual_rejected(small_grid):
    other = build_grid(24, 24, T=1.2)
    eps = constant_coefficient(small_grid, 1.0, Role.EPSILON)
    sig = constant_coefficient(small_grid, 1.0, Role.SIGMA)
    with pytest.raises(ValueError):
        adjoint_levels(small_grid, eps, sig, zero_trace(other), BcConfig(), SourceSpec())


@pytest.mark.parametrize("n", [8, 50, 400])
@pytest.mark.parametrize("T", [0.6, 0.9, 1.2, 2.0])
@pytest.mark.parametrize("t_on", [None, 0.1, 0.25, 0.5])
def test_switched_side_absorbs_at_the_reversed_forward_levels(n, T, t_on):
    # the adjoint level n runs at time T - n dt, so it absorbs exactly where
    # the forward level nt - n does
    g = build_grid(n, n, T=T)
    src, bc = SourceSpec(t_on=t_on), BcConfig()
    forward = build_forward_programs(g, src, bc)[Side.LEFT].absorbing
    adjoint = build_adjoint_programs(g, src, bc, zero_trace(g))[Side.LEFT].absorbing
    assert forward.any() and not forward.all()
    assert np.array_equal(adjoint, forward[::-1])
