import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from waveinv import (
    ALL_SIDES,
    AdmissibleSet,
    BcConfig,
    BcKind,
    RegularizationParams,
    Role,
    SourceSpec,
    adjoint_levels,
    build_grid,
    constant_coefficient,
    extract_trace,
    fd_gradient_oracle,
    gradient_sweep,
    project,
    region_mask,
    solve_forward,
)
from conftest import (
    adjoint_gradients,
    smooth_random_coefficient,
    smooth_random_trace,
    spacetime_norm,
    stored_adjoint,
    stored_state,
    truth_pair,
    zero_trace,
)


def make_reg(grid, eps_val=1.0, sigma_val=1.0, g0=0.0):
    return RegularizationParams(
        gamma_eps0=g0,
        gamma_sigma0=g0,
        p=0.5,
        eps_prior=constant_coefficient(grid, eps_val, Role.EPSILON),
        sigma_prior=constant_coefficient(grid, sigma_val, Role.SIGMA),
    )


def eval_setup(ncell, frame_width=2, noise_free_obs=True):
    """Evaluation point strictly inside the box against study-1 truth data."""
    g = build_grid(ncell, ncell, T=1.2)
    mask = region_mask(g, frame_width)
    adm = AdmissibleSet()
    src, bc = SourceSpec(), BcConfig()
    eps_t, sig_t = truth_pair(g)
    obs = extract_trace(solve_forward(g, eps_t, sig_t, src, bc), ALL_SIDES)
    eps_e = project(constant_coefficient(g, 2.0, Role.EPSILON), adm, mask)
    sig_e = project(constant_coefficient(g, 2.0, Role.SIGMA), adm, mask)
    return g, mask, adm, src, bc, obs, eps_e, sig_e


class TestAssemble:
    def test_zero_adjoint_at_prior_gives_zero(self, small_grid):
        reg = make_reg(small_grid)
        eps = constant_coefficient(small_grid, 1.0, Role.EPSILON)
        sig = constant_coefficient(small_grid, 1.0, Role.SIGMA)
        src, bc = SourceSpec(), BcConfig()
        E = solve_forward(small_grid, eps, sig, src, bc)
        mask = region_mask(small_grid, 0)
        g_eps, g_sig, _ = adjoint_gradients(
            E, zero_trace(small_grid), eps, sig, reg, 0.5, 0.5, mask, bc, src
        )
        assert np.all(g_eps.values == 0.0)
        assert np.all(g_sig.values == 0.0)

    def test_regularization_only_term(self, small_grid):
        reg = make_reg(small_grid, eps_val=1.0)
        eps = constant_coefficient(small_grid, 2.0, Role.EPSILON)
        sig = constant_coefficient(small_grid, 1.0, Role.SIGMA)
        src, bc = SourceSpec(amplitude=0.0), BcConfig()
        E = solve_forward(small_grid, eps, sig, src, bc)
        mask = region_mask(small_grid, 2)
        g_eps, _, _ = adjoint_gradients(
            E, zero_trace(small_grid), eps, sig, reg, 0.3, 0.0, mask, bc, src
        )
        assert np.all(g_eps.values[mask.inner] == pytest.approx(0.3, abs=1e-15))
        assert np.all(g_eps.values[mask.frame] == 0.0)

    def test_regularization_part_scales_linearly(self, small_grid):
        reg = make_reg(small_grid)
        eps = constant_coefficient(small_grid, 3.0, Role.EPSILON)
        sig = constant_coefficient(small_grid, 2.0, Role.SIGMA)
        mask = region_mask(small_grid, 0)
        src, bc = SourceSpec(), BcConfig()
        E = solve_forward(small_grid, eps, sig, src, bc)
        residual = smooth_random_trace(small_grid, np.random.default_rng(3))
        g0, _, _ = adjoint_gradients(E, residual, eps, sig, reg, 0.0, 0.0, mask, bc, src)
        g1, _, _ = adjoint_gradients(E, residual, eps, sig, reg, 0.2, 0.0, mask, bc, src)
        g2, _, _ = adjoint_gradients(E, residual, eps, sig, reg, 0.4, 0.0, mask, bc, src)
        # extraction of the regularization part by subtraction carries the
        # round-off of the large data term, hence the scaled tolerance
        scale = np.abs(g0.values).max()
        assert np.allclose(
            g2.values - g0.values, 2.0 * (g1.values - g0.values),
            rtol=0.0, atol=1e-13 * scale,
        )

    def test_frame_nodes_exactly_zero(self):
        g, mask, adm, src, bc, obs, eps_e, sig_e = eval_setup(16)
        reg = make_reg(g)
        E = solve_forward(g, eps_e, sig_e, src, bc)
        residual = extract_trace(E, ALL_SIDES) - obs
        g_eps, g_sig, _ = adjoint_gradients(
            E, residual, eps_e, sig_e, reg, 0.1, 0.1, mask, bc, src
        )
        assert np.all(g_eps.values[mask.frame] == 0.0)
        assert np.all(g_sig.values[mask.frame] == 0.0)
        assert np.abs(g_eps.values[mask.inner]).max() > 0.0


class TestOracle:
    def test_frame_direction_is_flat(self):
        g, mask, adm, src, bc, obs, eps_e, sig_e = eval_setup(16)
        reg = make_reg(g)
        frame_node = tuple(np.argwhere(mask.frame)[0])
        samples = fd_gradient_oracle(
            eps_e, sig_e, obs, reg, 0.0, 0.0, [frame_node], 1e-3, src, bc, mask, adm
        )
        for s in samples:
            assert abs(s.value) <= 1e-10

    def test_quadratic_regime_matches_closed_form(self):
        g, mask, adm, src, bc, _, eps_e, sig_e = eval_setup(16)
        obs_self = extract_trace(solve_forward(g, eps_e, sig_e, src, bc), ALL_SIDES)
        reg = make_reg(g, eps_val=1.5, sigma_val=1.5)
        node = (8, 8)
        samples = fd_gradient_oracle(
            eps_e, sig_e, obs_self, reg, 1.0, 1.0, [node], 1e-3, src, bc, mask, adm,
            roles=(Role.EPSILON,),
        )
        # data term exactly quadratic around its minimum, so the probe sees
        # only gamma * (eps - prior) = 1.0 * 0.5
        assert samples[0].value == pytest.approx(0.5, abs=1e-8)

    def test_step_size_plateau(self):
        g, mask, adm, src, bc, obs, eps_e, sig_e = eval_setup(16)
        reg = make_reg(g)
        node = (8, 8)
        vals = []
        for h_fd in (1e-2, 1e-3, 1e-4):
            s = fd_gradient_oracle(
                eps_e, sig_e, obs, reg, 0.0, 0.0, [node], h_fd, src, bc, mask, adm,
                roles=(Role.EPSILON,),
            )
            vals.append(s[0].value)
        assert abs(vals[0] - vals[1]) <= 0.01 * abs(vals[1])
        assert abs(vals[1] - vals[2]) <= 0.01 * abs(vals[2])

    def test_inadmissible_probe_rejected(self):
        g, mask, adm, src, bc, obs, _, _ = eval_setup(16)
        reg = make_reg(g)
        eps_lo = project(constant_coefficient(g, 1.0, Role.EPSILON), adm, mask)
        sig_lo = project(constant_coefficient(g, 1.0, Role.SIGMA), adm, mask)
        with pytest.raises(ValueError, match="h_fd"):
            fd_gradient_oracle(
                eps_lo, sig_lo, obs, reg, 0.0, 0.0, [(8, 8)], 1e-3, src, bc, mask, adm
            )


class TestAdjointVersusOracle:
    def run_check(self, ncell, n_nodes=6, seed=7):
        g, mask, adm, src, bc, obs, eps_e, sig_e = eval_setup(ncell)
        reg = make_reg(g)
        E = solve_forward(g, eps_e, sig_e, src, bc)
        residual = extract_trace(E, ALL_SIDES) - obs
        g_eps, g_sig, _ = adjoint_gradients(
            E, residual, eps_e, sig_e, reg, 0.0, 0.0, mask, bc, src
        )
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

    def test_within_tolerance_and_h_convergent(self):
        rels_coarse = self.run_check(24)
        rels_fine = self.run_check(48)
        assert max(rels_coarse) <= 5e-2
        assert max(rels_fine) <= 5e-2
        assert np.median(rels_fine) < np.median(rels_coarse)


def stored_reference(E, lam, eps, sig, reg, gamma_eps, gamma_sigma, mask):
    """The staggered gradient formula over whole stacks, summed in forward
    time by einsum: the reference for the backward level-by-level sums."""
    dt = E.grid.dt
    dE = np.diff(E.snapshots, axis=0) / dt
    dLam = np.diff(lam.snapshots, axis=0) / dt
    E_mid = 0.5 * (E.snapshots[1:] + E.snapshots[:-1])
    g_eps = gamma_eps * (eps.values - reg.eps_prior.values) - dt * np.einsum(
        "nij,nij->ij", dLam, dE
    )
    g_sig = gamma_sigma * (sig.values - reg.sigma_prior.values) - dt * np.einsum(
        "nij,nij->ij", E_mid, dLam
    )
    g_eps[mask.frame] = 0.0
    g_sig[mask.frame] = 0.0
    return g_eps, g_sig


def rel_diff(a, b):
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


@st.composite
def sweep_cases(draw):
    """A boundary kind per side (at most one switched source side), a
    non-empty set of observed sides, a frame width and a data seed."""
    plain = (BcKind.ABSORBING, BcKind.NEUMANN_ZERO, BcKind.NEUMANN_DATA)
    kinds = {side: draw(st.sampled_from(plain)) for side in ALL_SIDES}
    source = draw(st.sampled_from((None, *ALL_SIDES)))
    if source is not None:
        kinds[source] = BcKind.SOURCE_THEN_ABSORBING
    observed = tuple(sorted(draw(st.sets(st.sampled_from(ALL_SIDES), min_size=1))))
    return kinds, source, observed, draw(st.integers(0, 3)), draw(st.integers(0, 2**32 - 1))


def case_bc(kinds):
    """The BcConfig of a sweep case, with Neumann data on its NEUMANN_DATA sides."""
    flux = {
        side: (lambda x, y, t, k=int(side): np.sin(3.0 * t + k) * (x + 2.0 * y))
        for side, kind in kinds.items() if kind is BcKind.NEUMANN_DATA
    }
    return BcConfig(sides=kinds, neumann_data=flux)


class TestStreamedSweep:
    @settings(max_examples=25, deadline=None)
    @given(sweep_cases())
    def test_matches_stored_multiplier(self, case):
        kinds, source, observed, frame_width, seed = case
        g = build_grid(16, 16, T=1.2)
        rng = np.random.default_rng(seed)
        bc = case_bc(kinds)
        src = SourceSpec()
        eps = smooth_random_coefficient(g, rng, Role.EPSILON, hi=4.0)
        sig = smooth_random_coefficient(g, rng, Role.SIGMA, hi=4.0)
        mask = region_mask(g, frame_width)
        reg = make_reg(g, eps_val=1.5, sigma_val=2.0)
        E = solve_forward(g, eps, sig, src, bc)
        residual = extract_trace(E, observed) - smooth_random_trace(g, rng, observed)

        g_eps, g_sig, lambda_norm = adjoint_gradients(
            E, residual, eps, sig, reg, 0.05, 0.07, mask, bc, src
        )
        lam = stored_adjoint(g, eps, sig, residual, bc, src)
        stack = stored_state(g, eps, sig, src, bc)
        r_eps, r_sig = stored_reference(stack, lam, eps, sig, reg, 0.05, 0.07, mask)
        assert rel_diff(g_eps.values, r_eps) <= 1e-12
        assert rel_diff(g_sig.values, r_sig) <= 1e-12
        assert lambda_norm == pytest.approx(spacetime_norm(lam), rel=1e-12, abs=0.0)


# 8x8 time axes whose nt+1 levels split into blocks of
# b = max(ceil(sqrt(nt+1)), 3) levels in every way: one block (nt = 1, 2 < b),
# full blocks only (nt = 8 = 3^2 - 1, nt = 15 = 4^2 - 1), and a last block of
# one level (nt = 12), of two (nt = 9, nt = 16 = 4^2) and of three levels
# (nt = 10, nt = 17 = 4^2 + 1)
CHECKPOINT_NT = (1, 2, 8, 9, 10, 12, 15, 16, 17)


class TestCheckpointedState:
    @settings(max_examples=30, deadline=None)
    @given(sweep_cases(), st.sampled_from(CHECKPOINT_NT))
    def test_replay_and_gradients_equal_the_stored_stack(self, case, nt):
        kinds, source, observed, frame_width, seed = case
        g8 = build_grid(8, 8)
        g = build_grid(8, 8, T=nt * g8.dt)
        assert g.nt == nt
        rng = np.random.default_rng(seed)
        bc = case_bc(kinds)
        src = SourceSpec(f1=lambda X, Y: X * Y)
        eps = smooth_random_coefficient(g, rng, Role.EPSILON, hi=4.0)
        sig = smooth_random_coefficient(g, rng, Role.SIGMA, hi=4.0)
        mask = region_mask(g, frame_width)
        reg = make_reg(g, eps_val=1.5, sigma_val=2.0)
        sol = solve_forward(g, eps, sig, src, bc)
        stack = stored_state(g, eps, sig, src, bc)
        replayed = np.stack([level.copy() for level in sol.levels_backward()])
        assert np.array_equal(replayed, stack.snapshots[::-1])

        residual = extract_trace(sol, observed) - smooth_random_trace(g, rng, observed)
        from_sol = adjoint_gradients(sol, residual, eps, sig, reg, 0.05, 0.07, mask, bc, src)
        from_stack = adjoint_gradients(stack, residual, eps, sig, reg, 0.05, 0.07, mask, bc, src)
        assert np.array_equal(from_sol[0].values, from_stack[0].values)
        assert np.array_equal(from_sol[1].values, from_stack[1].values)
        assert from_sol[2] == from_stack[2]

    @pytest.mark.parametrize("drop", [1, -1])
    def test_state_stream_of_wrong_length_rejected(self, small_grid, drop):
        eps = constant_coefficient(small_grid, 2.0, Role.EPSILON)
        sig = constant_coefficient(small_grid, 1.0, Role.SIGMA)
        src, bc = SourceSpec(), BcConfig()
        levels = list(stored_state(small_grid, eps, sig, src, bc).levels_backward())
        levels = levels[:-1] if drop > 0 else levels + levels[-1:]
        E = SimpleNamespace(grid=small_grid, levels_backward=lambda: iter(levels))
        with pytest.raises(ValueError, match="zip"):
            adjoint_gradients(
                E, zero_trace(small_grid), eps, sig, make_reg(small_grid), 0.0, 0.0,
                region_mask(small_grid, 0), bc, src,
            )


def test_sweep_allocates_no_level_per_step():
    # a level large against the interpreter's own small allocations; the
    # sweep reads every level as a contiguous run of its padded buffer, as a
    # strided operand numpy would copy through a level-sized scratch buffer
    g = build_grid(64, 64, T=0.2)
    rng = np.random.default_rng(3)
    eps = smooth_random_coefficient(g, rng, Role.EPSILON, hi=4.0)
    sig = smooth_random_coefficient(g, rng, Role.SIGMA, hi=4.0)
    src, bc = SourceSpec(), BcConfig()
    sol = solve_forward(g, eps, sig, src, bc)
    lam_backward = adjoint_levels(g, eps, sig, smooth_random_trace(g, rng), bc, src)
    level_bytes = np.empty(g.node_shape).nbytes
    marks = []

    def watched(levels):
        for k, level in enumerate(levels):
            if k == 3:  # the sweep's, the replay's and the loop's buffers exist
                marks.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()
            yield level
        marks.append(tracemalloc.get_traced_memory()[1])

    tracemalloc.start()
    try:
        gradient_sweep(sol, watched(lam_backward), eps, sig, make_reg(g), 0.0, 0.0,
                       region_mask(g, 0))
    finally:
        tracemalloc.stop()
    base, peak = marks
    assert peak - base < level_bytes // 2
