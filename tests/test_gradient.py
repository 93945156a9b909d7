import math
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
    Side,
    SourceSpec,
    area_weights,
    build_grid,
    constant_coefficient,
    extract_trace,
    fd_gradient_oracle,
    field_dot,
    forward_defect,
    gradient_sweep,
    lagrangian,
    project,
    region_mask,
    solve_forward,
    trace_dot,
)
from waveinv.forward import PaddedLevel, _block, forward_operator, leapfrog_levels
from waveinv.grid import perimeter_nodes
from conftest import (
    CHECKPOINT_NT,
    adjoint_gradients,
    assert_steps_back_to,
    smooth_random_coefficient,
    smooth_random_trace,
    spacetime_norm,
    stack_trace,
    stored_adjoint,
    stored_solution,
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
        g_eps, g_sig, _ = adjoint_gradients(E, zero_trace(small_grid), reg, 0.5, 0.5, mask)
        assert np.all(g_eps.values == 0.0)
        assert np.all(g_sig.values == 0.0)

    def test_regularization_only_term(self, small_grid):
        reg = make_reg(small_grid, eps_val=1.0)
        eps = constant_coefficient(small_grid, 2.0, Role.EPSILON)
        sig = constant_coefficient(small_grid, 1.0, Role.SIGMA)
        src, bc = SourceSpec(amplitude=0.0), BcConfig()
        E = solve_forward(small_grid, eps, sig, src, bc)
        mask = region_mask(small_grid, 2)
        g_eps, _, _ = adjoint_gradients(E, zero_trace(small_grid), reg, 0.3, 0.0, mask)
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
        g0, _, _ = adjoint_gradients(E, residual, reg, 0.0, 0.0, mask)
        g1, _, _ = adjoint_gradients(E, residual, reg, 0.2, 0.0, mask)
        g2, _, _ = adjoint_gradients(E, residual, reg, 0.4, 0.0, mask)
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
        g_eps, g_sig, _ = adjoint_gradients(E, residual, reg, 0.1, 0.1, mask)
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

    def test_within_tolerance_and_h_convergent(self):
        rels_coarse = self.run_check(24)
        rels_fine = self.run_check(48)
        assert max(rels_coarse) <= 5e-2
        assert max(rels_fine) <= 5e-2
        assert np.median(rels_fine) < np.median(rels_coarse)


def stored_reference(E, lam, eps, sig, reg, gamma_eps, gamma_sigma, mask):
    """The staggered gradient formula over whole stacks, summed in forward
    time by einsum: the reference for the backward level-by-level sums.
    lam^0 enters through row 0 alone, the Taylor start in units of a_mid,
    paired with mu^0 = lam^0 a_plus/a_mid: its eps-derivative is
    (2/dt^2)(E^1 - E^0), with no initial velocity, and its sigma-derivative 0."""
    dt = eps.grid.dt
    mu0 = lam[0] * (eps.values / dt**2 + sig.values / (2.0 * dt)) / (2.0 * eps.values / dt**2)
    lam = np.concatenate([np.zeros_like(lam[:1]), lam[1:]])
    dE = np.diff(E, axis=0) / dt
    dLam = np.diff(lam, axis=0) / dt
    E_mid = 0.5 * (E[1:] + E[:-1])
    g_eps = gamma_eps * (eps.values - reg.eps_prior.values) - dt * np.einsum(
        "nij,nij->ij", dLam, dE
    ) + 2.0 / dt * mu0 * (E[1] - E[0])
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

        g_eps, g_sig, lambda_norm = adjoint_gradients(E, residual, reg, 0.05, 0.07, mask)
        lam = stored_adjoint(E.op, residual)
        stack = stored_state(g, eps, sig, src, bc)
        r_eps, r_sig = stored_reference(stack, lam, eps, sig, reg, 0.05, 0.07, mask)
        assert rel_diff(g_eps.values, r_eps) <= 1e-12
        assert rel_diff(g_sig.values, r_sig) <= 1e-12
        assert lambda_norm == pytest.approx(spacetime_norm(g, lam), rel=1e-12, abs=0.0)


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
        assert_steps_back_to(sol, stack)

        # the state stepped back moves the gradients at round-off: the worst
        # of 400 cases read 1.2e-14 (eps) and 2.3e-15 (sigma); the
        # multiplier does not depend on it
        residual = extract_trace(sol, observed) - smooth_random_trace(g, rng, observed)
        from_sol = adjoint_gradients(sol, residual, reg, 0.05, 0.07, mask)
        from_stack = adjoint_gradients(stored_solution(sol.op, stack), residual, reg, 0.05, 0.07,
                                       mask)
        assert rel_diff(from_sol[0].values, from_stack[0].values) <= 1e-13
        assert rel_diff(from_sol[1].values, from_stack[1].values) <= 1e-13
        assert from_sol[2] == from_stack[2]

    @pytest.mark.parametrize("drop", [1, -1])
    def test_state_stream_of_wrong_length_rejected(self, small_grid, drop):
        eps = constant_coefficient(small_grid, 2.0, Role.EPSILON)
        sig = constant_coefficient(small_grid, 1.0, Role.SIGMA)
        src, bc = SourceSpec(), BcConfig()
        stack = stored_state(small_grid, eps, sig, src, bc)
        op = forward_operator(small_grid, eps, sig, src, bc)
        levels = list(stored_solution(op, stack).levels_backward())
        levels = levels[:-1] if drop > 0 else levels + levels[-1:]
        E = SimpleNamespace(grid=small_grid, op=op, levels_backward=lambda: iter(levels))
        with pytest.raises(ValueError, match="zip"):
            adjoint_gradients(
                E, zero_trace(small_grid), make_reg(small_grid), 0.0, 0.0,
                region_mask(small_grid, 0),
            )


# (boundary kinds, observed sides): the default set-up observed everywhere,
# and every side absorbing with the source on the bottom, observed on two
LAGRANGIAN_CASES = {
    "default": (BcConfig(), ALL_SIDES),
    "absorbing_source_bottom": (
        BcConfig(sides={Side.LEFT: BcKind.ABSORBING, Side.BOTTOM: BcKind.SOURCE_THEN_ABSORBING,
                        Side.RIGHT: BcKind.ABSORBING, Side.TOP: BcKind.ABSORBING}),
        (Side.RIGHT, Side.TOP),
    ),
}


class TestLagrangianDerivative:
    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    @pytest.mark.parametrize("case", list(LAGRANGIAN_CASES))
    def test_sweep_is_the_coefficient_derivative_of_the_lagrangian(self, case, gamma):
        # At a fixed state E and multiplier lam, the Lagrangian is affine in
        # (eps, sigma) up to the quadratic penalty, so its central difference
        # is its derivative up to round-off, whatever the step.  E^0 = E^1 = 0,
        # so the start-up row of the defect does not depend on (eps, sigma).
        # The sums then match the Lagrangian exactly, and the gradient's error
        # against F lives in the multiplier alone.
        bc, observed = LAGRANGIAN_CASES[case]
        g = build_grid(16, 16, T=0.8)
        rng = np.random.default_rng(8)
        eps = smooth_random_coefficient(g, rng, Role.EPSILON, hi=4.0)
        sig = smooth_random_coefficient(g, rng, Role.SIGMA, hi=4.0)
        src = SourceSpec()
        op = forward_operator(g, eps, sig, src, bc)
        E = stored_state(g, eps, sig, src, bc)
        assert not E[0].any() and not E[1].any() and E.any()
        obs = smooth_random_trace(g, rng, observed)
        lam = stored_adjoint(op, stack_trace(g, E, observed) - obs)
        reg = make_reg(g, eps_val=1.5, sigma_val=2.0)
        g_eps, g_sig, _ = gradient_sweep(
            stored_solution(op, E), (PaddedLevel.of(g, level) for level in lam[::-1]),
            reg, gamma, gamma, region_mask(g, 0),
        )
        X, Y = g.meshgrid()
        for cx, cy in ((0.3, 0.4), (0.6, 0.7), (0.45, 0.2)):
            d = 0.5 * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / 0.05)
            for grad, field in ((g_eps, eps), (g_sig, sig)):
                values = []
                for sign in (1.0, -1.0):
                    moved = field.with_values(field.values + sign * d)
                    pair = (moved, sig) if field is eps else (eps, moved)
                    values.append(lagrangian(E, lam, *pair, reg, gamma, gamma, obs, src, bc))
                derivative = field_dot(grad, d, g)
                scale = np.sqrt(field_dot(grad, grad, g) * field_dot(d, d, g))
                assert abs(derivative - 0.5 * (values[0] - values[1])) <= 1e-10 * scale


# start data that make E^1 != 0 besides the Neumann data at t = 0 of a
# sweep case: an initial value and velocity, or a volume forcing at n = 0
STARTS = (
    {},
    {"f0": lambda X, Y: np.sin(3.0 * X) * Y, "f1": lambda X, Y: X * Y},
    {"volume_forcing": lambda X, Y, t: np.exp(-5.0 * t) * X * (1.0 - Y)},
)
# the level of the second checkpoint block at which a source side first
# absorbs: its first, its second or its middle one (None: the default t_on)
SWITCHES = (None, "first", "second", "mid")


def exact_multiplier_case(case, start, switch):
    """The stored state E, multiplier lam and mu = lam with mu^0 =
    lam^0 a_plus/a_mid, the Taylor start's multiplier in its own units, of a
    sweep case with start data, on a 12² grid."""
    kinds, source, observed, frame_width, seed = case
    g = build_grid(12, 12, T=1.2)
    b = _block(g.nt)
    level = None if switch is None else b + {"first": 0, "second": 1, "mid": b // 2}[switch]
    src = SourceSpec(t_on=None if level is None else (level - 0.5) * g.dt, **start)
    bc = case_bc(kinds)
    rng = np.random.default_rng(seed)
    eps = smooth_random_coefficient(g, rng, Role.EPSILON, hi=4.0)
    sig = smooth_random_coefficient(g, rng, Role.SIGMA, hi=4.0)
    E = stored_state(g, eps, sig, src, bc)
    obs = smooth_random_trace(g, rng, observed)
    lam = stored_adjoint(forward_operator(g, eps, sig, src, bc), stack_trace(g, E, observed) - obs)
    dt = g.dt
    mu = lam.copy()
    mu[0] *= (eps.values / dt**2 + sig.values / (2.0 * dt)) / (2.0 * eps.values / dt**2)
    return SimpleNamespace(g=g, src=src, bc=bc, eps=eps, sig=sig, observed=observed, obs=obs,
                           E=E, lam=lam, mu=mu, mask=region_mask(g, frame_width), rng=rng)


class TestExactMultiplier:
    """With mu^0 in place of lam^0 the multiplier makes objective.lagrangian
    stationary in the state, and the sweep's gradient is the Lagrangian's
    coefficient derivative, to round-off, also where E^1 != 0."""

    @settings(max_examples=15, deadline=None)
    @given(sweep_cases(), st.sampled_from(STARTS), st.sampled_from(SWITCHES))
    def test_lagrangian_is_stationary_at_every_level(self, case, start, switch):
        # L is quadratic in the state, so L(E + d) - L(E - d) is twice its
        # derivative along d, for d on one level k; on the observed sides d
        # is level k's residual, so that the misfit's change, against which
        # the derivative is measured, cannot cancel.  The difference is
        # formed directly, not from two values of L, whose own rounding (a
        # few ulp of |L|) can exceed 1e-12 of a small change: the misfit
        # changes by 2 <r, trace d>, and the pairing by 2 dt <D d, mu>_w, D
        # the defect with every source and boundary datum zero.  The
        # pairing's terms cancel to about 1e-4 of their absolute sum, so
        # they are summed exactly (math.fsum), not in floating order
        c = exact_multiplier_case(case, start, switch)
        linear_src = SourceSpec(omega=c.src.omega, amplitude=0.0, t_on=c.src.t_on)
        linear_bc = BcConfig(sides={
            side: BcKind.NEUMANN_ZERO if kind is BcKind.NEUMANN_DATA else kind
            for side, kind in c.bc.sides.items()})
        w = area_weights(c.g)
        observed = perimeter_nodes(c.g, c.observed)
        residual = stack_trace(c.g, c.E, c.observed) - c.obs
        for k in range(1, c.g.nt + 1):
            d = np.zeros_like(c.E)
            d[k] = c.rng.standard_normal(c.g.node_shape) * np.abs(residual.values[k]).max()
            d[k].reshape(-1)[observed] = residual.values[k]
            misfit = 2.0 * trace_dot(residual, stack_trace(c.g, d, c.observed))
            D_d = forward_defect(d, c.eps, c.sig, linear_src, linear_bc)
            pairing = 2.0 * c.g.dt * math.fsum((D_d * c.mu[:c.g.nt] * w).ravel())
            assert abs(misfit + pairing) <= 1e-12 * abs(misfit)

    @settings(max_examples=25, deadline=None)
    @given(sweep_cases(), st.sampled_from(STARTS), st.sampled_from(SWITCHES))
    def test_sweep_is_the_coefficient_derivative_of_the_lagrangian(self, case, start, switch):
        # the gradient of the command path, a ForwardSolution replayed from
        # its checkpoints and its own multiplier, against the Lagrangian at
        # the stored state and mu, affine in (eps, sigma) up to the penalty
        c = exact_multiplier_case(case, start, switch)
        reg = make_reg(c.g, eps_val=1.5, sigma_val=2.0)
        sol = solve_forward(c.g, c.eps, c.sig, c.src, c.bc)
        g_eps, g_sig, _ = gradient_sweep(sol, sol.multiplier(c.obs), reg, 0.05, 0.07, c.mask)
        X, Y = c.g.meshgrid()
        for cx, cy in ((0.3, 0.4), (0.6, 0.7), (0.5, 1.0)):
            d = 0.5 * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / 0.05)
            d[c.mask.frame] = 0.0  # the sweep's gradient is zero there
            for grad, field in ((g_eps, c.eps), (g_sig, c.sig)):
                values = []
                for sign in (1.0, -1.0):
                    moved = field.with_values(field.values + sign * d)
                    pair = (moved, c.sig) if field is c.eps else (c.eps, moved)
                    values.append(lagrangian(c.E, c.mu, *pair, reg, 0.05, 0.07, c.obs, c.src,
                                             c.bc))
                derivative = field_dot(grad, d, c.g)
                scale = np.sqrt(field_dot(grad, grad, c.g) * field_dot(d, d, c.g))
                # the difference of two values of L resolves no more than
                # their own rounding, a few ulp of |L|: where the gradient
                # is small against L that floor exceeds 1e-12 of the scale
                rounding = 1e-14 * max(abs(v) for v in values)
                assert abs(derivative - 0.5 * (values[0] - values[1])) <= 1e-12 * scale + rounding


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
    lam_backward = leapfrog_levels(sol.op.adjoint(smooth_random_trace(g, rng)))
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
        gradient_sweep(sol, watched(lam_backward), make_reg(g), 0.0, 0.0, region_mask(g, 0))
    finally:
        tracemalloc.stop()
    base, peak = marks
    assert peak - base < level_bytes // 2
