import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from waveinv import (
    ALL_SIDES,
    AdmissibleSet,
    BcConfig,
    BcKind,
    FieldKind,
    RegularizationParams,
    Role,
    SourceSpec,
    SpaceTimeField,
    assemble_gradients,
    build_grid,
    constant_coefficient,
    extract_trace,
    fd_gradient_oracle,
    project,
    region_mask,
    solve_adjoint,
    solve_forward,
    spacetime_norm,
)
from waveinv.gradient import adjoint_gradients
from conftest import smooth_random_coefficient, smooth_random_trace, truth_pair


def make_reg(grid, eps_val=1.0, sigma_val=1.0, g0=0.0):
    return RegularizationParams(
        gamma_eps0=g0,
        gamma_sigma0=g0,
        p=0.5,
        eps_prior=constant_coefficient(grid, eps_val, Role.EPSILON),
        sigma_prior=constant_coefficient(grid, sigma_val, Role.SIGMA),
    )


def zero_adjoint(grid):
    return SpaceTimeField(
        grid=grid,
        snapshots=np.zeros((grid.nt + 1, *grid.node_shape)),
        kind=FieldKind.ADJOINT,
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
        E = solve_forward(small_grid, eps, sig, SourceSpec(), BcConfig())
        mask = region_mask(small_grid, 0)
        g_eps, g_sig = assemble_gradients(
            E, zero_adjoint(small_grid), eps, sig, reg, 0.5, 0.5, mask
        )
        assert np.all(g_eps.values == 0.0)
        assert np.all(g_sig.values == 0.0)

    def test_regularization_only_term(self, small_grid):
        reg = make_reg(small_grid, eps_val=1.0)
        eps = constant_coefficient(small_grid, 2.0, Role.EPSILON)
        sig = constant_coefficient(small_grid, 1.0, Role.SIGMA)
        E = solve_forward(small_grid, eps, sig, SourceSpec(amplitude=0.0), BcConfig())
        mask = region_mask(small_grid, 2)
        g_eps, _ = assemble_gradients(
            E, zero_adjoint(small_grid), eps, sig, reg, 0.3, 0.0, mask
        )
        assert np.all(g_eps.values[mask.inner] == pytest.approx(0.3, abs=1e-15))
        assert np.all(g_eps.values[mask.frame] == 0.0)

    def test_regularization_part_scales_linearly(self, small_grid):
        reg = make_reg(small_grid)
        eps = constant_coefficient(small_grid, 3.0, Role.EPSILON)
        sig = constant_coefficient(small_grid, 2.0, Role.SIGMA)
        mask = region_mask(small_grid, 0)
        E = solve_forward(small_grid, eps, sig, SourceSpec(), BcConfig())
        rng = np.random.default_rng(3)
        lam = SpaceTimeField(
            grid=small_grid,
            snapshots=rng.standard_normal(E.snapshots.shape),
            kind=FieldKind.ADJOINT,
        )
        g0, _ = assemble_gradients(E, lam, eps, sig, reg, 0.0, 0.0, mask)
        g1, _ = assemble_gradients(E, lam, eps, sig, reg, 0.2, 0.0, mask)
        g2, _ = assemble_gradients(E, lam, eps, sig, reg, 0.4, 0.0, mask)
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
        lam = solve_adjoint(g, eps_e, sig_e, extract_trace(E, ALL_SIDES) - obs, bc, src)
        g_eps, g_sig = assemble_gradients(E, lam, eps_e, sig_e, reg, 0.1, 0.1, mask)
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
        lam = solve_adjoint(g, eps_e, sig_e, extract_trace(E, ALL_SIDES) - obs, bc, src)
        g_eps, g_sig = assemble_gradients(E, lam, eps_e, sig_e, reg, 0.0, 0.0, mask)
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


class TestStreamedSweep:
    @settings(max_examples=25, deadline=None)
    @given(sweep_cases())
    def test_matches_stored_multiplier(self, case):
        kinds, source, observed, frame_width, seed = case
        g = build_grid(16, 16, T=1.2)
        rng = np.random.default_rng(seed)
        flux = {
            side: (lambda x, y, t, k=int(side): np.sin(3.0 * t + k) * (x + 2.0 * y))
            for side, kind in kinds.items() if kind is BcKind.NEUMANN_DATA
        }
        bc = BcConfig(sides=kinds, neumann_data=flux)
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
        lam = solve_adjoint(g, eps, sig, residual, bc, src)
        s_eps, s_sig = assemble_gradients(E, lam, eps, sig, reg, 0.05, 0.07, mask)
        assert rel_diff(g_eps.values, s_eps.values) <= 1e-12
        assert rel_diff(g_sig.values, s_sig.values) <= 1e-12
        assert lambda_norm == pytest.approx(spacetime_norm(lam), rel=1e-12, abs=0.0)

        r_eps, r_sig = stored_reference(E, lam, eps, sig, reg, 0.05, 0.07, mask)
        assert rel_diff(s_eps.values, r_eps) <= 1e-12
        assert rel_diff(s_sig.values, r_sig) <= 1e-12
