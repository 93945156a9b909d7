import numpy as np
import pytest

from waveinv import (
    ALL_SIDES,
    BcConfig,
    BcKind,
    BoundaryTrace,
    FieldKind,
    RegularizationParams,
    Role,
    Side,
    SourceSpec,
    SpaceTimeField,
    build_grid,
    constant_coefficient,
    decomposition_identity_check,
    error_metrics,
    extract_trace,
    forward_defect,
    lagrangian,
    solve_forward,
    tikhonov,
    trace_norm_sq,
)
from waveinv.grid import area_weights
from conftest import smooth_random_coefficient, truth_pair


def const_trace(grid, sides, value):
    data = {s: np.full((grid.nt + 1, grid.side_node_count(s)), value) for s in sides}
    return BoundaryTrace(grid=grid, sides=tuple(sides), data=data)


def reg_for(grid, eps_prior_val=1.0, sigma_prior_val=1.0, g0=0.0, p=0.5):
    return RegularizationParams(
        gamma_eps0=g0,
        gamma_sigma0=g0,
        p=p,
        eps_prior=constant_coefficient(grid, eps_prior_val, Role.EPSILON),
        sigma_prior=constant_coefficient(grid, sigma_prior_val, Role.SIGMA),
    )


class TestTikhonov:
    def test_zero_at_joint_optimum(self, small_grid):
        reg = reg_for(small_grid)
        eps = constant_coefficient(small_grid, 1.0, Role.EPSILON)
        sig = constant_coefficient(small_grid, 1.0, Role.SIGMA)
        tr = const_trace(small_grid, ALL_SIDES, 0.7)
        assert tikhonov(tr, tr, eps, sig, reg, 2.0, 2.0) == 0.0

    def test_constant_misfit_one_side(self, small_grid):
        reg = reg_for(small_grid)
        eps = constant_coefficient(small_grid, 1.0, Role.EPSILON)
        sig = constant_coefficient(small_grid, 1.0, Role.SIGMA)
        sim = const_trace(small_grid, (Side.LEFT,), 0.3)
        obs = const_trace(small_grid, (Side.LEFT,), 0.0)
        expect = 0.5 * 0.3**2 * 1.0 * 1.2
        assert tikhonov(sim, obs, eps, sig, reg, 0.0, 0.0) == pytest.approx(expect, abs=1e-10)

    def test_regularization_only(self, small_grid):
        reg = reg_for(small_grid, eps_prior_val=1.0)
        eps = constant_coefficient(small_grid, 2.0, Role.EPSILON)  # deviation 1
        sig = constant_coefficient(small_grid, 1.0, Role.SIGMA)
        tr = const_trace(small_grid, ALL_SIDES, 0.0)
        assert tikhonov(tr, tr, eps, sig, reg, 2.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_nonnegative_on_random_inputs(self, small_grid):
        rng = np.random.default_rng(6)
        reg = reg_for(small_grid)
        for _ in range(5):
            eps = smooth_random_coefficient(small_grid, rng, Role.EPSILON)
            sig = smooth_random_coefficient(small_grid, rng, Role.SIGMA)
            sim = const_trace(small_grid, ALL_SIDES, rng.standard_normal())
            obs = const_trace(small_grid, ALL_SIDES, rng.standard_normal())
            assert tikhonov(sim, obs, eps, sig, reg, 0.3, 0.4) >= 0.0

    def test_mismatched_traces_rejected(self, small_grid):
        reg = reg_for(small_grid)
        eps = constant_coefficient(small_grid, 1.0, Role.EPSILON)
        sig = constant_coefficient(small_grid, 1.0, Role.SIGMA)
        sim = const_trace(small_grid, (Side.LEFT,), 1.0)
        obs = const_trace(small_grid, (Side.RIGHT,), 1.0)
        with pytest.raises(ValueError):
            tikhonov(sim, obs, eps, sig, reg, 0.0, 0.0)


def test_boundary_time_quadrature_reproduces_measure(small_grid):
    ones = const_trace(small_grid, ALL_SIDES, 1.0)
    assert trace_norm_sq(ones) == pytest.approx(4.0 * 1.2, abs=1e-12)


class TestLagrangian:
    def setup_problem(self, grid):
        eps, sig = truth_pair(grid)
        src, bc = SourceSpec(), BcConfig()
        E = solve_forward(grid, eps, sig, src, bc)
        obs = extract_trace(E, ALL_SIDES)
        reg = reg_for(grid)
        return eps, sig, src, bc, E, obs, reg

    def test_zero_multiplier_reduces_to_functional(self, small_grid):
        eps, sig, src, bc, E, obs, reg = self.setup_problem(small_grid)
        lam = SpaceTimeField(
            grid=small_grid,
            snapshots=np.zeros_like(E.snapshots),
            kind=FieldKind.ADJOINT,
        )
        F = tikhonov(extract_trace(E, ALL_SIDES), obs, eps, sig, reg, 0.1, 0.1)
        L = lagrangian(E, lam, eps, sig, reg, 0.1, 0.1, obs, src, bc)
        assert L == F

    def test_multiplier_independence_for_solved_state(self, small_grid):
        eps, sig, src, bc, E, obs, reg = self.setup_problem(small_grid)
        rng = np.random.default_rng(8)
        F = tikhonov(extract_trace(E, ALL_SIDES), obs, eps, sig, reg, 0.1, 0.1)
        values = []
        for _ in range(2):
            lam = SpaceTimeField(
                grid=small_grid,
                snapshots=rng.standard_normal(E.snapshots.shape),
                kind=FieldKind.ADJOINT,
            )
            values.append(lagrangian(E, lam, eps, sig, reg, 0.1, 0.1, obs, src, bc))
        tol = 1e-10 * (1.0 + abs(F))
        assert abs(values[0] - F) <= tol
        assert abs(values[0] - values[1]) <= tol

    @pytest.mark.parametrize(
        "config", ["default", "all_absorbing", "all_neumann_data", "source_bottom", "forced"]
    )
    def test_defect_zero_for_solver_output(self, small_grid, config):
        g = small_grid
        eps, sig = truth_pair(g)
        src, bc = SourceSpec(), BcConfig()
        if config == "all_absorbing":  # driven by an initial pulse
            src = SourceSpec(f0=lambda X, Y: np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / 0.02))
            bc = BcConfig(sides={s: BcKind.ABSORBING for s in ALL_SIDES})
        elif config == "all_neumann_data":
            flux = {s: lambda x, y, t, k=int(s): np.sin(3.0 * t + k) * (x + 2.0 * y)
                    for s in ALL_SIDES}
            bc = BcConfig(sides={s: BcKind.NEUMANN_DATA for s in ALL_SIDES}, neumann_data=flux)
        elif config == "source_bottom":
            bc = BcConfig(sides={
                Side.LEFT: BcKind.NEUMANN_ZERO,
                Side.BOTTOM: BcKind.SOURCE_THEN_ABSORBING,
                Side.RIGHT: BcKind.ABSORBING,
                Side.TOP: BcKind.NEUMANN_ZERO,
            })
        elif config == "forced":
            X, Y = g.meshgrid()
            bump = np.exp(-((X - 0.3) ** 2 + (Y - 0.4) ** 2) / 0.01)
            src = SourceSpec(
                f0=0.1 * np.cos(np.pi * X) * np.cos(np.pi * Y),
                f1=0.2 * np.sin(np.pi * X) * Y,
                volume_forcing=np.sin(2.0 * g.times())[:, None, None] * bump[None],
            )
        E = solve_forward(g, eps, sig, src, bc)
        assert np.abs(E.snapshots).max() > 0.0
        defect = forward_defect(E, eps, sig, src, bc)
        assert np.abs(defect).max() == 0.0

    def test_single_node_perturbation_matches_hand_stencil(self, small_grid):
        eps, sig, src, bc, E, obs, reg = self.setup_problem(small_grid)
        g = small_grid
        rng = np.random.default_rng(9)
        lam_snaps = rng.standard_normal(E.snapshots.shape)
        lam = SpaceTimeField(grid=g, snapshots=lam_snaps, kind=FieldKind.ADJOINT)

        i, j, k = 7, 9, g.nt // 2  # interior node, interior time
        delta = 1e-3
        pert = E.snapshots.copy()
        pert[k, i, j] += delta
        E_pert = SpaceTimeField(grid=g, snapshots=pert, kind=FieldKind.STATE)

        F_pert = tikhonov(extract_trace(E_pert, ALL_SIDES), obs, eps, sig, reg, 0.1, 0.1)
        L_pert = lagrangian(E_pert, lam, eps, sig, reg, 0.1, 0.1, obs, src, bc)

        # hand application of the three update equations the node enters
        dt, h = g.dt, g.h
        w = area_weights(g)
        a_plus = eps.values[i, j] / dt**2 + sig.values[i, j] / (2 * dt)
        a_mid = 2 * eps.values[i, j] / dt**2
        a_minus = eps.values[i, j] / dt**2 - sig.values[i, j] / (2 * dt)
        expected = 0.0
        # equation k-1: E^{k} enters with +a_plus
        expected += lam_snaps[k - 1, i, j] * w[i, j] * a_plus * delta
        # equation k: -a_mid at the node, minus the 5-point Laplacian row
        expected += lam_snaps[k, i, j] * w[i, j] * (-a_mid + 4.0 / h**2) * delta
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            expected += lam_snaps[k, i + di, j + dj] * w[i + di, j + dj] * (-delta / h**2)
        # equation k+1: E^{k} enters with +a_minus
        expected += lam_snaps[k + 1, i, j] * w[i, j] * a_minus * delta
        expected *= dt

        assert (L_pert - F_pert) == pytest.approx(expected, abs=1e-12 * max(1.0, abs(expected)))


class TestDecompositionIdentity:
    def test_identical_pairs(self, small_grid):
        eps, sig = truth_pair(small_grid)
        src, bc = SourceSpec(), BcConfig()
        obs = extract_trace(solve_forward(small_grid, eps, sig, src, bc), ALL_SIDES)
        reg = reg_for(small_grid)
        r = decomposition_identity_check(eps, sig, eps, sig, obs, reg, 0.0, 0.0, src, bc)
        assert r <= 1e-12

    @pytest.mark.parametrize("gammas", [(0.0, 0.0), (0.1, 0.2)])
    def test_random_pairs(self, medium_grid, gammas):
        rng = np.random.default_rng(10)
        src, bc = SourceSpec(), BcConfig()
        eps_t, sig_t = truth_pair(medium_grid)
        obs = extract_trace(solve_forward(medium_grid, eps_t, sig_t, src, bc), ALL_SIDES)
        reg = reg_for(medium_grid)
        for _ in range(3):
            eps_a = smooth_random_coefficient(medium_grid, rng, Role.EPSILON)
            sig_a = smooth_random_coefficient(medium_grid, rng, Role.SIGMA)
            eps_b = smooth_random_coefficient(medium_grid, rng, Role.EPSILON)
            sig_b = smooth_random_coefficient(medium_grid, rng, Role.SIGMA)
            sim = extract_trace(solve_forward(medium_grid, eps_a, sig_a, src, bc), ALL_SIDES)
            F = tikhonov(sim, obs, eps_a, sig_a, reg, *gammas)
            r = decomposition_identity_check(
                eps_a, sig_a, eps_b, sig_b, obs, reg, *gammas, src, bc
            )
            assert r <= 1e-10 * (1.0 + abs(F))


class TestErrorMetrics:
    def test_exact_iterate_gives_zero(self, small_grid):
        eps, sig = truth_pair(small_grid)
        sim = const_trace(small_grid, ALL_SIDES, 1.0)
        m = error_metrics(eps, sig, eps, sig, sim, sim)
        assert m.e_eps_l2 == 0.0 and m.e_eps_sup == 0.0
        assert m.e_sigma_l2 == 0.0 and m.e_sigma_sup == 0.0
        assert m.e_E_l2 == 0.0 and m.e_E_sup == 0.0

    def test_doubled_field_gives_unit_relative_error(self, small_grid):
        eps, sig = truth_pair(small_grid)
        eps2 = eps.with_values(2.0 * eps.values)
        sim = const_trace(small_grid, ALL_SIDES, 1.0)
        m = error_metrics(eps2, sig, eps, sig, sim, sim)
        assert m.e_eps_l2 == pytest.approx(1.0, abs=1e-14)

    def test_single_node_sup_error(self, small_grid):
        eps = constant_coefficient(small_grid, 4.0, Role.EPSILON)
        sig = constant_coefficient(small_grid, 1.0, Role.SIGMA)
        bumped = eps.values.copy()
        bumped[3, 3] += 0.5
        eps_b = eps.with_values(bumped)
        sim = const_trace(small_grid, ALL_SIDES, 1.0)
        m = error_metrics(eps_b, sig, eps, sig, sim, sim)
        assert m.e_eps_sup == pytest.approx(0.125, abs=1e-15)

    def test_zero_reference_rejected(self, small_grid):
        zero = constant_coefficient(small_grid, 0.0, Role.EPSILON)
        one = constant_coefficient(small_grid, 1.0, Role.EPSILON)
        sim = const_trace(small_grid, ALL_SIDES, 1.0)
        with pytest.raises(ValueError):
            error_metrics(one, one, zero, one, sim, sim)
        with pytest.raises(ValueError):
            error_metrics(
                one, one, one, one,
                const_trace(small_grid, ALL_SIDES, 0.0),  # zero simulated trace
                const_trace(small_grid, ALL_SIDES, 1.0),
            )


def test_gamma_schedule():
    g = build_grid(8, 8)
    reg = RegularizationParams(
        gamma_eps0=0.1, gamma_sigma0=0.1, p=0.5,
        eps_prior=constant_coefficient(g, 1.0, Role.EPSILON),
        sigma_prior=constant_coefficient(g, 1.0, Role.SIGMA),
    )
    assert reg.at_iteration(0) == (0.1, 0.1)
    assert reg.at_iteration(3) == (pytest.approx(0.05, abs=0), pytest.approx(0.05, abs=0))


def test_regularization_params_validated(small_grid):
    prior = constant_coefficient(small_grid, 1.0, Role.EPSILON)
    sprior = constant_coefficient(small_grid, 1.0, Role.SIGMA)
    with pytest.raises(ValueError):
        RegularizationParams(-0.1, 0.0, 0.5, prior, sprior)
    with pytest.raises(ValueError):
        RegularizationParams(0.1, 0.1, 0.0, prior, sprior)
    with pytest.raises(ValueError):
        RegularizationParams(0.1, 0.1, 1.5, prior, sprior)
