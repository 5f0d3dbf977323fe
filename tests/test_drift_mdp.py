import time
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate
from scipy.stats import gamma as gamma_dist

from hestonis import varopt
from hestonis.drift_bs import bs_beta, bs_root, bs_scale, call_curve
from hestonis.drift_mdp import (
    _fbar_curve,
    _log_reduction,
    gamma_moments,
    large_time_constants,
    large_time_problem,
    mdp_auxiliary,
    mdp_large_time_drift,
    mdp_log_drift,
    mdp_log_problem,
    mdp_price_drift,
    mdp_price_problem,
    mdp_small_time_drift,
)
from hestonis.model import EQUITY_PARAMS, TimeGrid, psi_deterministic
from hestonis.payoff import PayoffKind, geometric_weight, make_payoff


@pytest.fixture(scope="module")
def alpha():
    return geometric_weight(1.0)


@pytest.fixture(scope="module")
def spec():
    return make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 50.0, 1.0)


class TestAuxiliary:
    def test_integrating_factor_is_linear(self, params, grid, alpha):
        aux = mdp_auxiliary(alpha, params, grid)
        assert_allclose(aux.b_path, -params.kappa * grid.knots, atol=1e-15)
        assert aux.b_path[0] == 0.0 and aux.gamma[0] == 0.0

    def test_gamma_horizon_value_against_quadrature(self, params, grid, alpha):
        aux = mdp_auxiliary(alpha, params, grid)
        ref, _ = integrate.quad(lambda s: np.exp(-2.0 * s) * (1.0 - s), 0.0, 1.0)
        assert aux.gamma[-1] == pytest.approx(ref, abs=1e-5)
        assert aux.gamma[-1] == pytest.approx(0.28383, abs=1e-4)

    def test_u_vanishes_at_horizon(self, params, grid, alpha):
        aux = mdp_auxiliary(alpha, params, grid)
        assert aux.u[-1] == 0.0


class TestLogPriceMode:
    def test_zero_control_value_is_centered_payoff(self, params, grid, alpha, spec):
        problem = mdp_log_problem(spec, params, grid, alpha=alpha)
        F, _, _ = _fbar_curve(spec, alpha, params, grid)
        assert problem.value(np.zeros(problem.n_coeffs)) == float(F(0.0))

    def test_channel_loadings(self, params, grid, alpha, spec):
        d = mdp_log_drift(spec, alpha, params, grid)
        aux = mdp_auxiliary(alpha, params, grid)
        a = alpha.on_grid(grid)
        sqp = np.sqrt(aux.psi)
        # recover beta from the orthogonal channel, then check channel one
        beta = d.h2_dot[0] / (0.5 * params.rho_bar * a[0] * sqp[0])
        want_h1 = beta * (aux.u + 0.5 * params.rho * a * sqp)
        assert_allclose(d.h1_dot, want_h1, atol=1e-12)
        # reconstruction rho h1 + rho_bar h2 = Z = beta (rho u + alpha sqrt(psi)/2)
        z = beta * (params.rho * aux.u + 0.5 * a * sqp)
        assert np.abs(params.rho * d.h1_dot + params.rho_bar * d.h2_dot - z).max() <= 1e-12

    def test_uncorrelated_channels_decouple(self, grid, alpha, spec):
        p0 = replace(EQUITY_PARAMS, rho=1e-14)
        d = mdp_log_drift(spec, alpha, p0, grid)
        aux = mdp_auxiliary(alpha, p0, grid)
        a = alpha.on_grid(grid)
        beta = d.h2_dot[0] / (0.5 * a[0] * np.sqrt(aux.psi[0]))
        assert_allclose(d.h1_dot, beta * aux.u, atol=1e-12)

    def test_stationarity_of_scale(self, params, grid, alpha, spec):
        _, _, _, _, s1, s2 = _log_reduction(alpha, params, grid)
        d = mdp_log_drift(spec, alpha, params, grid)
        aux = mdp_auxiliary(alpha, params, grid)
        a = alpha.on_grid(grid)
        beta = d.h2_dot[0] / (0.5 * params.rho_bar * a[0] * np.sqrt(aux.psi[0]))
        _, fp, _ = _fbar_curve(spec, alpha, params, grid)
        assert abs(s1 * fp(beta * s1) - beta * s2) <= 1e-9

    def test_oracle_agreement(self, params, grid, alpha, spec):
        d = mdp_log_drift(spec, alpha, params, grid)
        problem = mdp_log_problem(spec, params, grid, alpha=alpha,
                                  extra_atoms=[(d.h1_dot, d.h2_dot)])
        m1 = problem.basis[0].shape[0]
        cfc = np.zeros(problem.n_coeffs)
        cfc[2] = cfc[m1 + 2] = 1.0
        cf = problem.value(cfc)
        _, vv = varopt.solve(problem, init=cfc, budget=2500)
        assert vv >= cf - 1e-6
        assert vv - cf <= 2e-3 * max(1.0, abs(cf))


class TestPriceMode:
    def test_profile_is_weighted_vol_in_both_channels(self, params, grid, alpha, spec):
        d = mdp_price_drift(spec, alpha, params, grid)
        psi = psi_deterministic(params, grid)
        a = alpha.on_grid(grid)
        b = d.h2_dot[0] / (params.rho_bar * a[0] * np.sqrt(psi[0]))
        assert_allclose(d.h1_dot, params.rho * b * a * np.sqrt(psi), atol=1e-12)
        assert_allclose(d.h2_dot, params.rho_bar * b * a * np.sqrt(psi), atol=1e-12)

    def test_uncorrelated_price_drift_has_no_variance_channel(self, grid, alpha, spec):
        p0 = replace(EQUITY_PARAMS, rho=1e-14)
        d = mdp_price_drift(spec, alpha, p0, grid)
        assert np.abs(d.h1_dot).max() <= 1e-12

    def test_scale_matches_deterministic_vol_root(self, params, grid, alpha, spec):
        # same scalar problem as the sigma = sqrt(psi) baseline
        sigma = np.sqrt(psi_deterministic(params, grid))
        red = bs_beta(spec, sigma, alpha, grid, params)
        d = mdp_price_drift(spec, alpha, params, grid)
        a = alpha.on_grid(grid)
        b = d.h2_dot[0] / (params.rho_bar * a[0] * sigma[0])
        assert b == pytest.approx(red.beta_star, rel=1e-10)

    def test_oracle_agreement(self, params, grid, alpha, spec):
        d = mdp_price_drift(spec, alpha, params, grid)
        problem = mdp_price_problem(spec, params, grid, alpha,
                                    extra_atoms=[(d.h1_dot, d.h2_dot)])
        m1 = problem.basis[0].shape[0]
        cfc = np.zeros(problem.n_coeffs)
        cfc[1] = cfc[m1 + 1] = 1.0
        cf = problem.value(cfc)
        _, vv = varopt.solve(problem, init=cfc, budget=2500)
        assert vv >= cf - 1e-6
        assert vv - cf <= 2e-3 * max(1.0, abs(cf))


class TestSmallTimeMode:
    def test_flat_variance_feed(self, params, grid, alpha, spec):
        d = mdp_small_time_drift(spec, alpha, params, grid)
        a = alpha.on_grid(grid)
        b = d.h2_dot[0] / (params.rho_bar * a[0] * np.sqrt(params.v0))
        assert_allclose(
            d.h2_dot, params.rho_bar * b * a * np.sqrt(params.v0), atol=1e-12
        )

    def test_weighted_moment_factorizes(self, params, grid, alpha, spec):
        # frozen at v0, the root's moment int (alpha sigma)^2 is v0 int alpha^2
        sigma_flat = np.full(grid.n_steps + 1, np.sqrt(params.v0))
        red = bs_beta(spec, sigma_flat, alpha, grid, params)
        a = red.alpha
        _, _, c = call_curve(spec, params, 0.5 * params.v0 * float(a[:-1].sum() * grid.dt))
        v = params.v0 * float((a[:-1] ** 2).sum() * grid.dt)
        assert red.beta_star == pytest.approx(bs_root(v, c), rel=1e-12)


class TestLargeTime:
    def test_gamma_moments_against_quadrature(self, params):
        ey, esq = gamma_moments(params)
        assert ey == params.theta
        shape = 2.0 * params.kappa * params.theta / params.xi**2
        rate = 2.0 * params.kappa / params.xi**2
        ref, _ = integrate.quad(
            lambda y: np.sqrt(y) * gamma_dist.pdf(y, shape, scale=1.0 / rate),
            0.0, np.inf,
        )
        assert abs(esq - ref) <= 1e-8
        assert esq == pytest.approx(0.29587, abs=5e-5)

    def test_vol_of_vol_limit_concentrates(self, params):
        tight = replace(params, xi=1e-3)
        _, esq = gamma_moments(tight)
        assert esq == pytest.approx(np.sqrt(params.theta), abs=1e-3)

    def test_constants_values(self, params):
        consts = large_time_constants(params)
        c = params.rho - params.xi / (2.0 * params.kappa)
        assert c == pytest.approx(-0.55)
        _, esq = gamma_moments(params)
        want_nu = (c * c + params.rho_bar**2) * (params.theta - 0.5 * esq * esq)
        assert consts.nu == pytest.approx(want_nu, abs=1e-15)
        assert consts.nu == pytest.approx(0.048665, abs=2e-5)
        assert_allclose(consts.bvec, [0.081364, -0.128126], atol=2e-5)
        assert consts.nu > 0.0

    def test_loading_cancellation(self, params):
        tuned = replace(params, rho=params.xi / (2.0 * params.kappa))
        consts = large_time_constants(tuned)
        assert consts.bvec[0] == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_coefficient_scaling(self, params, grid, alpha):
        # far out of the money the slope is ~1, so c* scales like 1/nu
        spec80 = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 80.0, 1.0)
        _, _, c_thr = _fbar_curve(spec80, alpha, params, grid)
        w = float((alpha.on_grid(grid)[:-1] ** 2).sum() * grid.dt)
        c1 = bs_scale(w, 0.5 * 0.02 * w, c_thr)
        c4 = bs_scale(w, 0.5 * 0.08 * w, c_thr)
        assert c4 / c1 == pytest.approx(0.25, rel=0.02)

    def test_drift_shape_and_direction(self, params, grid, alpha, spec):
        d = mdp_large_time_drift(spec, alpha, params, grid)
        a = alpha.on_grid(grid)
        ratio = d.h2_dot[:-1] / d.h1_dot[:-1]
        consts = large_time_constants(params)
        assert_allclose(ratio, consts.bvec[1] / consts.bvec[0], atol=1e-12)
        # pushes the price channel toward the payoff for a call
        assert params.rho * d.h1_dot[0] + params.rho_bar * d.h2_dot[0] > 0.0
        assert_allclose(d.h1_dot[:-1] / a[:-1], d.h1_dot[0] / a[0], atol=1e-10)

    def test_scalar_solution_matches_oracle(self, params, grid, alpha, spec):
        consts = large_time_constants(params)
        nu_dual = 1.0 / consts.nu
        b_dual = -consts.bvec / consts.nu
        d = mdp_large_time_drift(spec, alpha, params, grid)
        a = alpha.on_grid(grid)
        c_star = d.h1_dot[0] / (b_dual[0] * a[0])
        problem = large_time_problem(spec, params, grid, alpha, nu_dual)
        cfc = np.zeros(problem.n_coeffs)
        cfc[0] = c_star
        cf = problem.value(cfc)
        _, vv = varopt.solve(problem, init=cfc, budget=2000)
        assert vv >= cf - 1e-6
        assert vv - cf <= 2e-3 * max(1.0, abs(cf))

    def test_cost_is_comparable_to_scalar_baseline(self, params, grid, alpha, spec):
        sigma = np.sqrt(psi_deterministic(params, grid))
        t0 = time.perf_counter()
        for _ in range(5):
            bs_beta(spec, sigma, alpha, grid, params)
        t_bs = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(5):
            mdp_large_time_drift(spec, alpha, params, grid)
        t_lt = time.perf_counter() - t0
        assert t_lt <= 2.0 * t_bs + 0.05


@pytest.mark.parametrize("n_steps", [16, 252])
@pytest.mark.parametrize("kind", [PayoffKind.GEOMETRIC_ASIAN_CALL, PayoffKind.EUROPEAN_CALL])
def test_scalar_scales_are_stationary(params, n_steps, kind):
    # the scale each closed form emits solves s1 F'(beta s1) = beta s2, with
    # F' the call curve's own derivative
    grid = TimeGrid(n_steps, 1.0)
    consts = large_time_constants(params)
    for strike in (30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0):
        spec = make_payoff(kind, strike, 1.0)
        alpha = spec.weight
        a = alpha.on_grid(grid)
        _, fp, _ = _fbar_curve(spec, alpha, params, grid)

        _, _, u_load, _, s1, s2 = _log_reduction(alpha, params, grid)
        beta = mdp_log_drift(spec, alpha, params, grid).h1_dot[0] / u_load[0]
        assert s1 * fp(beta * s1) == pytest.approx(beta * s2, rel=1e-12, abs=0.0)

        w = float((a[:-1] ** 2).sum() * grid.dt)
        s2_lt = 0.5 * w / consts.nu  # nu_dual = 1 / nu
        b_dual = -consts.bvec[0] / consts.nu
        c_star = mdp_large_time_drift(spec, alpha, params, grid).h1_dot[0] / (b_dual * a[0])
        assert w * fp(c_star * w) == pytest.approx(c_star * s2_lt, rel=1e-12, abs=0.0)
