import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import optimize

from hestonis import varopt
from hestonis.drift_bs import call_curve
from hestonis.drift_ldp import (
    LdpMode,
    atom_coefficients,
    integrate_psi_controlled,
    ldp_optimum,
    ldp_paths,
    ldp_problem,
    ldp_schedule,
    psi_from_a,
    riccati_solve,
    _family_evaluator,
    _fine_knots,
)
from hestonis.errors import OptimError
from hestonis.model import TimeGrid, psi_deterministic
from hestonis.payoff import (
    PayoffKind,
    WeightPath,
    european_weight,
    geometric_weight,
    make_payoff,
)
from hestonis.selftest import riccati_reference_constant_alpha


@pytest.fixture(scope="module")
def alpha():
    return geometric_weight(1.0)


class TestRiccati:
    def test_zero_beta_small_time_stays_zero(self, params, grid, alpha):
        fam = riccati_solve(1e-14, 0.0, alpha, params, grid, LdpMode.SMALL_TIME)
        assert not fam.blown_up
        assert np.abs(fam.a_fine).max() <= 1e-12

    @pytest.mark.parametrize("mode", [LdpMode.SMALL_NOISE, LdpMode.SMALL_TIME])
    @pytest.mark.parametrize("beta,a0", [(0.8, 0.3), (2.5, -0.6), (6.0, 1.2)])
    def test_rk4_matches_separable_solution(self, params, grid, mode, beta, a0):
        # independent oracle: the tanh/tan closed form for constant weight
        fam = riccati_solve(beta, a0, european_weight(1.0), params, grid, mode)
        ref = riccati_reference_constant_alpha(
            beta, a0, 1.0, params, grid, mode, _fine_knots(grid)
        )
        keep = np.isfinite(ref) & (np.abs(ref) < 1e5)
        assert not fam.blown_up
        assert np.abs(fam.a_fine[keep] - ref[keep]).max() <= 1e-6

    def test_decaying_branch_is_self_limiting(self, params, grid, alpha):
        fam = riccati_solve(1.0, 1.0e4, alpha, params, grid, LdpMode.SMALL_NOISE)
        assert not fam.blown_up
        assert np.isfinite(fam.a_fine).all()

    def test_escaping_branch_raises_flag(self, params, grid, alpha):
        fam = riccati_solve(1.0, -1.0e4, alpha, params, grid, LdpMode.SMALL_NOISE)
        assert fam.blown_up


class TestPsiFromA:
    def test_zero_a_recovers_deterministic_path(self, params, grid):
        a = np.zeros(grid.n_steps * 4 + 1)
        psi = psi_from_a(a, params, grid, LdpMode.SMALL_NOISE)
        ref = params.theta + (params.v0 - params.theta) * np.exp(
            -params.kappa * _fine_knots(grid)
        )
        assert_allclose(psi, ref, rtol=1e-5)

    def test_zero_a_small_time_is_flat(self, params, grid):
        a = np.zeros(grid.n_steps * 4 + 1)
        psi = psi_from_a(a, params, grid, LdpMode.SMALL_TIME)
        assert_allclose(psi, params.v0, rtol=1e-14)

    def test_kappa_over_xi_gives_linear_growth(self, params, grid):
        a = np.full(grid.n_steps * 4 + 1, params.kappa / params.xi)
        psi = psi_from_a(a, params, grid, LdpMode.SMALL_NOISE)
        ref = params.v0 + params.kappa * params.theta * _fine_knots(grid)
        assert_allclose(psi, ref, rtol=1e-6)


def test_control_roundtrip_recovers_inputs(params, grid):
    # forward map (x1, x2) -> (phi, psi), then the inverse transformation
    gen = np.random.Generator(np.random.Philox(123))
    t = grid.knots
    xdot1 = 0.4 * np.sin(2.0 * np.pi * t) + 0.1
    xdot2 = 0.3 * np.cos(np.pi * t)
    psi = integrate_psi_controlled(xdot1, params, grid, LdpMode.SMALL_NOISE)
    assert psi is not None
    f_psi = params.kappa * (params.theta - psi)
    g_psi = params.xi * np.sqrt(psi)
    psi_dot = f_psi + g_psi * xdot1
    phi_dot = -0.5 * psi + np.sqrt(psi) * (
        params.rho * xdot1 + params.rho_bar * xdot2
    )
    u = (psi_dot - f_psi) / g_psi
    z = (phi_dot + 0.5 * psi) / np.sqrt(psi)
    assert np.abs(u - xdot1).max() <= 1e-10
    assert np.abs((z - params.rho * u) / params.rho_bar - xdot2).max() <= 1e-10


def test_objective_at_vanishing_control(params, grid, alpha):
    # beta -> 0, A0 = 0: value tends to F at the deterministic path
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 40.0, 1.0)
    val = _family_evaluator(spec, alpha, params, grid, LdpMode.SMALL_NOISE)(1e-10, 0.0)[1]
    psi = psi_deterministic(params, grid)
    a = alpha.on_grid(grid)
    y_det = float((a[:-1] * (-0.5 * psi[:-1])).sum() * grid.dt)
    F, _, _ = call_curve(spec, params, 0.0)
    assert val == pytest.approx(F(y_det), abs=1e-6)


def test_out_of_money_optimum_beats_zero_control(params, grid, alpha):
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 60.0, 1.0)
    _, _, val = ldp_optimum(spec, alpha, params, grid, LdpMode.SMALL_NOISE)
    score = _family_evaluator(spec, alpha, params, grid, LdpMode.SMALL_NOISE)
    assert val > score(1e-8, 0.0)[1]


def test_first_integral_residual_at_optimum(params, grid, alpha):
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 55.0, 1.0)
    a0_s, beta_s, _ = ldp_optimum(spec, alpha, params, grid, LdpMode.SMALL_NOISE)
    paths = ldp_paths(beta_s, a0_s, alpha, params, grid, LdpMode.SMALL_NOISE)
    a = alpha.on_grid(grid)
    resid = (paths.z - params.rho * paths.u) / params.rho_bar**2 \
        - 0.5 * beta_s * a * np.sqrt(paths.psi)
    assert np.abs(resid).max() <= 1e-12
    assert np.all(paths.psi > 0.0)


def _multistart_reference(spec, alpha, params, grid, mode):
    """(a0, beta, value) by Nelder-Mead on (A0, log beta) from 5 A0 x 4 beta
    starts of 90 evaluations each, then a 400-evaluation polish of the best."""
    score = _family_evaluator(spec, alpha, params, grid, mode)

    def neg(v):
        return -score(math.exp(v[1]), v[0])[0]

    best = None
    for a0 in (-2.0, -0.5, 0.0, 0.5, 2.0):
        for beta in (0.1, 1.0, 5.0, 20.0):
            res = optimize.minimize(neg, np.array([a0, math.log(beta)]), method="Nelder-Mead",
                                    options={"maxfev": 90, "xatol": 1e-6, "fatol": 1e-9})
            if best is None or res.fun < best.fun:
                best = res
    res = optimize.minimize(neg, best.x, method="Nelder-Mead",
                            options={"maxfev": 400, "xatol": 1e-8, "fatol": 1e-11})
    if res.fun < best.fun:
        best = res
    beta_s = math.exp(best.x[1])
    _, val = score(beta_s, best.x[0])
    if not np.isfinite(val):
        raise OptimError("every (A0, beta) start was inadmissible")
    return float(best.x[0]), beta_s, float(val)


_CALLS = (PayoffKind.GEOMETRIC_ASIAN_CALL, PayoffKind.EUROPEAN_CALL)


@pytest.mark.parametrize("kind", _CALLS)
@pytest.mark.parametrize("n_steps", [16, 64])
def test_optimum_matches_multistart_reference(params, n_steps, kind):
    grid = TimeGrid(n_steps, 1.0)
    for mode in LdpMode:
        for strike in (30.0, 50.0, 70.0, 85.0):
            spec = make_payoff(kind, strike, 1.0)
            _, beta, val = ldp_optimum(spec, spec.weight, params, grid, mode)
            _, beta_ref, val_ref = _multistart_reference(spec, spec.weight, params, grid, mode)
            assert abs(val - val_ref) <= 1e-12, (mode, strike)
            assert abs(beta - beta_ref) <= 1e-6 * beta_ref, (mode, strike)


def test_far_strike_reaches_a_member_the_start_grid_missed(params, alpha):
    # K = 1000 on 16 steps: no start of the (A0, beta) grid walks out of the
    # zero-payoff plateau, while the beta scan reaches an admissible member
    grid = TimeGrid(16, 1.0)
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 1000.0, 1.0)
    with pytest.raises(OptimError):
        _multistart_reference(spec, alpha, params, grid, LdpMode.SMALL_NOISE)
    a0_s, beta_s, val = ldp_optimum(spec, alpha, params, grid, LdpMode.SMALL_NOISE)
    score = _family_evaluator(spec, alpha, params, grid, LdpMode.SMALL_NOISE)
    assert np.isfinite(val) and score(beta_s, a0_s)[1] == val


@pytest.mark.parametrize("mode", list(LdpMode))
def test_unreachable_strike_raises(params, mode):
    # a weight that reads no path keeps the aggregated return at 0 < log(K/s0)
    flat = WeightPath(alpha=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                      alpha_dot=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                      integral=0.0)
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 2.0 * params.s0, 1.0)
    with pytest.raises(OptimError, match="no admissible"):
        ldp_optimum(spec, flat, params, TimeGrid(16, 1.0), mode)


@pytest.mark.parametrize("kind", _CALLS)
@pytest.mark.parametrize("mode", list(LdpMode))
def test_transversality_residual_at_optimum_is_an_o_dt_gap(params, grid, kind, mode):
    """|A(T) - rho beta alpha(T)/2| at the discrete optimum.

    The search starts on the continuous condition and the polish leaves it by
    a first-order gap: at K = 40-85 the residual reads up to 5.4e-2 on 252
    steps (European small-time, K = 85), and 3.9-4.1x that on 64 steps.
    """
    coarse = TimeGrid(64, 1.0)
    for strike in (40.0, 55.0, 70.0, 85.0):
        spec = make_payoff(kind, strike, 1.0)
        resid = []
        for g in (grid, coarse):
            a0_s, beta_s, _ = ldp_optimum(spec, spec.weight, params, g, mode)
            fam = riccati_solve(beta_s, a0_s, spec.weight, params, g, mode)
            a_end = 0.5 * params.rho * beta_s * float(spec.weight.alpha(g.t_end))
            resid.append(abs(fam.a_fine[-1] - a_end))
        assert resid[0] <= 0.075, strike
        assert 3.5 * resid[0] <= resid[1] <= 4.5 * resid[0], strike


def _small_noise_paths(spec, alpha, params, grid):
    a0_s, beta_s, _ = ldp_optimum(spec, alpha, params, grid, LdpMode.SMALL_NOISE)
    return ldp_paths(beta_s, a0_s, alpha, params, grid, LdpMode.SMALL_NOISE)


def test_channel_reconstruction_identity(params, grid, alpha):
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 55.0, 1.0)
    paths = _small_noise_paths(spec, alpha, params, grid)
    d = ldp_schedule(paths, LdpMode.SMALL_NOISE)
    lhs = params.rho * d.h1_dot + params.rho_bar * d.h2_dot
    assert np.abs(lhs - paths.z).max() <= 1e-12


def test_drift_norm_decreases_toward_zero_strike(params, grid, alpha):
    norms = []
    for strike in (45.0, 35.0, 25.0):
        spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, strike, 1.0)
        d = ldp_schedule(_small_noise_paths(spec, alpha, params, grid), LdpMode.SMALL_NOISE)
        norms.append(float(((d.h1_dot[:-1] ** 2 + d.h2_dot[:-1] ** 2)).sum() * grid.dt))
    assert norms[0] > norms[1] > norms[2]


def test_uncorrelated_channels_match_oracle(grid, alpha):
    from dataclasses import replace
    from hestonis.model import EQUITY_PARAMS

    p0 = replace(EQUITY_PARAMS, rho=1e-12)
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 55.0, 1.0)
    a0_s, beta_s, _ = ldp_optimum(spec, alpha, p0, grid, LdpMode.SMALL_NOISE)
    paths = ldp_paths(beta_s, a0_s, alpha, p0, grid, LdpMode.SMALL_NOISE)
    # channels decouple: h1 = U, h2 = Z
    assert np.abs(paths.xdot2 - paths.z).max() <= 1e-10
    problem = ldp_problem(spec, p0, grid, LdpMode.SMALL_NOISE, alpha=alpha,
                          extra_atoms=[(paths.u, paths.xdot2)])
    cfc = atom_coefficients(problem, 2)
    cf = problem.value(cfc)
    _, vv = varopt.solve(problem, init=cfc, budget=2500)
    assert vv >= cf - 1e-6
    assert vv - cf <= 2e-3 * max(1.0, abs(cf))


def test_closed_form_drift_is_locally_optimal_in_hat_basis(params, grid, alpha):
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 50.0, 1.0)
    a0_s, beta_s, _ = ldp_optimum(spec, alpha, params, grid, LdpMode.SMALL_NOISE)
    paths = ldp_paths(beta_s, a0_s, alpha, params, grid, LdpMode.SMALL_NOISE)
    problem = ldp_problem(spec, params, grid, LdpMode.SMALL_NOISE, alpha=alpha,
                          extra_atoms=[(paths.u, paths.xdot2)])
    cfc = atom_coefficients(problem, 2)
    # probes pick up at most the O(dt^2) discretization gradient: no 1e-3
    # perturbation may improve the value by more than 1e-6 of its scale,
    # neither at the raw embedding nor after polishing
    for point in (cfc, varopt.solve(problem, init=cfc, budget=3000)[0]):
        base = problem.value(point)
        gen = np.random.Generator(np.random.Philox(7))
        for _ in range(64):
            probe = np.array(point, dtype=float)
            probe[int(gen.integers(0, probe.size))] += (-1.0) ** int(gen.integers(2)) * 1e-3
            assert problem.value(probe) <= base + 1e-6 * max(1.0, abs(base))
