import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hestonis.drift_bs import call_curve
from hestonis.errors import DomainError
from hestonis.model import TimeGrid
from hestonis.payoff import (
    PayoffKind,
    PayoffSpec,
    evaluate,
    log_forward,
    log_vol_indicator,
    make_payoff,
    stored_sum,
)


def _geometric(x, params, strike, grid):
    return evaluate(make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, strike, grid.t_end),
                    params, grid, x)


def _vol_indicator(v, s, strike, grid, params):
    """The variance-indicator payoff of the variance path ``v`` and spot path ``s``."""
    x = np.log(s / params.s0) - params.r * grid.knots
    return evaluate(PayoffSpec(PayoffKind.VOL_INDICATOR_SWAP, strike), params, grid, x, v)


def test_flat_path_at_the_money(params, grid):
    flat = np.zeros(grid.n_steps + 1)
    value = _geometric(flat, params, 50.0, grid)
    assert value == pytest.approx(50.0 * np.exp(0.025) - 50.0, abs=1e-12)
    assert value == pytest.approx(1.2658, abs=5e-5)


def test_flat_path_zero_strike(params, grid):
    flat = np.zeros(grid.n_steps + 1)
    assert _geometric(flat, params, 0.0, grid) == pytest.approx(
        50.0 * np.exp(0.025), abs=1e-12
    )


def test_zero_noise_euler_path_two_discretizations_agree(params, grid):
    # deterministic scheme path: V from the truncation recursion, dX = -V/2 dt
    dt = grid.dt
    v = np.empty(grid.n_steps + 1)
    v[0] = params.v0
    for i in range(grid.n_steps):
        v[i + 1] = v[i] + params.kappa * (params.theta - v[i]) * dt
    x = np.concatenate([[0.0], np.cumsum(-0.5 * v[:-1] * dt)])

    via_weight = _geometric(x, params, 50.0, grid)
    # same payoff through the average of the log path (right-endpoint sum,
    # the summation-by-parts twin of the left-endpoint weighted increments)
    avg = x[1:].sum() * dt / grid.t_end
    via_average = max(params.s0 * np.exp(0.5 * params.r) * np.exp(avg) - 50.0, 0.0)
    assert via_weight == pytest.approx(via_average, abs=1e-12)


def test_european_reads_terminal_value(params, grid):
    x = np.zeros(grid.n_steps + 1)
    x[-1] = 0.1
    spec = make_payoff(PayoffKind.EUROPEAN_CALL, 40.0, grid.t_end)
    assert evaluate(spec, params, grid, x) == pytest.approx(50.0 * np.exp(0.05 + 0.1) - 40.0)


class TestVolIndicator:
    def test_indicator_always_on(self, params):
        g = TimeGrid(252, 1.0)
        v = np.full(g.n_steps + 1, 0.04)
        s = np.full(g.n_steps + 1, 50.0)
        assert _vol_indicator(v, s, 10.0, g, params) == pytest.approx(0.04)

    def test_indicator_always_off(self, params):
        g = TimeGrid(252, 1.0)
        v = np.full(g.n_steps + 1, 0.04)
        s = np.full(g.n_steps + 1, 50.0)
        assert _vol_indicator(v, s, 100.0, g, params) == 0.0

    def test_crossing_at_half_horizon(self, params):
        g = TimeGrid(2, 1.0)
        v = np.full(3, 0.04)
        s = np.array([60.0, 40.0, 40.0])  # on at t0, off at t1
        assert _vol_indicator(v, s, 50.0, g, params) == pytest.approx(0.02)

    def test_log_functional_is_the_log_of_the_path_payoff(self, params):
        g = TimeGrid(64, 1.0)
        gen = np.random.default_rng(11)
        vanished = 0
        for _ in range(200):
            phi_dot = gen.normal(0.0, 0.6, g.n_steps + 1)
            v = gen.uniform(0.01, 0.2, g.n_steps + 1)
            strike = float(gen.uniform(10.0, 70.0))
            x = np.concatenate([[0.0], np.cumsum(phi_dot[:-1] * g.dt)])
            s = params.s0 * np.exp(params.r * g.knots + x)
            want = float((v[:-1] * (s[:-1] >= strike)).sum() * g.dt)
            got = log_vol_indicator(phi_dot, v, params, strike, g)
            if want > 0.0:
                assert got == np.log(want)  # bit for bit
            else:
                assert got == -np.inf
                vanished += 1
        assert 0 < vanished < 200


def _log_payoff(spec, y, params):
    """F(y) = log(e^{m+y} - K) and F'(y) = e^{m+y}/(e^{m+y} - K) of a call spec."""
    F, Fp, _ = call_curve(spec, params)
    return F(y), Fp(y)


class TestLogPayoff:
    def test_ratio_two_point(self, params):
        spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 50.0, 1.0)
        m = log_forward(spec, params)
        y = np.log(2.0 * 50.0) - m
        _, fp = _log_payoff(spec, y, params)
        assert fp == pytest.approx(2.0, abs=1e-12)

    def test_deep_in_the_money_slope(self, params):
        spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 50.0, 1.0)
        _, fp = _log_payoff(spec, 8.0, params)
        assert fp == pytest.approx(1.0, abs=1e-3)

    def test_at_the_money_values(self, params):
        spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 50.0, 1.0)
        f0, fp0 = _log_payoff(spec, 0.0, params)
        gap = 50.0 * np.exp(0.025) - 50.0
        assert f0 == pytest.approx(np.log(gap), abs=1e-12)
        assert fp0 == pytest.approx((gap + 50.0) / gap, abs=1e-12)
        # rounded anchors
        assert f0 == pytest.approx(0.23570, abs=5e-5)
        assert fp0 == pytest.approx(40.501, abs=5e-3)

    def test_zero_payoff_region_is_minus_inf(self, params):
        spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 50.0, 1.0)
        f, fp = _log_payoff(spec, -2.0, params)
        assert f == -np.inf and fp == np.inf

    def test_non_call_kind_raises(self, params):
        spec = make_payoff(PayoffKind.VOL_INDICATOR_SWAP, 50.0, 1.0)
        with pytest.raises(DomainError):
            _log_payoff(spec, 0.0, params)


@given(
    y=st.floats(-0.4, 2.0),
    strike=st.floats(20.0, 80.0),
)
@settings(max_examples=100, deadline=None)
def test_exp_of_log_payoff_matches_payoff(params, y, strike):
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, strike, 1.0)
    m = log_forward(spec, params)
    payoff = np.exp(m + y) - strike
    if payoff <= 1e-9:
        return
    f, _ = _log_payoff(spec, y, params)
    assert np.exp(f) == pytest.approx(payoff, rel=1e-12)


@given(y=st.floats(-0.2, 1.5), strike=st.floats(20.0, 70.0))
@settings(max_examples=100, deadline=None)
def test_log_payoff_slope_matches_finite_differences(params, y, strike):
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, strike, 1.0)
    m = log_forward(spec, params)
    h = 1e-6
    if np.exp(m + y - h) - strike <= 1e-6:
        return
    _, fp = _log_payoff(spec, y, params)
    f_hi, _ = _log_payoff(spec, y + h, params)
    f_lo, _ = _log_payoff(spec, y - h, params)
    assert fp == pytest.approx((f_hi - f_lo) / (2.0 * h), rel=1e-5)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_weighted_increments_equal_average_by_parts(params, seed):
    # sum alpha(t_i) dX_i == (dt/T) sum_{i>=1} X_i for any path with X_0 = 0
    g = TimeGrid(36, 1.0)
    gen = np.random.Generator(np.random.Philox(seed))
    x = np.concatenate([[0.0], np.cumsum(gen.normal(0.0, 0.05, g.n_steps))])
    lhs = stored_sum(make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 50.0, 1.0), params, g, x)
    rhs = x[1:].sum() * g.dt / g.t_end
    assert lhs == pytest.approx(rhs, abs=1e-12)
