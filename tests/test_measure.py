import dataclasses

import numpy as np
import pytest

from hestonis.bench import DriftFactory, EstimatorKind, _weighted
from hestonis.errors import DomainError
from hestonis.measure import (
    DriftMode,
    DriftSchedule,
    log_forward_weight,
    log_inverse_weight,
)
from hestonis.model import TimeGrid
from hestonis.payoff import PayoffKind, evaluate, make_payoff
from hestonis.sim import RngSpec, simulate_p, simulate_q


def test_zero_drift_weights_are_exactly_one(params, grid, zero_drift):
    batch = simulate_q(params, grid, 100, RngSpec(1), zero_drift)
    logw = log_inverse_weight(batch, zero_drift)
    assert np.all(logw == 0.0)


def _bs_drift(spec, params, grid, mode=DriftMode.DETERMINISTIC):
    kind = EstimatorKind.BS if mode is DriftMode.DETERMINISTIC else EstimatorKind.BS_A
    drift, _ = DriftFactory(params, grid).build(kind, spec)
    return drift


def _reweighted(batch, spec, params):
    """Payoff on the Q paths and its product with the batch's own weight."""
    g = evaluate(spec, params, batch.grid, batch.x, batch.v)
    return g, _weighted(g, batch.log_inv_weight)[0]


def test_single_step_deterministic_weight(params):
    g = TimeGrid(1, 1.0)
    c, w = 0.8, 0.31
    drift = DriftSchedule(DriftMode.DETERMINISTIC, np.array([c, c]), np.zeros(2))
    batch = simulate_q(params, g, 1, RngSpec(2), drift)
    batch.dw[0, 0] = w
    batch.dw_perp[0, 0] = 0.0
    logw = log_inverse_weight(batch, drift)
    assert logw[0] == pytest.approx(-c * w - 0.5 * c * c * g.dt, abs=1e-15)


def test_inline_weights_match_standalone(params, grid):
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 55.0, 1.0)
    for mode in (DriftMode.DETERMINISTIC, DriftMode.ADAPTIVE):
        drift = _bs_drift(spec, params, grid, mode)
        batch = simulate_q(params, grid, 400, RngSpec(3), drift)
        recomputed = log_inverse_weight(batch, drift)
        np.testing.assert_allclose(batch.log_inv_weight, recomputed, atol=1e-12)


def test_deterministic_weight_adds_the_steps_in_order(params):
    # the reference loop: each channel's steps added one column at a time,
    # whatever the layout of the increments; a BLAS product's bits follow
    # its thread count instead
    grid, n = TimeGrid(40, 1.0), 3_001
    h1, h2 = np.linspace(0.7, -0.4, grid.n_steps + 1), np.linspace(-0.2, 0.5, grid.n_steps + 1)
    drift = DriftSchedule(DriftMode.DETERMINISTIC, h1, h2)
    batch = simulate_q(params, grid, n, RngSpec(12, 3), drift)
    lin = []
    for h, block in ((h1, batch.dw), (h2, batch.dw_perp)):
        acc = np.zeros(n)
        for i in range(grid.n_steps):
            acc += block[:, i] * h[i]
        lin.append(acc)
    quad = float(((h1[:-1] ** 2 + h2[:-1] ** 2) * grid.dt).sum())
    want = -(lin[0] + lin[1]) - 0.5 * quad
    assert np.array_equal(batch.log_inv_weight, want)
    rows = dataclasses.replace(batch, dw=np.ascontiguousarray(batch.dw),
                               dw_perp=np.ascontiguousarray(batch.dw_perp))
    assert np.array_equal(log_inverse_weight(rows, drift), want)


def test_grid_mismatch_rejected(params, grid):
    short = np.zeros(10)
    drift = DriftSchedule(DriftMode.DETERMINISTIC, short, short.copy())
    batch = simulate_p(params, grid, 10, RngSpec(4))
    with pytest.raises(DomainError):
        log_inverse_weight(batch, drift)


def test_nonfinite_schedule_rejected(grid):
    h = np.full(grid.n_steps + 1, np.nan)
    with pytest.raises(DomainError):
        DriftSchedule(DriftMode.DETERMINISTIC, h, np.zeros_like(h))


@pytest.mark.parametrize("mode", [DriftMode.DETERMINISTIC, DriftMode.ADAPTIVE])
def test_weight_martingale_under_base_measure(params, grid, mode):
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 60.0, 1.0)
    drift = _bs_drift(spec, params, grid, mode)
    n = 30_000
    batch = simulate_p(params, grid, n, RngSpec(5))
    z = np.exp(log_forward_weight(batch, drift))
    se = z.std(ddof=1) / np.sqrt(n)
    assert abs(z.mean() - 1.0) <= 4.0 * se


def test_reweighted_payoffs_zero_drift_equals_plain(params, grid, zero_drift):
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 50.0, 1.0)
    batch = simulate_q(params, grid, 300, RngSpec(6), zero_drift)
    g, product = _reweighted(batch, spec, params)
    assert np.array_equal(g, product)
    assert np.all(batch.log_inv_weight == 0.0)


def test_reweighted_flat_path_zero_strike(params, grid, zero_drift):
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 0.0, 1.0)
    batch = simulate_q(params, grid, 2, RngSpec(7), zero_drift)
    batch.x[:] = 0.0
    _, product = _reweighted(batch, spec, params)
    np.testing.assert_allclose(product, 50.0 * np.exp(0.025), atol=1e-10)


def test_importance_sampling_price_matches_classic(params, grid):
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 50.0, 1.0)
    drift = _bs_drift(spec, params, grid)
    n = 30_000
    classic = evaluate(
        spec, params, grid, simulate_p(params, grid, n, RngSpec(8)).x
    )
    batch = simulate_q(params, grid, n, RngSpec(9), drift)
    _, product = _reweighted(batch, spec, params)
    se = np.hypot(
        classic.std(ddof=1) / np.sqrt(n), product.std(ddof=1) / np.sqrt(n)
    )
    assert abs(classic.mean() - product.mean()) <= 4.0 * se
