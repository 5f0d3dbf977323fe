import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ndtri

from hestonis.drift_bs import bs_fully_adaptive
from hestonis.errors import DomainError
from hestonis.measure import DriftMode, DriftSchedule, log_inverse_weight
from hestonis.model import TimeGrid
from hestonis.payoff import PayoffKind, evaluate, make_payoff
from hestonis.sim import (
    DRAW_ROWS,
    RngSpec,
    antithetic_pairs,
    normal_increments,
    simulate_p,
    simulate_q,
)


def _zero_increments(grid, n_paths=1):
    z = np.zeros((n_paths, grid.n_steps))
    return z, z.copy()


def _recorded(params, grid, increments, drift=None):
    """The batch recorded on ``increments``, under ``drift`` if given."""
    n, rng = increments[0].shape[0], RngSpec(0)
    if drift is None:
        return simulate_p(params, grid, n, rng, increments)
    return simulate_q(params, grid, n, rng, drift, increments)


def test_zero_noise_first_step(params, grid):
    b = _recorded(params, grid, _zero_increments(grid))
    x, v_raw = b.x, b.v_raw
    dt = grid.dt
    assert v_raw[0, 1] == pytest.approx(0.04 + 2.0 * 0.05 * dt, abs=1e-15)
    assert v_raw[0, 1] == pytest.approx(0.0403968, abs=5e-7)
    assert x[0, 1] == pytest.approx(-0.5 * 0.04 * dt, abs=1e-18)
    assert x[0, 1] == pytest.approx(-7.93651e-5, abs=1e-9)


def test_initial_conditions_and_truncation(params, grid):
    b = simulate_p(params, grid, 200, RngSpec(3))
    assert np.all(b.x[:, 0] == 0.0)
    assert np.all(b.v[:, 0] == params.v0)
    assert np.all(b.v >= 0.0)
    assert np.all(b.v == np.maximum(b.v_raw, 0.0))


def test_variance_terminal_mean_matches_exact(params, grid):
    # E[V_T] = theta + (v0 - theta) e^{-kappa T}, exact for the continuous process
    n = 40_000
    b = simulate_p(params, grid, n, RngSpec(11))
    vt = b.v[:, -1]
    target = 0.09 - 0.05 * np.exp(-2.0)
    se = vt.std(ddof=1) / np.sqrt(n)
    assert abs(vt.mean() - target) <= 4.0 * se


def test_increment_sanity_bands(params, grid):
    n = 20_000
    b = simulate_p(params, grid, n, RngSpec(5))
    se_mean = np.sqrt(grid.dt / n)
    assert np.abs(b.dw.mean(axis=0)).max() <= 5.0 * se_mean
    var_cols = b.dw.var(axis=0)
    se_var = grid.dt * np.sqrt(2.0 / n)
    assert np.abs(var_cols - grid.dt).max() <= 5.0 * se_var


def test_zero_drift_is_bit_identical_to_base(params, grid, zero_drift):
    rng = RngSpec(42, 7)
    bp = simulate_p(params, grid, 500, rng)
    bq = simulate_q(params, grid, 500, rng, zero_drift)
    assert np.array_equal(bp.x, bq.x)
    assert np.array_equal(bp.v, bq.v)
    assert np.array_equal(bp.dw, bq.dw)
    assert np.all(bq.log_inv_weight == 0.0)


def test_frozen_variance_is_the_constant_vol_euler_path(params):
    grid, rng, n, sigma = TimeGrid(32, 1.0), RngSpec(13, 2), 400, 0.25
    dw, dwp = normal_increments(rng, n, grid.n_steps, grid.dt)

    def const_vol_x(dw_sim):
        x = np.zeros((n, grid.n_steps + 1))
        x[:, 1:] = np.cumsum(-0.5 * sigma * sigma * grid.dt + sigma * dw_sim, axis=1)
        return x

    p = simulate_p(params, grid, n, rng, (dw, dwp), sigma=sigma)
    assert p.v is None and p.v_raw is None
    assert np.array_equal(p.x, const_vol_x(dw))
    # the orthogonal channel has loading 0: its drift moves the weight only
    h1, h2 = np.linspace(0.6, -0.2, grid.n_steps + 1), np.linspace(-0.4, 0.3, grid.n_steps + 1)
    drift = DriftSchedule(DriftMode.DETERMINISTIC, h1, h2)
    q = simulate_q(params, grid, n, rng, drift, (dw, dwp), sigma=sigma)
    assert q.v is None and q.v_raw is None
    assert np.array_equal(q.x, const_vol_x(dw + h1[:-1] * grid.dt))
    assert_allclose(q.log_inv_weight, log_inverse_weight(q, drift), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("c", [0.7, -1.3])
def test_deterministic_shift_first_step(params, grid, c):
    h = np.full(grid.n_steps + 1, c)
    drift = DriftSchedule(DriftMode.DETERMINISTIC, h, np.zeros_like(h))
    v_raw = _recorded(params, grid, _zero_increments(grid), drift).v_raw
    dt = grid.dt
    expected = params.v0 + params.kappa * (params.theta - params.v0) * dt \
        + params.xi * np.sqrt(params.v0) * c * dt
    assert v_raw[0, 1] == pytest.approx(expected, abs=1e-16)


def test_adaptive_shift_first_step(params, grid):
    c = 0.9
    h = np.full(grid.n_steps + 1, c)
    drift = DriftSchedule(DriftMode.ADAPTIVE, h, np.zeros_like(h))
    v_raw = _recorded(params, grid, _zero_increments(grid), drift).v_raw
    dt = grid.dt
    expected = params.v0 + params.kappa * (params.theta - params.v0) * dt \
        + params.xi * params.v0 * c * dt
    assert v_raw[0, 1] == pytest.approx(expected, abs=1e-16)


class TestAntithetic:
    def test_mirrored_increments(self, params, grid):
        b = antithetic_pairs(params, grid, 64, RngSpec(9))
        assert np.array_equal(b.dw[1::2], -b.dw[0::2])
        assert np.array_equal(b.dw_perp[1::2], -b.dw_perp[0::2])

    def test_odd_count_rejected(self, params, grid):
        with pytest.raises(DomainError):
            antithetic_pairs(params, grid, 63, RngSpec(9))

    def test_linear_payoff_cancels_under_frozen_variance(self, params, grid):
        # with the variance frozen at v0 the terminal log return is linear in
        # the increments, so every pair average collapses to the drift term
        b = antithetic_pairs(params, grid, 64, RngSpec(10))
        noise = params.rho * b.dw.sum(axis=1) + params.rho_bar * b.dw_perp.sum(axis=1)
        x_frozen = -0.5 * params.v0 * grid.t_end + np.sqrt(params.v0) * noise
        pair_mean = 0.5 * (x_frozen[0::2] + x_frozen[1::2])
        assert_allclose(pair_mean, -0.5 * params.v0 * grid.t_end, atol=1e-15)


def test_negative_excursions_are_rare_at_daily_steps(params, grid):
    b = simulate_p(params, grid, 10_000, RngSpec(21))
    frac = float((b.v_raw < 0.0).mean())
    assert frac < 0.01


def test_l1_refinement_contraction(params):
    # same Brownian path at dt, dt/2, dt/4 by pairwise increment summing
    fine = TimeGrid(256, 1.0)
    dw_f, dwp_f = normal_increments(RngSpec(33), 4_000, fine.n_steps, fine.dt)

    def coarsen(a, factor):
        return a.reshape(a.shape[0], -1, factor).sum(axis=2)

    v_ends = {}
    for factor in (4, 2, 1):
        g = TimeGrid(256 // factor, 1.0)
        b = _recorded(params, g, (coarsen(dw_f, factor), coarsen(dwp_f, factor)))
        v_ends[g.n_steps] = b.v[:, -1]
    d_coarse = np.abs(v_ends[64] - v_ends[128]).mean()
    d_fine = np.abs(v_ends[128] - v_ends[256]).mean()
    assert d_fine < d_coarse


def test_stream_reproducibility(params, grid):
    a = simulate_p(params, grid, 100, RngSpec(77, 3))
    b = simulate_p(params, grid, 100, RngSpec(77, 3))
    c = simulate_p(params, grid, 100, RngSpec(77, 4))
    assert np.array_equal(a.x, b.x)
    assert not np.array_equal(a.dw, c.dw)


@pytest.mark.parametrize("m", [1, 250, 251])
def test_increments_of_fewer_rows_are_a_row_prefix(grid, m):
    rng = RngSpec(5, 2)
    dw_n, dwp_n = normal_increments(rng, 501, grid.n_steps, grid.dt)
    dw_m, dwp_m = normal_increments(rng, m, grid.n_steps, grid.dt)
    assert np.array_equal(dw_m, dw_n[:m])
    assert np.array_equal(dwp_m, dwp_n[:m])


def test_pre_drawn_increments_reproduce_fresh_draws(params, grid):
    rng = RngSpec(8, 1)
    block = normal_increments(rng, 51, grid.n_steps, grid.dt)
    drift = DriftSchedule(
        DriftMode.ADAPTIVE, np.full(grid.n_steps + 1, 0.4), np.full(grid.n_steps + 1, -0.2)
    )
    for fresh, shared in (
        (simulate_p(params, grid, 51, rng), simulate_p(params, grid, 51, rng, block)),
        (simulate_q(params, grid, 51, rng, drift),
         simulate_q(params, grid, 51, rng, drift, block)),
        (antithetic_pairs(params, grid, 52, rng),
         antithetic_pairs(params, grid, 52, rng, (block[0][:26], block[1][:26]))),
    ):
        assert np.array_equal(fresh.x, shared.x)
        assert np.array_equal(fresh.v_raw, shared.v_raw)
        assert np.array_equal(fresh.dw, shared.dw)
    assert np.array_equal(
        simulate_q(params, grid, 51, rng, drift).log_inv_weight,
        simulate_q(params, grid, 51, rng, drift, block).log_inv_weight,
    )


def test_pre_drawn_increments_of_wrong_shape_rejected(params, grid):
    block = normal_increments(RngSpec(8), 10, grid.n_steps, grid.dt)
    with pytest.raises(DomainError):
        simulate_p(params, grid, 11, RngSpec(8), block)
    with pytest.raises(DomainError):  # pairs step on 5 rows, not 10
        antithetic_pairs(params, grid, 10, RngSpec(8), block)


def _one_shot_increments(rng, n_paths, n_steps, dt):
    """The stream's increments as one row-major draw of every row."""
    z = rng.generator().random((n_paths, 2 * n_steps))
    z += 2.0**-54
    ndtri(z, out=z)
    z *= np.sqrt(dt)
    return z[:, :n_steps], z[:, n_steps:]


#: Row counts that end a draw in blocks of ``DRAW_ROWS`` = 256 rows on a last
#: block of 255, 256, 1 and 7 rows.
@pytest.mark.parametrize("n", [1023, 1024, 1025, 2055])
def test_blocked_draw_is_the_one_shot_stream(grid, n):
    assert DRAW_ROWS < n
    rng = RngSpec(20240, 3)
    got = normal_increments(rng, n, grid.n_steps, grid.dt)
    for block, want in zip(got, _one_shot_increments(rng, n, grid.n_steps, grid.dt)):
        assert block.flags.f_contiguous
        assert np.array_equal(block, want)


def test_extreme_uniforms_give_finite_increments(grid, monkeypatch):
    # 1 - 2**-53 is the largest double random() returns; shifted off 0 by
    # 2**-54 it rounds to 1.0, where ndtri is +inf
    top = 1.0 - 2.0**-53

    class Extremes:
        def random(self, shape):
            z = np.zeros(shape)
            z[:, ::2] = top
            return z

    monkeypatch.setattr(RngSpec, "generator", lambda self: Extremes())
    dw, dw_perp = normal_increments(RngSpec(1), 3, grid.n_steps, grid.dt)
    assert np.all(np.isfinite(dw)) and np.all(np.isfinite(dw_perp))
    assert dw[0, 0] == ndtri(top) * np.sqrt(grid.dt) > 8.0 * np.sqrt(grid.dt)
    assert dw[0, 1] == ndtri(2.0**-54) * np.sqrt(grid.dt)


def _step_drifts(params, grid):
    """A deterministic, an adaptive and a per-step (BS_A2) schedule on ``grid``."""
    h = np.linspace(0.8, -0.3, grid.n_steps + 1)
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 60.0, grid.t_end)
    return [DriftSchedule(DriftMode.DETERMINISTIC, h, -0.5 * h),
            DriftSchedule(DriftMode.ADAPTIVE, 2.0 * h, h),
            bs_fully_adaptive(spec, params, grid)]


def _batches(params, grid, n, rng, increments):
    """Every kernel entry on the same increments: P, each drift of
    ``_step_drifts`` and antithetic pairs of the first n // 2 rows."""
    half = tuple(a[: n // 2] for a in increments)
    return [simulate_p(params, grid, n, rng, increments),
            *(simulate_q(params, grid, n, rng, d, increments)
              for d in _step_drifts(params, grid)),
            antithetic_pairs(params, grid, n, rng, half)]


def test_row_major_increments_give_the_same_bits(params):
    grid, rng, n = TimeGrid(16, 1.0), RngSpec(8, 1), 300
    block = normal_increments(rng, n, grid.n_steps, grid.dt)
    rows = tuple(np.ascontiguousarray(a) for a in block)
    assert not rows[0].flags.f_contiguous
    for col, row in zip(_batches(params, grid, n, rng, block),
                        _batches(params, grid, n, rng, rows)):
        assert np.array_equal(col.x, row.x)
        assert np.array_equal(col.v_raw, row.v_raw)
        if col.log_inv_weight is not None:
            assert np.array_equal(col.log_inv_weight, row.log_inv_weight)


def test_batches_are_column_major(params):
    grid, rng, n = TimeGrid(16, 1.0), RngSpec(8, 1), 300
    block = normal_increments(rng, n, grid.n_steps, grid.dt)
    fresh = [simulate_p(params, grid, n, rng), antithetic_pairs(params, grid, n, rng),
             *(simulate_q(params, grid, n, rng, d) for d in _step_drifts(params, grid))]
    for batch in fresh + _batches(params, grid, n, rng, block):
        for a in (batch.x, batch.v, batch.v_raw, batch.dw, batch.dw_perp):
            assert a.flags.f_contiguous


def _measures(params, grid, sigma):
    """(name, drift, mirror) of every measure the kernel runs; the per-step
    (BS_A2) schedule only under Heston, the one model that offers it."""
    drifts = _step_drifts(params, grid)
    measures = [("none", None, False), ("antithetic", None, True),
                ("deterministic", drifts[0], False), ("adaptive", drifts[1], False)]
    if sigma is None:
        measures.append(("per_step", drifts[2], False))
    return measures


def _run(params, grid, rng, increments, drift, mirror, sigma, specs=None):
    n = increments[0].shape[0]
    if mirror:
        return antithetic_pairs(params, grid, 2 * n, rng, increments, sigma, specs)
    if drift is None:
        return simulate_p(params, grid, n, rng, increments, sigma, specs)
    return simulate_q(params, grid, n, rng, drift, increments, sigma, specs)


@pytest.mark.parametrize("sigma", [None, 0.25], ids=["heston", "const_vol"])
def test_streamed_payoffs_equal_evaluate_on_recorded_paths(params, sigma):
    grid, rng, size = TimeGrid(32, 1.0), RngSpec(17, 4), 301  # an odd chunk
    block = normal_increments(rng, size, grid.n_steps, grid.dt)
    kinds = [PayoffKind.GEOMETRIC_ASIAN_CALL, PayoffKind.EUROPEAN_CALL,
             PayoffKind.ARITHMETIC_ASIAN_CALL]
    if sigma is None:
        kinds.append(PayoffKind.VOL_INDICATOR_SWAP)
    specs = [make_payoff(kind, strike, grid.t_end) for kind in kinds
             for strike in ((0.03, 0.05) if kind is PayoffKind.VOL_INDICATOR_SWAP
                            else (45.0, 55.0))]
    for name, drift, mirror in _measures(params, grid, sigma):
        # antithetic pairs of an odd chunk step on its first ceil(size / 2) rows
        inc = tuple(a[: (size + 1) // 2] for a in block) if mirror else block
        rec = _run(params, grid, rng, inc, drift, mirror, sigma)
        streamed = _run(params, grid, rng, inc, drift, mirror, sigma, specs)
        assert streamed.x is streamed.v is streamed.v_raw is None
        for spec in specs:
            want = evaluate(spec, params, grid, rec.x, rec.v)
            got = evaluate(spec, params, grid, total=streamed.sums[spec])
            assert got.shape == want.shape == (rec.x.shape[0],)
            assert np.any(want > 0.0), (name, spec.kind, spec.strike)
            # relative to what the strike is subtracted from: a call near the
            # money keeps its absolute rounding but loses leading digits
            scale = np.abs(want) + spec.strike
            assert np.all(np.abs(got - want) <= 1e-13 * scale), (name, spec.kind, spec.strike)
        if drift is None:
            assert rec.log_inv_weight is streamed.log_inv_weight is None
        else:
            assert_allclose(streamed.log_inv_weight, rec.log_inv_weight, rtol=0.0, atol=1e-12)
            if drift.mode is not DriftMode.PER_STEP_ADAPTIVE and sigma is None:
                assert_allclose(streamed.log_inv_weight, log_inverse_weight(rec, drift),
                                rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("mirror,drift_index", [(False, None), (True, None), (False, 0),
                                                (False, 1), (False, 2)],
                         ids=["none", "antithetic", "deterministic", "adaptive", "per_step"])
def test_a_streamed_chunk_stores_no_path(params, mirror, drift_index):
    grid, rng, n = TimeGrid(64, 1.0), RngSpec(3, 1), 4000
    block = normal_increments(rng, n, grid.n_steps, grid.dt)
    inc = tuple(a[: n // 2] for a in block) if mirror else block
    drift = None if drift_index is None else _step_drifts(params, grid)[drift_index]
    specs = [make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 50.0, grid.t_end),
             make_payoff(PayoffKind.VOL_INDICATOR_SWAP, 0.04, grid.t_end)]
    path_matrix = n * (grid.n_steps + 1) * 8
    tracemalloc.start()
    try:
        _run(params, grid, rng, inc, drift, mirror, None, specs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path_matrix
