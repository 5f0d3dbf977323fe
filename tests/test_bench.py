import dataclasses
import importlib
import inspect
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hestonis import bench
from hestonis.bench import (
    CHUNK_PATHS,
    CSV_COLUMNS,
    EstimatorKind,
    geometric_asian_price_bs,
    reports_to_csv,
    run_appendix_estimator,
    run_table,
)
from hestonis.drift_bs import bs_beta, bs_drift
from hestonis.drift_mdp import mdp_small_time_drift
from hestonis.errors import DomainError, OptimError
from hestonis.measure import DriftMode, DriftSchedule
from hestonis.model import TimeGrid, psi_deterministic
from hestonis.payoff import PayoffKind, make_payoff
from hestonis import payoff as payoff_mod, sim
from hestonis.payoff import evaluate


N_SMALL = 4_000
SEED = 99


@pytest.fixture(scope="module")
def small_grid():
    return TimeGrid(64, 1.0)


@pytest.fixture(scope="module")
def spec50():
    return make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 50.0, 1.0)


def _cell(kind, spec, params, grid, n_paths, workers=1):
    """One cell priced alone: the one row of a one-strike, one-kind table."""
    (row,) = run_table(spec.kind, [spec.strike], [kind], params, grid, n_paths, SEED, workers)
    return row


def test_kind_names_round_trip():
    for kind in EstimatorKind:
        assert EstimatorKind.from_name(kind.value) is kind
    with pytest.raises(DomainError):
        EstimatorKind.from_name("nope")


def test_same_seed_identical_reports(params, small_grid, spec50):
    a = _cell(EstimatorKind.CLASSIC, spec50, params, small_grid, N_SMALL)
    b = _cell(EstimatorKind.CLASSIC, spec50, params, small_grid, N_SMALL)
    assert a.price == b.price and a.variance == b.variance
    assert a.var_reduction == 1.0


def test_workers_do_not_change_results(params, small_grid, spec50):
    a = _cell(EstimatorKind.BS, spec50, params, small_grid, 60_000, workers=1)
    b = _cell(EstimatorKind.BS, spec50, params, small_grid, 60_000, workers=4)
    assert a.price == b.price
    assert a.variance == b.variance
    assert a.prob_positive == b.prob_positive


def test_antithetic_variance_convention(params, small_grid, spec50):
    rep = _cell(EstimatorKind.ANTITHETIC, spec50, params, small_grid, N_SMALL)
    batch = sim.antithetic_pairs(params, small_grid, N_SMALL, sim.RngSpec(SEED, 0))
    g = evaluate(spec50, params, small_grid, batch.x, batch.v)
    pair = 0.5 * (g[0::2] + g[1::2])
    # single chunk at this size: the report variance is twice the pair variance
    assert rep.variance == pytest.approx(2.0 * pair.var(ddof=1), rel=1e-12)
    assert rep.std_err == pytest.approx(np.sqrt(rep.variance / N_SMALL), rel=1e-12)


def test_weighted_probability_estimates_base_probability(params, small_grid, spec50):
    classic = _cell(EstimatorKind.CLASSIC, spec50, params, small_grid, 30_000)
    drifted = _cell(EstimatorKind.BS, spec50, params, small_grid, 30_000)
    # weighted indicator is an unbiased estimate of the same probability
    assert drifted.prob_positive == pytest.approx(classic.prob_positive, abs=0.02)


def test_run_table_empty_kinds(params, small_grid):
    assert run_table(PayoffKind.GEOMETRIC_ASIAN_CALL, [50.0], [], params, small_grid, 100, SEED) == []


def test_run_table_sorts_strikes_and_pairs_seeds(params, small_grid):
    reports = run_table(
        PayoffKind.GEOMETRIC_ASIAN_CALL, [60.0, 40.0],
        [EstimatorKind.CLASSIC, EstimatorKind.MDP_SN], params, small_grid,
        N_SMALL, SEED,
    )
    strikes = [r.strike for r in reports]
    assert strikes == sorted(strikes)
    assert all(r.seed == SEED for r in reports)
    assert len(reports) == 4


def test_run_table_reports_cell_failures_inline(params, small_grid):
    reports = run_table(
        PayoffKind.VOL_INDICATOR_SWAP, [50.0],
        [EstimatorKind.CLASSIC, EstimatorKind.MDP_LT, EstimatorKind.CONTROL_GEOMETRIC],
        params, small_grid, 2_000, SEED,
    )
    by_kind = {r.kind: r for r in reports}
    for kind in ("MDPlt", "ControlGeometric"):
        assert by_kind[kind].error.startswith(f"{kind} @ K=50.0: ")
        assert np.isnan(by_kind[kind].price)
    assert by_kind["Classic"].error == ""


def test_csv_header_and_stability(params, small_grid, spec50):
    rep = _cell(EstimatorKind.CLASSIC, spec50, params, small_grid, 500)
    text = reports_to_csv([rep], stable_output=True)
    assert text.splitlines()[0] == CSV_COLUMNS
    again = reports_to_csv(
        [_cell(EstimatorKind.CLASSIC, spec50, params, small_grid, 500)],
        stable_output=True,
    )
    assert text == again
    assert ",0.0,0.0" in text.splitlines()[1]  # timing columns zeroed


def test_geometric_price_closed_form_matches_mc(params, small_grid):
    sigma, strike = 0.25, 50.0
    exact = geometric_asian_price_bs(params, sigma, strike, small_grid)
    n = 60_000
    dw, _ = sim.normal_increments(sim.RngSpec(7, 0), n, small_grid.n_steps, small_grid.dt)
    x = np.concatenate(
        [np.zeros((n, 1)), np.cumsum(-0.5 * sigma**2 * small_grid.dt + sigma * dw, axis=1)],
        axis=1,
    )
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, strike, small_grid.t_end)
    g = evaluate(spec, params, small_grid, x)
    se = g.std(ddof=1) / np.sqrt(n)
    assert abs(g.mean() - exact) <= 4.0 * se


def test_appendix_estimators_price_consistently(params, small_grid):
    base = run_appendix_estimator(
        EstimatorKind.CLASSIC, 50.0, params, 0.25, small_grid, 20_000, SEED
    )
    for kind in (EstimatorKind.ANTITHETIC, EstimatorKind.CONTROL_GEOMETRIC, EstimatorKind.BS):
        rep = run_appendix_estimator(kind, 50.0, params, 0.25, small_grid, 20_000, SEED)
        tol = 4.0 * np.hypot(base.std_err, rep.std_err)
        assert abs(rep.price - base.price) <= tol
        assert rep.var_reduction > 1.0


def test_appendix_rejects_heston_only_kinds(params, small_grid):
    rep = run_appendix_estimator(EstimatorKind.LDP_SN, 50.0, params, 0.25, small_grid,
                                 1_000, SEED)
    assert re.match(r"LDPsn @ K=50.0: .*constant-vol", rep.error)
    assert np.isnan(rep.price)


CONST_VOL_KINDS = [EstimatorKind.CLASSIC, EstimatorKind.ANTITHETIC,
                   EstimatorKind.CONTROL_GEOMETRIC, EstimatorKind.BS]


def _rows(reports):
    return [(r.kind, r.strike, r.n_paths, r.price, r.std_err, r.variance,
             r.var_reduction, r.prob_positive, r.error)
            for r in reports]


def test_const_vol_table_draws_once_per_chunk_for_any_workers(params, small_grid,
                                                             monkeypatch):
    n = CHUNK_PATHS + 1001  # odd remainder chunk
    draws = []
    draw = sim.normal_increments
    monkeypatch.setattr(sim, "normal_increments",
                        lambda rng, *a: draws.append(rng.stream_offset) or draw(rng, *a))
    tables = [bench.run_appendix_table([70.0, 50.0], CONST_VOL_KINDS, params, 0.25,
                                       small_grid, n, SEED, workers=workers)
              for workers in (1, 2)]
    assert sorted(draws) == [0, 0, 1, 1]  # each chunk once per table
    assert _rows(tables[0]) == _rows(tables[1])
    assert [(r.kind, r.strike) for r in tables[0]] == \
        [(k.value, s) for s in (50.0, 70.0) for k in CONST_VOL_KINDS]
    assert all(np.isfinite(r.price) and r.wall_time_s > 0.0 for r in tables[0])


def test_const_vol_cells_do_not_depend_on_their_neighbours(params, small_grid):
    strikes = [50.0, 70.0]
    table = bench.run_appendix_table(strikes, CONST_VOL_KINDS, params, 0.25,
                                     small_grid, N_SMALL, SEED)
    for kinds in ([EstimatorKind.BS], [EstimatorKind.ANTITHETIC, EstimatorKind.CLASSIC],
                  [EstimatorKind.CONTROL_GEOMETRIC, EstimatorKind.BS]):
        for some in ([50.0], [70.0], strikes):
            alone = bench.run_appendix_table(some, kinds, params, 0.25, small_grid,
                                             N_SMALL, SEED)
            assert len(alone) == len(kinds) * len(some)
            for rep in alone:
                (same,) = [r for r in table if (r.kind, r.strike) == (rep.kind, rep.strike)]
                assert _rows([rep]) == _rows([same]), (rep.kind, rep.strike, kinds, some)


def test_const_vol_table_reports_heston_only_kinds_inline(params, small_grid):
    reports = bench.run_appendix_table(
        [50.0], [EstimatorKind.CLASSIC, EstimatorKind.LDP_SN, EstimatorKind.BS],
        params, 0.25, small_grid, 2_000, SEED,
    )
    by_kind = {r.kind: r for r in reports}
    assert by_kind["LDPsn"].error.startswith("LDPsn @ K=50.0: ")
    assert np.isnan(by_kind["LDPsn"].price)
    for kind in ("Classic", "BS"):
        assert by_kind[kind].error == "" and np.isfinite(by_kind[kind].price)


def test_kind_registry_has_a_builder_for_every_offered_drift():
    assert set(bench.KINDS) == set(EstimatorKind)
    for kind, entry in bench.KINDS.items():
        assert entry.solves, kind
        for solve in entry.solves.values():
            assert (solve is None) == (entry.mode is None), kind
            assert solve is None or callable(solve), kind
    # MDPsn reads BS's solve on call payoffs and has its own on variance payoffs
    bs, mdp_sn = (bench.KINDS[k].solves for k in (EstimatorKind.BS, EstimatorKind.MDP_SN))
    assert mdp_sn[bench.Table.CALL] is bs[bench.Table.CALL]
    assert mdp_sn[bench.Table.VARIANCE] is not bs[bench.Table.VARIANCE]
    for kind in (EstimatorKind.MDP_SN, EstimatorKind.MDP_SN_A):
        assert bench.KINDS[kind].solves == mdp_sn


def test_run_table_matches_single_cell_runs_bit_for_bit(params, small_grid, spec50,
                                                        monkeypatch):
    kinds = [EstimatorKind.CLASSIC, EstimatorKind.ANTITHETIC, EstimatorKind.BS,
             EstimatorKind.BS_A, EstimatorKind.BS_A2]
    monkeypatch.setattr(bench, "CHUNK_PATHS", 2_000)
    # an odd partial last chunk, alone in the last group at two workers
    n = 2 * bench.CHUNK_PATHS + 1001
    single = [_cell(kind, spec50, params, small_grid, n) for kind in kinds]
    for workers in (1, 2):
        t0 = time.perf_counter()
        table = run_table(PayoffKind.GEOMETRIC_ASIAN_CALL, [50.0], kinds, params,
                          small_grid, n, SEED, workers=workers)
        # cells and draws run one after another, so their times fit in the call
        assert sum(r.wall_time_s for r in table) <= time.perf_counter() - t0
        assert [r.kind for r in table] == [k.value for k in kinds]
        for a, b in zip(single, table):
            assert (a.price, a.variance, a.std_err, a.prob_positive, a.var_reduction,
                    a.n_paths) == \
                (b.price, b.variance, b.std_err, b.prob_positive, b.var_reduction,
                 b.n_paths), (a.kind, workers)
            assert b.wall_time_s > 0.0


def test_overflowing_weights_mask_zero_payoffs():
    values, pos = bench._weighted(np.array([0.0, 2.0, 0.0]), np.array([800.0, 0.0, -5.0]))
    assert np.array_equal(values, [0.0, 2.0, 0.0])
    assert np.array_equal(pos, [0.0, 1.0, 0.0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_chunk_sum_is_a_cell_error(params, small_grid, spec50, monkeypatch):
    h = np.full(small_grid.n_steps + 1, 500.0)  # drives S to overflow, weights to 0
    oversized = DriftSchedule(DriftMode.DETERMINISTIC, h, h.copy(), provenance="test")
    monkeypatch.setattr(bench.DriftFactory, "build", lambda self, kind, spec: (oversized, 0.0))
    alone = _cell(EstimatorKind.BS, spec50, params, small_grid, 500)
    assert alone.error.startswith("BS @ K=50.0: non-finite") and np.isnan(alone.price)
    reports = run_table(PayoffKind.GEOMETRIC_ASIAN_CALL, [50.0],
                        [EstimatorKind.CLASSIC, EstimatorKind.BS], params,
                        small_grid, 500, SEED)
    by_kind = {r.kind: r for r in reports}
    assert by_kind["BS"].error.startswith("BS @ K=50.0: non-finite")
    assert np.isnan(by_kind["BS"].price)
    assert by_kind["Classic"].error == "" and np.isfinite(by_kind["Classic"].price)


def test_const_vol_antithetic_prob_positive_averages_both_paths(params):
    # a pair adds the mean of its two hit indicators; adding the booleans
    # instead (a logical or) capped the column at 0.5
    n = 4_001
    reports = bench.run_appendix_table([30.0, 50.0], CONST_VOL_KINDS[:2], params, 0.25,
                                       TimeGrid(16, 1.0), n, SEED)
    by = {(r.kind, r.strike): r.prob_positive for r in reports}
    assert by["Antithetic", 30.0] >= 0.99  # deep in the money: nearly every path pays
    for strike in (30.0, 50.0):
        p = by["Classic", strike]
        se = np.sqrt(max(p * (1.0 - p), 1.0 / n) / n)
        assert abs(by["Antithetic", strike] - p) <= 4.0 * np.sqrt(2.0) * se, strike


FROZEN_VOL_KINDS = [EstimatorKind.CLASSIC, EstimatorKind.BS, EstimatorKind.BS_A,
                    EstimatorKind.MDP_SN, EstimatorKind.MDP_SN_A]


def test_mdp_price_rows_equal_bs_rows(params):
    # 16 steps and these strikes are where a separate MDPsn root moved the
    # schedule by up to 1e-14; one frozen-vol root gives identical rows
    reports = run_table(PayoffKind.GEOMETRIC_ASIAN_CALL, [50.0, 65.0], FROZEN_VOL_KINDS,
                        params, TimeGrid(16, 1.0), N_SMALL, SEED)
    rows = {(r.kind, r.strike): _rows([r])[0][1:] for r in reports}
    for strike in (50.0, 65.0):
        assert rows["MDPsn", strike] == rows["BS", strike]
        assert rows["MDPsn_A", strike] == rows["BS_A", strike]


def test_one_root_per_strike_serves_bs_and_mdp_price(params, monkeypatch):
    # BS and MDPsn both route to mdp_price_drift, which solves the root itself
    calls = {"bs_beta": 0, "mdp_price_drift": 0}
    for name in calls:
        def counted(*args, _name=name, _orig=getattr(bench, name), **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(bench, name, counted)
    reports = run_table(PayoffKind.GEOMETRIC_ASIAN_CALL, [50.0, 65.0], FROZEN_VOL_KINDS,
                        params, TimeGrid(16, 1.0), 500, SEED)
    assert all(r.error == "" for r in reports)
    assert calls == {"bs_beta": 0, "mdp_price_drift": 2}


def test_one_mdp_log_solve_per_strike_serves_both_modes(params, monkeypatch):
    calls = []
    solve = bench.mdp_log_drift
    monkeypatch.setattr(bench, "mdp_log_drift", lambda *a: calls.append(a[0].strike) or solve(*a))
    kinds = [EstimatorKind.MDP_SN_LOG, EstimatorKind.MDP_SN_LOG_A]
    reports = run_table(PayoffKind.GEOMETRIC_ASIAN_CALL, [50.0, 65.0], kinds, params,
                        TimeGrid(16, 1.0), 500, SEED)
    assert all(r.error == "" for r in reports)
    assert calls == [50.0, 65.0]


GRID16 = TimeGrid(16, 1.0)


def _bits(m):
    return [repr(v) for v in dataclasses.astuple(m)]


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 300), strike=st.floats(20.0, 90.0),
       payoff=st.sampled_from([PayoffKind.GEOMETRIC_ASIAN_CALL, PayoffKind.EUROPEAN_CALL,
                               PayoffKind.VOL_INDICATOR_SWAP]),
       mode=st.sampled_from([DriftMode.DETERMINISTIC, DriftMode.ADAPTIVE]))
@settings(max_examples=30, deadline=None)
def test_zero_drift_is_classic_bit_for_bit(params, seed, n, strike, payoff, mode):
    zero = DriftSchedule(mode, np.zeros(GRID16.n_steps + 1), np.zeros(GRID16.n_steps + 1))
    rng = sim.RngSpec(seed, 0)
    inc = sim.normal_increments(rng, n, GRID16.n_steps, GRID16.dt)
    q = sim.simulate_q(params, GRID16, n, rng, zero, increments=inc)
    assert np.array_equal(q.log_inv_weight, np.zeros(n))
    assert np.array_equal(q.x, sim.simulate_p(params, GRID16, n, rng, increments=inc).x)
    const_q = sim.simulate_q(params, GRID16, n, rng, zero, increments=inc, sigma=0.25)
    assert np.array_equal(const_q.log_inv_weight, np.zeros(n))
    assert np.array_equal(const_q.x,
                          sim.simulate_p(params, GRID16, n, rng, increments=inc, sigma=0.25).x)
    for sigma, payoff_kind in ((None, payoff), (0.25, PayoffKind.ARITHMETIC_ASIAN_CALL)):
        factory = bench.DriftFactory(params, GRID16, sigma)
        spec = make_payoff(payoff_kind, strike, 1.0)
        (classic,), (drifted,) = (
            bench._chunk_moments([bench._TableCell(kind, spec)], factory, drift, n, rng, inc)
            for kind, drift in ((EstimatorKind.CLASSIC, None), (EstimatorKind.BS, zero))
        )
        assert _bits(classic) == _bits(drifted)


#: Kinds with cheap drift builds; BS/MDPsn and BS_A/MDPsn_A are one estimator each.
SHARED_KINDS = FROZEN_VOL_KINDS + [EstimatorKind.MDP_ST, EstimatorKind.ANTITHETIC]


def _stable_rows(reports):
    return {(r.kind, r.strike): (reports_to_csv([r], stable_output=True), r.error)
            for r in reports}


@pytest.fixture(scope="module")
def rows_alone(params):
    """Each shared kind's rows from a table that lists it alone."""
    rows = {}
    for kind in SHARED_KINDS:
        rows.update(_stable_rows(run_table(PayoffKind.GEOMETRIC_ASIAN_CALL, [50.0, 65.0],
                                           [kind], params, GRID16, 3000, SEED)))
    return rows


@given(kinds=st.lists(st.sampled_from(SHARED_KINDS), min_size=1, unique=True))
@settings(max_examples=12, deadline=None)
def test_rows_do_not_depend_on_the_kinds_beside_them(params, rows_alone, kinds):
    rows = _stable_rows(run_table(PayoffKind.GEOMETRIC_ASIAN_CALL, [65.0, 50.0], kinds,
                                  params, GRID16, 3000, SEED))
    assert len(rows) == 2 * len(kinds)
    for key, row in rows.items():
        assert row == rows_alone[key], (key, kinds)


@pytest.mark.parametrize("n", [CHUNK_PATHS - 1, CHUNK_PATHS + 1])
def test_rows_with_shared_estimators_do_not_depend_on_workers(params, n):
    tables = [run_table(PayoffKind.GEOMETRIC_ASIAN_CALL, [50.0, 65.0], SHARED_KINDS, params,
                        GRID16, n, SEED, workers=workers) for workers in (1, 2)]
    assert _stable_rows(tables[0]) == _stable_rows(tables[1])
    for table in tables:
        wall = {(r.kind, r.strike): r.wall_time_s for r in table}
        for strike in (50.0, 65.0):  # a shared estimator reports its one run's time
            assert wall["MDPsn", strike] == wall["BS", strike] > 0.0
            assert wall["MDPsn_A", strike] == wall["BS_A", strike] > 0.0


def _count_calls(monkeypatch, module, name, record):
    """Patch ``module.name`` to append ``record(args, kwargs)`` to the returned list
    before each call."""
    orig = getattr(module, name)
    calls = []
    monkeypatch.setattr(module, name,
                        lambda *a, **k: calls.append(record(a, k)) or orig(*a, **k))
    return calls


def test_cells_with_one_estimator_simulate_once(params, monkeypatch):
    base = _count_calls(monkeypatch, sim, "simulate_p", lambda a, k: a[3].stream_offset)
    drifted = _count_calls(monkeypatch, sim, "simulate_q", lambda a, k: a[4])
    runs = _count_calls(monkeypatch, bench, "run_estimator", lambda a, k: a[0].value)
    reports = run_table(PayoffKind.GEOMETRIC_ASIAN_CALL, [50.0, 65.0], FROZEN_VOL_KINDS,
                        params, GRID16, N_SMALL, SEED)
    assert all(r.error == "" for r in reports)
    assert base == [0]  # one chunk, and Classic at both strikes reads one simulation
    assert len(drifted) == 4  # BS and BS_A at each strike; MDPsn(_A) is BS(_A) there
    assert sorted(runs) == ["BS", "BS", "BS_A", "BS_A", "Classic"]  # one per measure
    drifted.clear()
    reports = run_table(PayoffKind.VOL_INDICATOR_SWAP, [10.0], FROZEN_VOL_KINDS[:3],
                        params, GRID16, N_SMALL, SEED)
    assert drifted == []  # the variance-payoff BS solve is zero at K=10: Classic
    rows = {r.kind: _rows([r])[0][1:] for r in reports}
    assert rows["BS"] == rows["BS_A"] == rows["Classic"]


def test_const_vol_cells_on_one_measure_simulate_once(params, small_grid, monkeypatch):
    monkeypatch.setattr(bench, "CHUNK_PATHS", 2_000)

    def chunk(args, kwargs):
        return args[3].stream_offset

    base = _count_calls(monkeypatch, sim, "simulate_p", chunk)
    pairs = _count_calls(monkeypatch, sim, "antithetic_pairs", chunk)
    drifted = _count_calls(monkeypatch, sim, "simulate_q", chunk)
    payoffs = _count_calls(monkeypatch, payoff_mod, "evaluate",
                           lambda a, k: (a[0].kind, a[0].strike))
    reports = bench.run_appendix_table([50.0, 70.0], CONST_VOL_KINDS, params, 0.25,
                                       small_grid, 3_001, SEED)  # an odd partial chunk
    assert all(r.error == "" for r in reports)
    assert base == pairs == [0, 1]
    assert sorted(drifted) == [0, 0, 1, 1]  # BS at each strike
    # per chunk, one arithmetic payoff per strike on each of its three measures
    # (Classic and ControlGeometric share the base one) and ControlGeometric's
    # geometric payoff
    for strike in (50.0, 70.0):
        assert payoffs.count((PayoffKind.ARITHMETIC_ASIAN_CALL, strike)) == 2 * 3
        assert payoffs.count((PayoffKind.GEOMETRIC_ASIAN_CALL, strike)) == 2
    assert len(payoffs) == 2 * 2 * 4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_shared_estimator_that_fails_names_each_cell(params, monkeypatch):
    h = np.full(GRID16.n_steps + 1, 500.0)  # drives S to overflow, weights to 0
    oversized = DriftSchedule(DriftMode.DETERMINISTIC, h, h.copy(), provenance="test")
    monkeypatch.setattr(bench.DriftFactory, "build", lambda self, kind, spec: (oversized, 0.0))
    reports = run_table(PayoffKind.GEOMETRIC_ASIAN_CALL, [50.0],
                        [EstimatorKind.CLASSIC, EstimatorKind.BS, EstimatorKind.MDP_SN],
                        params, GRID16, 500, SEED)
    by_kind = {r.kind: r for r in reports}
    reason = by_kind["BS"].error.removeprefix("BS @ K=50.0: ")
    assert reason.startswith("non-finite")
    assert by_kind["MDPsn"].error == f"MDPsn @ K=50.0: {reason}"
    assert np.isnan(by_kind["MDPsn"].price)


@given(seed=st.integers(0, 2**32 - 1),
       mode=st.sampled_from([DriftMode.DETERMINISTIC, DriftMode.ADAPTIVE]),
       h=st.lists(st.floats(-1.0, 1.0), min_size=2 * (GRID16.n_steps + 1),
                  max_size=2 * (GRID16.n_steps + 1)))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_girsanov_weights_have_unit_mean(params, seed, mode, h):
    # E_Q[dP/dQ] = 1 for any bounded schedule; a bounded |h| <= 1 keeps the
    # weights' variance below e^2 - 1, so 4,000 paths resolve the mean
    h1, h2 = np.reshape(h, (2, -1))
    n = 4_000
    batch = sim.simulate_q(params, GRID16, n, sim.RngSpec(seed), DriftSchedule(mode, h1, h2))
    w = np.exp(batch.log_inv_weight)
    assert abs(w.mean() - 1.0) <= 5.0 * w.std(ddof=1) / np.sqrt(n)


@pytest.fixture(scope="module")
def rows_unforced(params):
    return _stable_rows(run_table(PayoffKind.GEOMETRIC_ASIAN_CALL, [50.0, 65.0],
                                  FROZEN_VOL_KINDS, params, GRID16, 3000, SEED))


@given(victim=st.sampled_from([(k, s) for k in FROZEN_VOL_KINDS[1:] for s in (50.0, 65.0)]),
       mode=st.sampled_from([DriftMode.DETERMINISTIC, DriftMode.ADAPTIVE]),
       size=st.floats(200.0, 2000.0))
@settings(max_examples=12, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_oversized_drift_fails_only_its_own_cell(params, rows_unforced, victim, mode, size):
    # a drift this large sends every weight to 0, and S to overflow where it
    # grows fast enough; the cell must report that by name, and no other row
    # may move
    kind, strike = victim
    oversized = DriftSchedule(mode, np.full(GRID16.n_steps + 1, size),
                              np.full(GRID16.n_steps + 1, size), provenance="test")
    build = bench.DriftFactory.build

    def forced(self, k, spec):
        return (oversized, 0.0) if (k, spec.strike) == victim else build(self, k, spec)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench.DriftFactory, "build", forced)
        reports = run_table(PayoffKind.GEOMETRIC_ASIAN_CALL, [50.0, 65.0], FROZEN_VOL_KINDS,
                            params, GRID16, 3000, SEED)
    rows = _stable_rows(reports)
    for r in reports:
        if (r.kind, r.strike) == (kind.value, strike):
            assert r.error.startswith(f"{kind.value} @ K={strike}: ")
            assert np.isnan(r.price)
        else:
            assert rows[r.kind, r.strike] == rows_unforced[r.kind, r.strike]


def _two_pass_variance(values: np.ndarray) -> float:
    v = values.astype(np.longdouble)
    dev = v - v.mean()
    return float((dev * dev).sum() / (v.size - 1))


def _chunk_streams(n, grid):
    """(rng, increments) of each chunk of an ``n``-path table on ``grid``."""
    streams = []
    for j, size in enumerate(bench._chunk_sizes(n)):
        rng = sim.RngSpec(SEED, j)
        streams.append((rng, sim.normal_increments(rng, size, grid.n_steps, grid.dt)))
    return streams


def test_itm_variances_match_a_long_double_two_pass(params, monkeypatch):
    # BS_A2 at K=30 has a variance hundreds of times below Classic's next to
    # the same squared mean: the case that raw sums of squares lose digits on
    monkeypatch.setattr(bench, "CHUNK_PATHS", 2_000)
    n = 2 * bench.CHUNK_PATHS + 1_001  # three chunks, the last one partial
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 30.0, 1.0)
    kinds = [EstimatorKind.CLASSIC, EstimatorKind.BS_A2]
    tables = [run_table(PayoffKind.GEOMETRIC_ASIAN_CALL, [30.0], kinds, params, GRID16,
                        n, SEED, workers=workers) for workers in (1, 2)]
    assert _stable_rows(tables[0]) == _stable_rows(tables[1])
    drift, _ = bench.DriftFactory(params, GRID16).build(EstimatorKind.BS_A2, spec)
    values = {"Classic": [], "BS_A2": []}
    for rng, inc in _chunk_streams(n, GRID16):
        p = sim.simulate_p(params, GRID16, inc[0].shape[0], rng, inc)
        values["Classic"].append(evaluate(spec, params, GRID16, p.x))
        q = sim.simulate_q(params, GRID16, inc[0].shape[0], rng, drift, inc)
        g = evaluate(spec, params, GRID16, q.x)
        values["BS_A2"].append(bench._weighted(g, q.log_inv_weight)[0])
    for r in tables[0]:
        want = _two_pass_variance(np.concatenate(values[r.kind]))
        assert r.variance == pytest.approx(want, rel=1e-12, abs=0.0), r.kind
    by_kind = {r.kind: r for r in tables[0]}
    assert by_kind["BS_A2"].var_reduction > 100.0


def test_control_variance_matches_a_long_double_two_pass(params, grid):
    # deep in the money the arithmetic and geometric payoffs nearly cancel,
    # and a variance from raw sums of squares is off by more than 1e-12 here
    sigma, strike, n = 0.25, 30.0, CHUNK_PATHS + 1_001
    spec = make_payoff(PayoffKind.ARITHMETIC_ASIAN_CALL, strike, 1.0)
    kinds = [EstimatorKind.CLASSIC, EstimatorKind.CONTROL_GEOMETRIC]
    classic, control = bench.run_appendix_table([strike], kinds, params, sigma, grid, n, SEED)
    arith, diff = [], []
    geo_spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, strike, 1.0)
    for rng, inc in _chunk_streams(n, grid):
        x = sim.simulate_p(params, grid, inc[0].shape[0], rng, inc, sigma=sigma).x
        g = evaluate(spec, params, grid, x)
        geo = evaluate(geo_spec, params, grid, x)
        arith.append(g)
        diff.append(g.astype(np.longdouble) - geo.astype(np.longdouble))
    assert classic.variance == pytest.approx(_two_pass_variance(np.concatenate(arith)),
                                             rel=1e-12, abs=0.0)
    assert control.variance == pytest.approx(_two_pass_variance(np.concatenate(diff)),
                                             rel=1e-12, abs=0.0)
    assert control.var_reduction > 100.0


@pytest.mark.parametrize("kind,mode", [(EstimatorKind.MDP_ST, DriftMode.DETERMINISTIC),
                                       (EstimatorKind.MDP_ST_A, DriftMode.ADAPTIVE)])
def test_small_time_schedule_is_the_root_at_sqrt_v0(params, kind, mode):
    grid = TimeGrid(16, 1.0)
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 65.0, 1.0)
    sigma = np.full(grid.n_steps + 1, np.sqrt(params.v0))
    red = bs_beta(spec, sigma, spec.weight, grid, params)
    det = bs_drift(red.beta_star, sigma, red.alpha, params.rho)
    got = mdp_small_time_drift(spec, spec.weight, params, grid)
    assert np.array_equal(got.h1_dot, det.h1_dot) and np.array_equal(got.h2_dot, det.h2_dot)
    scale = sigma if mode is DriftMode.ADAPTIVE else 1.0
    built, _ = bench.DriftFactory(params, grid).build(kind, spec)
    assert built.mode is mode
    assert np.array_equal(built.h1_dot, det.h1_dot / scale)
    assert np.array_equal(built.h2_dot, det.h2_dot / scale)


def _twin_pairs():
    """(table, deterministic kind, adaptive kind) of every pair a table offers."""
    for table in bench.Table:
        for kind, entry in bench.KINDS.items():
            twin = next((k for k in EstimatorKind if k.value == kind.value + "_A"), None)
            if (entry.mode is DriftMode.DETERMINISTIC and twin is not None
                    and table in entry.solves and table in bench.KINDS[twin].solves):
                yield table, kind, twin


#: What a builder calls to solve; the adaptive twin of a built kind calls none of them.
_SOLVERS = ("bs_beta", "bs_fully_adaptive", "ldp_optimum", "mdp_log_drift", "mdp_price_drift",
            "mdp_small_time_drift", "mdp_large_time_drift")


@pytest.mark.parametrize("table,det_kind,ada_kind", list(_twin_pairs()),
                         ids=lambda v: v.name if isinstance(v, bench.Table) else v.value)
def test_adaptive_twin_divides_by_the_vol_it_was_solved_on(params, table, det_kind, ada_kind,
                                                           monkeypatch):
    grid = TimeGrid(16, 1.0)
    if table is bench.Table.CALL:
        spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 65.0, 1.0)
    else:  # the BS variance drift is zero at K <= 50, the other two fail above
        strike = 60.0 if det_kind is EstimatorKind.BS else 50.0
        spec = make_payoff(PayoffKind.VOL_INDICATOR_SWAP, strike, 1.0)
    factory = bench.DriftFactory(params, grid)
    assert factory.table(spec) is table
    det, _ = factory.build(det_kind, spec)
    if table is bench.Table.CALL and det_kind in (EstimatorKind.LDP_SN, EstimatorKind.LDP_ST):
        vol = np.sqrt(factory.solution(det_kind, spec)[0].paths.psi)
    elif det_kind is EstimatorKind.MDP_ST:
        vol = np.full(grid.n_steps + 1, np.sqrt(params.v0))
    else:
        vol = np.sqrt(psi_deterministic(params, grid))

    def unexpected(*args, **kwargs):
        raise AssertionError("the adaptive twin solved again")

    for name in _SOLVERS:
        monkeypatch.setattr(bench, name, unexpected)
    monkeypatch.setattr(bench.varopt, "solve", unexpected)
    ada, _ = factory.build(ada_kind, spec)
    assert (det.mode, ada.mode) == (DriftMode.DETERMINISTIC, DriftMode.ADAPTIVE)
    assert np.abs(det.h1_dot).max() > 0.0
    assert np.array_equal(ada.h1_dot, det.h1_dot / vol)
    assert np.array_equal(ada.h2_dot, det.h2_dot / vol)


def _offered_drifts():
    """(table, kind) of every drift kind on every table that offers it."""
    for kind, entry in bench.KINDS.items():
        for table, solve in entry.solves.items():
            if solve is not None:
                yield table, kind


@pytest.mark.parametrize("table,kind", list(_offered_drifts()),
                         ids=lambda v: v.name if isinstance(v, bench.Table) else v.value)
def test_first_build_solves_through_the_traced_names(params, table, kind, monkeypatch):
    # perfbench's tracer patches these module attributes: a solve that held
    # its own reference to a drift entry point would escape the patch
    grid, calls = TimeGrid(16, 1.0), []
    for module, names in ((bench, _SOLVERS), (bench.varopt, ("solve",))):
        for name in names:
            monkeypatch.setattr(module, name, lambda *a, _f=getattr(module, name), _n=name,
                                **k: calls.append(_n) or _f(*a, **k))
    payoff = {bench.Table.CALL: PayoffKind.GEOMETRIC_ASIAN_CALL,
              bench.Table.VARIANCE: PayoffKind.VOL_INDICATOR_SWAP,
              bench.Table.CONSTANT_VOL: PayoffKind.ARITHMETIC_ASIAN_CALL}[table]
    spec = make_payoff(payoff, 10.0 if table is bench.Table.VARIANCE else 65.0, 1.0)
    factory = bench.DriftFactory(params, grid, 0.25 if table is bench.Table.CONSTANT_VOL else None)
    assert factory.table(spec) is table
    factory.build(kind, spec)
    assert calls, (table, kind)


@pytest.mark.parametrize("kind", [EstimatorKind.BS, EstimatorKind.LDP_SN,
                                  EstimatorKind.MDP_SN_LOG, EstimatorKind.MDP_LT])
def test_factory_cache_tells_payoff_kinds_apart(params, kind):
    grid = TimeGrid(16, 1.0)
    geometric = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 60.0, 1.0)
    european = make_payoff(PayoffKind.EUROPEAN_CALL, 60.0, 1.0)
    shared = bench.DriftFactory(params, grid)
    shared.build(kind, geometric)
    got, _ = shared.build(kind, european)
    want, _ = bench.DriftFactory(params, grid).build(kind, european)
    assert np.array_equal(got.h1_dot, want.h1_dot)
    assert np.array_equal(got.h2_dot, want.h2_dot)


@pytest.mark.parametrize("strike", [10.0, 50.0])
@pytest.mark.parametrize("kind", [EstimatorKind.LDP_SN, EstimatorKind.MDP_SN])
def test_vega_solve_runs_two_positive_starts(params, kind, strike, monkeypatch):
    # on 16 steps the +seed run wins at K = 10 and the +2 seed run at K = 50;
    # either way the two-start solve returns the five default starts' bits
    solves, minimizes = [], []
    solve, minimize = bench.varopt.solve, bench.varopt.optimize.minimize

    def recorded(problem, **kwargs):
        result = solve(problem, **kwargs)
        solves.append((problem, result[0]))
        return result

    monkeypatch.setattr(bench.varopt, "solve", recorded)
    monkeypatch.setattr(bench.varopt.optimize, "minimize",
                        lambda *a, **k: minimizes.append(1) or minimize(*a, **k))
    spec = make_payoff(PayoffKind.VOL_INDICATOR_SWAP, strike, 1.0)
    bench.DriftFactory(params, TimeGrid(16, 1.0)).build(kind, spec)
    ((problem, coeffs),) = solves
    assert len(minimizes) == 2
    seed = np.zeros(problem.n_coeffs)
    seed[problem.extra_index] = 1.0  # unit weight on the variance-response atom
    five_start, _ = solve(problem, budget=2500,
                          starts=[0.0 * seed, seed, -seed, 2.0 * seed, -2.0 * seed])
    assert np.array_equal(coeffs, five_start)


@pytest.mark.parametrize("kind, label", [(EstimatorKind.LDP_SN, "ldp_small_noise"),
                                         (EstimatorKind.MDP_SN, "mdp_log")])
def test_vega_solve_above_its_support_raises_naming_the_problem(params, kind, label):
    # above K = 50 no point the two starts reach is admissible: the build must
    # fail loudly rather than hand a drift off the support to a CSV row
    spec = make_payoff(PayoffKind.VOL_INDICATOR_SWAP, 55.0, 1.0)
    with pytest.raises(OptimError, match=f"no admissible point found for problem '{label}'"):
        bench.DriftFactory(params, TimeGrid(16, 1.0)).build(kind, spec)


#: What perfbench's tracer patches, by hestonis module, with the arguments it
#: reads by position (name, index).
TRACED = {
    "bench": ["run_table", "run_appendix_table", ("run_estimator", "kind", 0),
              ("run_estimator", "spec", 1), ("run_appendix_estimator", "kind", 0),
              ("run_appendix_estimator", "strike", 1), ("DriftFactory.build", "kind", 1),
              "bs_beta", "bs_fully_adaptive", "ldp_optimum", "mdp_log_drift",
              "mdp_price_drift", "mdp_small_time_drift", "mdp_large_time_drift"],
    "sim": ["normal_increments", "simulate_p", "antithetic_pairs",
            ("simulate_q", "rng", 3), ("simulate_q", "drift", 4)],
    "payoff": ["evaluate"],
    "drift_bs": ["bs_fully_adaptive_step"],
    "varopt": ["solve", "VariationalProblem.value"],
}


def test_tracer_targets_exist():
    for module, targets in TRACED.items():
        mod = importlib.import_module(f"hestonis.{module}")
        for target in targets:
            name, arg, index = target if isinstance(target, tuple) else (target, None, None)
            obj = mod
            for part in name.split("."):
                obj = getattr(obj, part)
            assert callable(obj), (module, name)
            if arg is not None:
                params = list(inspect.signature(obj).parameters)
                assert params.index(arg) == index, (module, name, arg)
