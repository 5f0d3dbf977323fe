import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import optimize

from hestonis import drift_bs, varopt
from hestonis.drift_bs import (
    A2_ROOT_PASSES,
    BETA_BRACKET_HI,
    BETA_BRACKET_LO,
    ROOT_PASSES,
    _cold_start,
    _root_bracket,
    bs_beta,
    bs_drift,
    bs_fully_adaptive,
    bs_problem,
    bs_root,
    bs_scale,
    call_curve,
    _vector_bs_root,
)
from hestonis.errors import OptimError
from hestonis.measure import log_inverse_weight
from hestonis.model import TimeGrid, psi_deterministic
from hestonis.payoff import PayoffKind, make_payoff
from hestonis.sim import RngSpec, simulate_q


def test_root_equation_unit_case():
    # v = 1, c = 2 - log 2 has the exact root beta = 2
    beta = bs_root(1.0, 2.0 - np.log(2.0))
    assert beta == pytest.approx(2.0, abs=1e-10)
    resid = 1.0 * beta + np.log(beta - 1.0) - np.log(beta) - (2.0 - np.log(2.0))
    assert abs(resid) <= 1e-10


def test_deep_in_the_money_pins_at_one():
    assert bs_root(0.02, -80.0) == pytest.approx(1.0, abs=1e-9)


def test_root_does_not_fall_below_the_pin():
    # c at the pin (c = v - 745), then above it: the roots there, 1 + e^u with
    # u far below log(1e-12), used to round to 1.0, under the pinned value
    v = 0.05
    c = v - 745.0 + np.array([-1.0, 0.0, 1e-9, 1.0, 50.0, 695.0, 716.0, 717.0, 718.0, 719.0,
                              725.0, 735.0])
    got = _vector_bs_root(np.full(c.size, v), c)
    assert got[0] == got[1] == BETA_BRACKET_LO
    assert np.all(got >= BETA_BRACKET_LO)
    assert np.all(np.diff(got) >= 0.0)
    assert got[-1] > BETA_BRACKET_LO
    for ci, bi in zip(c, got):
        assert bs_root(v, ci) == bi


def test_unreachable_payoff_raises():
    with pytest.raises(OptimError):
        bs_root(1e-7, 5.0)


def _root_moments(spec, sigma, grid, params):
    """(v, c) of the root equation v beta + log((beta - 1) / beta) = c, and
    the payoff's slope F', from the weighted call and the volatility path."""
    a = spec.weight.on_grid(grid)
    v = float(((a[:-1] * sigma[:-1]) ** 2).sum() * grid.dt)
    shift = 0.5 * float((a[:-1] * sigma[:-1] ** 2).sum() * grid.dt)
    _, fp, c = call_curve(spec, params, shift)
    return v, c, fp


def test_root_residual_and_stationarity(params, grid):
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 60.0, 1.0)
    sigma = np.sqrt(psi_deterministic(params, grid))
    red = bs_beta(spec, sigma, spec.weight, grid, params)
    v, c, fp = _root_moments(spec, sigma, grid, params)
    resid = v * red.beta_star + np.log(red.beta_star - 1.0) - np.log(red.beta_star) - c
    assert abs(resid) <= 1e-10
    assert abs(fp(red.beta_star * v) - red.beta_star) <= 1e-10


class TestDriftEmbedding:
    def test_zero_beta_gives_zero_schedule(self, grid):
        alpha = np.ones(grid.n_steps + 1)
        sigma = np.full(grid.n_steps + 1, 0.25)
        d = bs_drift(0.0, sigma, alpha, -0.5)
        assert np.all(d.h1_dot == 0.0)
        assert np.all(d.h2_dot == 0.0)

    def test_zero_correlation_uses_orthogonal_channel_only(self, grid):
        alpha = np.ones(grid.n_steps + 1)
        sigma = np.full(grid.n_steps + 1, 0.25)
        d = bs_drift(2.0, sigma, alpha, 0.0)
        assert np.all(d.h1_dot == 0.0)
        assert_allclose(d.h2_dot, 0.5)

    def test_unit_weight_arithmetic(self, grid):
        alpha = np.ones(grid.n_steps + 1)
        sigma = np.full(grid.n_steps + 1, 0.25)
        d = bs_drift(2.0, sigma, alpha, -0.5)
        assert_allclose(d.h1_dot, -0.25, atol=1e-15)
        assert_allclose(d.h2_dot, 0.25 * np.sqrt(3.0), atol=1e-15)

    def test_channel_reconstruction(self, params, grid):
        spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 55.0, 1.0)
        sigma = np.sqrt(psi_deterministic(params, grid))
        red = bs_beta(spec, sigma, spec.weight, grid, params)
        d = bs_drift(red.beta_star, sigma, red.alpha, params.rho)
        lhs = params.rho * d.h1_dot + params.rho_bar * d.h2_dot
        assert np.abs(lhs - red.beta_star * red.alpha * sigma).max() <= 1e-14


def test_single_atom_oracle_reproduces_root(params):
    # constant sigma = 0.25, geometric weight, far strike
    grid = TimeGrid(252, 1.0)
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 80.0, 1.0)
    sigma = np.full(grid.n_steps + 1, 0.25)
    red = bs_beta(spec, sigma, spec.weight, grid, params)
    problem = bs_problem(spec, params, grid, sigma, rich_basis=False)
    coeffs, _ = varopt.solve(problem, init=np.array([red.beta_star]), budget=800)
    assert abs(float(coeffs[0]) - red.beta_star) <= 1e-4


class TestFullyAdaptive:
    def test_first_step_matches_static_problem(self, params, grid):
        spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 50.0, 1.0)
        sched = bs_fully_adaptive(spec, params, grid)
        v0 = np.full(8, params.v0)
        m1, m2 = sched.step_fn(0, np.zeros(8), v0)
        sigma0 = np.full(grid.n_steps + 1, np.sqrt(params.v0))
        red = bs_beta(spec, sigma0, spec.weight, grid, params)
        want = red.beta_star * 1.0 * np.sqrt(params.v0)
        assert_allclose(m1, params.rho * want, rtol=1e-9)
        assert_allclose(m2, params.rho_bar * want, rtol=1e-9)

    def test_deep_accumulated_state_shrinks_beta(self, params, grid):
        spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 50.0, 1.0)
        sched = bs_fully_adaptive(spec, params, grid)
        i = 60
        v = np.full(2, params.v0)
        m_flat, _ = sched.step_fn(i, np.zeros(2), v)
        m_itm, _ = sched.step_fn(i, np.full(2, 4.0), v)
        assert np.all(np.abs(m_itm) < np.abs(m_flat))
        # beta near 1 deep in the money: |m| ~ alpha sigma
        a_i = spec.weight.on_grid(grid)[i]
        assert np.abs(np.abs(m_itm) - np.abs(params.rho) * a_i * np.sqrt(params.v0)).max() < 5e-3

    def test_near_expiry_values_stay_finite(self, params, grid):
        spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 50.0, 1.0)
        sched = bs_fully_adaptive(spec, params, grid)
        i = grid.n_steps - 1
        y = np.array([-0.5, -0.01, 0.0, 0.2])
        m1, m2 = sched.step_fn(i, y, np.full(4, params.v0))
        assert np.all(np.isfinite(m1)) and np.all(np.isfinite(m2))

    def test_unreachable_payoff_returns_zero_drift(self, params, grid):
        spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 50.0, 1.0)
        sched = bs_fully_adaptive(spec, params, grid)
        i = grid.n_steps - 1
        m1, m2 = sched.step_fn(i, np.full(3, -3.0), np.full(3, params.v0))
        assert np.all(m1 == 0.0) and np.all(m2 == 0.0)


def _brentq_root(v, c):
    """Reference root in beta by brentq: the bracket floor when pinned, nan when unreachable."""
    if not v > 0.0:
        return np.nan

    def g(b):
        return v * b + np.log(b - 1.0) - np.log(b) - c

    if g(BETA_BRACKET_LO) >= 0.0:
        return BETA_BRACKET_LO
    if g(BETA_BRACKET_HI) < 0.0:
        return np.nan
    return optimize.brentq(g, BETA_BRACKET_LO, BETA_BRACKET_HI, xtol=1e-14, rtol=8.9e-16)


def _assert_matches_brentq(v, c, rtol=1e-10, passes=ROOT_PASSES):
    got = _vector_bs_root(v, c, passes=passes)
    want = np.array([_brentq_root(vi, ci) for vi, ci in zip(v, c)])
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    assert np.all(np.abs(got[finite] - want[finite]) <= rtol * want[finite])
    return got


def test_vector_root_matches_scalar():
    v = np.array([0.02, 0.4, 1.0, 3.0])
    c = np.array([-0.3, 0.1, 2.0 - np.log(2.0), 1.0])
    betas = _assert_matches_brentq(v, c)
    for vi, ci, bi in zip(v, c, betas):
        assert bs_root(vi, ci) == bi


def test_vector_root_matches_brentq_across_regimes():
    v_grid = np.array([1e-6, 1e-3, 0.02, 1.0, 50.0])
    c_grid = np.array([-1000.0, -745.0, -100.0, -30.0, -5.0, -0.5, 0.0, 0.3, 2.0, 10.0, 3e3])
    v, c = (a.ravel() for a in np.meshgrid(v_grid, c_grid))
    # roots near the top of the bracket, from c = v beta + log(1 - 1/beta)
    beta = np.array([5e5, 9.9e5, 999_999.0])
    for v_top in (1e-6, 1e-4):
        v = np.concatenate([v, np.full(beta.size, v_top)])
        c = np.concatenate([c, v_top * beta + np.log1p(-1.0 / beta)])
    v = np.concatenate([v, [0.0, -1e-3, -1.0]])
    c = np.concatenate([c, [0.1, -1.0, 5.0]])
    got = _assert_matches_brentq(v, c)
    assert np.all(np.isnan(got[v <= 0.0]))
    assert np.any(got == BETA_BRACKET_LO)  # pinned: c <= v - 745
    assert np.any((got > 1.0) & (got < 1.0 + 1e-9))  # beta -> 1: u << 0
    assert np.any(got > 9.9e5)  # near the top of the bracket
    assert np.any(np.isnan(got[v > 0.0]))  # unreachable


def test_closed_form_bracket_masks_match_g_at_the_bracket_ends():
    rng = np.random.default_rng(16)
    n = 20_000
    v = 10.0 ** rng.uniform(-12.0, 3.0, n)
    # c on both bracket tests' boundaries, a few ulps either side, and at random
    c_lo = v - 745.0
    c_hi = v * (1.0 + BETA_BRACKET_HI) + np.log(BETA_BRACKET_HI) - np.log1p(BETA_BRACKET_HI)
    jitter = rng.integers(-4, 5, n) * np.spacing(np.maximum(np.abs(c_lo), np.abs(c_hi)))
    pick = rng.integers(0, 3, n)
    c = np.where(pick == 0, c_lo, np.where(pick == 1, c_hi, rng.uniform(-800.0, 800.0, n)))
    c = c + np.where(pick < 2, jitter, 0.0)

    def g(u):
        b = 1.0 + np.exp(u)
        return v * b + u - np.log(b) - c

    pinned, unreachable = _root_bracket(v, c)
    assert np.array_equal(pinned, g(np.full(n, -745.0)) >= 0.0)
    assert np.array_equal(unreachable, g(np.full(n, np.log(BETA_BRACKET_HI))) < 0.0)


def test_no_root_exceeds_the_top_the_error_names():
    with pytest.raises(OptimError, match="no root below beta") as err:
        bs_root(1e-3, 2e3)
    top = float(str(err.value).rsplit("= ", 1)[1])
    # the bracket's top is 1 + 1e6 in beta, above BETA_BRACKET_HI
    assert BETA_BRACKET_HI < bs_root(1e-3, 1e3) <= top
    rng = np.random.default_rng(17)
    v = 10.0 ** rng.uniform(-9.0, 0.0, 4_000)
    # c at random roots in the top decade, and within ulps below the unreachable edge
    beta = rng.uniform(1e5, top, v.size)
    c_edge = v * top + np.log(top - 1.0) - np.log(top)
    c = np.where(rng.random(v.size) < 0.5, v * beta + np.log1p(-1.0 / beta),
                 c_edge - rng.integers(0, 64, v.size) * np.spacing(c_edge))
    got = _vector_bs_root(v, c)
    assert np.isfinite(got).sum() > v.size // 2
    assert np.nanmax(got) <= top


def test_root_converges_well_inside_the_pass_cap():
    """States like BS_A2's at K = 30-70 are solved to 1e-10 within 8 passes.

    The solve starts above the root, so lo stays at the bracket floor while
    Newton walks down. A step that no longer moves u lands on hi: if that
    counted as outside the bracket, the path would be bisected back out
    towards U_LO and need far more passes than the cap.
    """
    rng = np.random.default_rng(30)
    v = rng.uniform(6e-4, 1.3e-2, 2_000)
    c = rng.uniform(-0.6, 0.2, 2_000)
    _assert_matches_brentq(v, c, passes=8)


def test_bs_scale_matches_root_when_moments_agree(params, grid):
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 60.0, 1.0)
    sigma = np.sqrt(psi_deterministic(params, grid))
    red = bs_beta(spec, sigma, spec.weight, grid, params)
    v, c, _ = _root_moments(spec, sigma, grid, params)
    beta = bs_scale(v, v, c)
    assert beta == pytest.approx(red.beta_star, rel=1e-10)


def test_bs_scale_needs_positive_moments():
    for s1, s2 in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)):
        with pytest.raises(OptimError, match="positive moments"):
            bs_scale(s1, s2, 0.1)


def _compacting_reference(v, c, passes):
    """The root as one path of ``_vector_bs_root`` computed it in at most
    ``passes`` passes before its work vectors were reused: fresh arrays on
    every pass, the live set compacted on every pass. Same operations in the
    same order per path."""
    v, c = np.broadcast_arrays(np.asarray(v, dtype=float), np.asarray(c, dtype=float))
    pinned, unreachable = _root_bracket(v, c)
    ok = v > 0.0
    beta = np.where(pinned & ok, BETA_BRACKET_LO, np.nan)
    idx = np.flatnonzero(ok & ~pinned & ~unreachable)
    v, c = v.ravel()[idx], c.ravel()[idx]
    u = _cold_start(v, c)
    lo = np.full(u.shape, drift_bs.U_LO)
    hi = np.full(u.shape, drift_bs.U_HI)
    root = np.empty(u.shape)
    live = np.arange(u.size)
    for _ in range(passes):
        e = np.exp(u)
        b = 1.0 + e
        g = v * b + u - np.log(b) - c
        below = g < 0.0
        lo = np.where(below, u, lo)
        hi = np.where(below, hi, u)
        u_new = u - g / (v * e + 1.0 / b)
        u_new = np.where((u_new < lo) | (u_new > hi), 0.5 * (lo + hi), u_new)
        done = np.abs(u_new - u) <= drift_bs.ROOT_UTOL * (1.0 + np.abs(u))
        root[live] = u_new
        if done.all():
            break
        keep = ~done
        live, u, v, c, lo, hi = live[keep], u_new[keep], v[keep], c[keep], lo[keep], hi[keep]
    beta.flat[idx] = np.maximum(1.0 + np.exp(root), BETA_BRACKET_LO)
    return beta


def _root_regimes(n=2_000, seed=20):
    """(v, c) pairs across every branch of the root: pinned, unreachable,
    v <= 0, beta near 1, beta near the top of the bracket, BS_A2-like states."""
    rng = np.random.default_rng(seed)
    v = 10.0 ** rng.uniform(-7.0, 1.0, n)
    top = 1.0 + BETA_BRACKET_HI
    pick = rng.integers(0, 6, n)
    beta_hi = rng.uniform(1e5, top, n)
    c = np.select(
        [pick == 0, pick == 1, pick == 2, pick == 3, pick == 4],
        [v - 745.0 - rng.uniform(0.0, 5.0, n),  # pinned
         v * top + np.log1p(-1.0 / top) + rng.uniform(0.0, 5.0, n),  # unreachable
         rng.uniform(-5.0, 5.0, n),  # v <= 0 below
         v - 745.0 + rng.uniform(1.0, 720.0, n),  # beta near 1
         v * beta_hi + np.log1p(-1.0 / beta_hi)],  # beta near 1e6
        rng.uniform(-0.6, 0.2, n),  # BS_A2's states
    )
    v = np.where(pick == 2, -rng.uniform(0.0, 1.0, n), v)
    return v, c


def _recorded_root_calls(params, n_paths=2_000):
    """Every (v, c) BS_A2 hands the root on one 64-step K = 30 chunk."""
    grid = TimeGrid(64, 1.0)
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 30.0, 1.0)
    calls = []
    solve = drift_bs._vector_bs_root

    def recording(v, c, passes):
        calls.append((np.copy(v), np.copy(c)))
        return solve(v, c, passes=passes)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(drift_bs, "_vector_bs_root", recording)
        simulate_q(params, grid, n_paths, RngSpec(30), bs_fully_adaptive(spec, params, grid),
                   specs=[spec])
    assert len(calls) == grid.n_steps
    return calls


@pytest.mark.parametrize(
    "passes", [ROOT_PASSES, 1, 2, 3, pytest.param(A2_ROOT_PASSES, id="A2_ROOT_PASSES")])
def test_root_is_the_compacting_reference_bit_for_bit(params, passes):
    # fewer passes than a path needs leave it live when the passes run out
    cases = [_root_regimes(), (np.array([0.02]), np.array([-0.3])), (0.02, -0.3)]
    cases += _recorded_root_calls(params)
    for v, c in cases:
        got = _vector_bs_root(v, c, passes=passes)
        want = _compacting_reference(v, c, passes)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)


def test_scalar_root_is_the_full_pass_vector_root():
    v, c = _root_regimes()
    want = _vector_bs_root(v, c, passes=ROOT_PASSES)
    for vi, ci, wi in zip(v, c, want):
        if np.isnan(wi):
            with pytest.raises(OptimError):
                bs_root(vi, ci)
        else:
            assert bs_root(vi, ci) == wi


def test_capped_roots_of_bs_a2_states_are_within_1e_6_of_brentq(params):
    for v, c in _recorded_root_calls(params):
        got = _vector_bs_root(v, c, passes=A2_ROOT_PASSES)
        full = _vector_bs_root(v, c)
        assert np.array_equal(np.isnan(got), np.isnan(full))
        # brentq on the 64 paths farthest from the full solve and every 16th path
        with np.errstate(invalid="ignore"):
            gap = np.nan_to_num(np.abs(got - full) / full)
        pick = np.union1d(np.argsort(gap)[-64:], np.arange(0, v.size, 16))
        want = np.array([_brentq_root(v[i], c[i]) for i in pick])
        assert np.array_equal(np.isnan(got[pick]), np.isnan(want))
        ok = ~np.isnan(want)
        assert np.all(np.abs(got[pick][ok] - want[ok]) <= 1e-6 * want[ok])


def test_capped_per_step_weight_has_unit_mean(params):
    """E_Q[1/Z] = 1 for the drift the capped root applies: the estimator stays
    unbiased whatever the root's error, because the weight reads that drift."""
    grid = TimeGrid(64, 1.0)
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 30.0, 1.0)
    drift = bs_fully_adaptive(spec, params, grid)
    batch = simulate_q(params, grid, 20_000, RngSpec(31), drift, specs=[spec])
    w = np.exp(log_inverse_weight(batch, drift))
    assert np.all(w != 1.0)  # the drift is live on every path
    se = w.std(ddof=1) / np.sqrt(w.size)
    assert abs(w.mean() - 1.0) <= 3.0 * se


def test_root_regimes_reach_every_branch():
    v, c = _root_regimes()
    pinned, unreachable = _root_bracket(v, c)
    beta = _vector_bs_root(v, c)
    ok = v > 0.0
    assert np.any(pinned & ok) and np.any(unreachable & ok) and np.any(~ok)
    assert np.any((beta > 1.0) & (beta < 1.0 + 1e-9))
    assert np.any(beta > 0.9 * BETA_BRACKET_HI)
