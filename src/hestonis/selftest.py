"""Reduced-scale verification checks behind the `selftest` subcommand.

Each check returns (name, passed, detail).
"""

from __future__ import annotations

import math

import numpy as np

from . import varopt
from .drift_bs import bs_beta, bs_problem
from .drift_ldp import LdpMode, riccati_solve
from .drift_mdp import gamma_moments, large_time_constants
from .measure import log_forward_weight
from .model import heston_coefficients, psi_deterministic
from .payoff import PayoffKind, geometric_weight, make_payoff
from . import bench
from .bench import EstimatorKind
from .cli import oracle_gap
from .sim import RngSpec, simulate_p


def riccati_reference_constant_alpha(
    beta: float, a0: float, alpha_const: float, params, grid, mode: LdpMode, t: np.ndarray
) -> np.ndarray:
    """Closed-form solution of A' = -xi A^2/2 + kap A + C for constant alpha.

    Derived by the shift w = A - kap/xi, which separates into
    w' = -xi (w^2 - E)/2 with E = (kap^2 + 2 xi C)/xi^2: a tanh flow for E > 0
    and a tan flow for E < 0 (the argument is multiplied by sqrt(|E|)).
    Evaluated independently of the RK4 integrator; may blow up (returns inf).
    """
    xi, kap_full, rho, rho_bar = params.xi, params.kappa, params.rho, params.rho_bar
    if mode is LdpMode.SMALL_NOISE:
        kap, half = kap_full, 0.5
    else:
        kap, half = 0.0, 0.0
    a = alpha_const
    c_src = 0.5 * xi * beta * a * (half - 0.25 * rho_bar**2 * beta * a - rho * kap / xi)
    e_disc = (kap * kap + 2.0 * xi * c_src) / (xi * xi)
    w0 = a0 - kap / xi
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if e_disc > 0.0:
            s = math.sqrt(e_disc)
            th = np.tanh(0.5 * xi * s * t)
            w = s * (w0 + s * th) / (s + w0 * th)
        elif e_disc < 0.0:
            s = math.sqrt(-e_disc)
            w = s * np.tan(np.arctan2(w0, s) - 0.5 * xi * s * t)
        else:
            w = w0 / (1.0 + 0.5 * xi * w0 * t)
    return kap / xi + w


def _gamma_mc_constants(params, n_samples: int, seed: int = 777):
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    shape = 2.0 * params.kappa * params.theta / params.xi**2
    rate = 2.0 * params.kappa / params.xi**2
    y = gen.gamma(shape, 1.0 / rate, size=n_samples)
    sq = np.sqrt(y)
    c = params.rho - params.xi / (2.0 * params.kappa)
    load = c * c + params.rho_bar**2
    m1, m2 = y.mean(), sq.mean()
    nu_hat = load * (m1 - 0.5 * m2 * m2)
    grad = np.array([load, -load * m2])
    cov = np.cov(np.vstack([y, sq]))
    se_nu = float(np.sqrt(grad @ cov @ grad / n_samples))
    se_m2 = float(np.sqrt(cov[1, 1] / n_samples))
    b_hat = -0.5 * np.array([c, params.rho_bar]) * m2
    se_b = 0.5 * np.abs(np.array([c, params.rho_bar])) * se_m2
    return nu_hat, se_nu, b_hat, se_b


def run_all(cfg) -> list[tuple[str, bool, str]]:
    params = cfg.params()
    grid = cfg.grid()
    n_paths = max(int(cfg.n_paths), 500)
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 50.0, grid.t_end)
    alpha = geometric_weight(grid.t_end)
    results: list[tuple[str, bool, str]] = []

    # deterministic variance path: generic RK4 against the closed form
    psi_c = psi_deterministic(params, grid)
    psi_n = psi_deterministic(params, grid, heston_coefficients(params))
    err = float(np.abs(psi_c - psi_n).max())
    results.append(("psi-closed-form-vs-rk4", err <= 1e-10, f"sup err {err:.2e}"))

    # Riccati RK4 vs independent separable solution (constant weight)
    from .payoff import european_weight

    t_fine = np.linspace(0.0, grid.t_end, grid.n_steps * 4 + 1)
    worst = 0.0
    for beta, a0 in ((0.8, 0.3), (2.5, -0.6)):
        fam = riccati_solve(beta, a0, european_weight(grid.t_end), params, grid, LdpMode.SMALL_NOISE)
        ref = riccati_reference_constant_alpha(beta, a0, 1.0, params, grid, LdpMode.SMALL_NOISE, t_fine)
        keep = np.isfinite(ref) & (np.abs(ref) < 1e5)
        worst = max(worst, float(np.abs(fam.a_fine[keep] - ref[keep]).max()))
    results.append(("riccati-rk4-vs-separable", worst <= 1e-6, f"sup err {worst:.2e}"))

    # invariant-measure moments against quadrature
    from scipy import integrate
    from scipy.stats import gamma as gamma_dist

    shape = 2.0 * params.kappa * params.theta / params.xi**2
    rate = 2.0 * params.kappa / params.xi**2
    quad_val, _ = integrate.quad(
        lambda y: np.sqrt(y) * gamma_dist.pdf(y, shape, scale=1.0 / rate), 0.0, np.inf
    )
    _, esq = gamma_moments(params)
    err = abs(esq - quad_val)
    results.append(("gamma-moments-vs-quadrature", err <= 1e-8, f"err {err:.2e}"))

    # invariant-measure constants against Gamma Monte Carlo
    consts = large_time_constants(params)
    n_mc = int(min(max(10 * n_paths, 100_000), 10_000_000))
    nu_hat, se_nu, b_hat, se_b = _gamma_mc_constants(params, n_mc)
    dev = abs(consts.nu - nu_hat)
    ok = dev <= 4.0 * se_nu and bool(np.all(np.abs(consts.bvec - b_hat) <= 4.0 * se_b))
    results.append(
        ("constants-vs-gamma-mc", ok, f"|nu dev| {dev:.2e} vs 4se {4*se_nu:.2e} (N={n_mc})")
    )

    # scalar root against the single-atom reduced-basis solve
    sigma = np.sqrt(psi_c)
    red = bs_beta(spec, sigma, alpha, grid, params)
    problem = bs_problem(spec, params, grid, sigma, rich_basis=False)
    coeffs, _ = varopt.solve(problem, init=np.array([red.beta_star]), budget=600)
    dev = abs(float(coeffs[0]) - red.beta_star)
    results.append(("bs-root-vs-reduced-basis", dev <= 1e-4, f"|dbeta| {dev:.2e}"))

    # oracle agreement for the small-noise LDP drift
    factory = bench.DriftFactory(params, grid)
    gap, cf_val = oracle_gap(EstimatorKind.LDP_SN, spec, factory, 1200)
    ok = gap >= -1e-6 and gap <= 2e-3 * max(1.0, abs(cf_val))
    results.append(("ldp-oracle-agreement", ok, f"gap {gap:.2e}"))

    # martingale of the change of measure under the base dynamics
    drift, _ = factory.build(EstimatorKind.BS, spec)
    batch = simulate_p(params, grid, n_paths, RngSpec(cfg.seed, 0))
    z = np.exp(log_forward_weight(batch, drift))
    se = z.std(ddof=1) / math.sqrt(n_paths)
    dev = abs(z.mean() - 1.0)
    results.append(("weight-martingale", dev <= 4.0 * se, f"|E[Z]-1| {dev:.2e} vs 4se {4*se:.2e}"))

    # unbiasedness: drift estimator against the classic one, paired seeds
    rep_c, rep_b = bench.run_table(spec.kind, [spec.strike],
                                   [EstimatorKind.CLASSIC, EstimatorKind.BS],
                                   params, grid, n_paths, cfg.seed)
    tol = 4.0 * math.hypot(rep_c.std_err, rep_b.std_err)
    dev = abs(rep_c.price - rep_b.price)
    results.append(("unbiasedness", dev <= tol, f"|dprice| {dev:.2e} vs {tol:.2e}"))

    return results
