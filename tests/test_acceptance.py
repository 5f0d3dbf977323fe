"""End-to-end acceptance checks at desk scale (100k paths, 252 steps).

Each check prints one `[criterion N] PASS/FAIL` line (run with -s to stream).
Targets and tolerances are pinned here; Monte Carlo checks run at fixed seeds.
"""

import math
import time

import numpy as np
import pytest

from hestonis import varopt
from hestonis.bench import (
    DriftFactory,
    EstimatorKind,
    run_appendix_table,
    run_table,
)
from hestonis.drift_bs import bs_beta, bs_problem, bs_root, call_curve
from hestonis.drift_ldp import (
    LdpMode,
    atom_coefficients,
    ldp_optimum,
    ldp_paths,
    ldp_problem,
    riccati_solve,
    _fine_knots,
)
from hestonis.drift_mdp import (
    gamma_moments,
    large_time_constants,
    large_time_problem,
    mdp_large_time_drift,
    mdp_log_drift,
    mdp_log_problem,
    mdp_price_drift,
    mdp_price_problem,
    mdp_small_time_drift,
)
from hestonis.measure import log_forward_weight
from hestonis.model import (
    EQUITY_PARAMS,
    TimeGrid,
    heston_coefficients,
    psi_deterministic,
)
from hestonis.payoff import PayoffKind, european_weight, make_payoff
from hestonis.selftest import _gamma_mc_constants, riccati_reference_constant_alpha
from hestonis.sim import RngSpec, simulate_p

pytestmark = pytest.mark.acceptance

PARAMS = EQUITY_PARAMS
GRID = TimeGrid(252, 1.0)
N_PATHS = 100_000
SEED = 20240

MARTINGALE_KINDS = [
    EstimatorKind.BS, EstimatorKind.BS_A,
    EstimatorKind.LDP_SN, EstimatorKind.LDP_SN_A, EstimatorKind.LDP_ST,
    EstimatorKind.MDP_SN_LOG_A, EstimatorKind.MDP_SN, EstimatorKind.MDP_SN_A,
    EstimatorKind.MDP_ST, EstimatorKind.MDP_LT,
]


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


@pytest.fixture(scope="module")
def main_table():
    kinds = [EstimatorKind.CLASSIC, EstimatorKind.ANTITHETIC] + MARTINGALE_KINDS
    t0 = time.time()
    reports = run_table(
        PayoffKind.GEOMETRIC_ASIAN_CALL, [40.0, 50.0, 60.0, 65.0, 70.0],
        kinds, PARAMS, GRID, N_PATHS, SEED,
    )
    out = {(r.kind, r.strike): r for r in reports}
    out["elapsed"] = time.time() - t0
    return out


@pytest.fixture(scope="module")
def itm_table():
    kinds = [
        EstimatorKind.CLASSIC, EstimatorKind.ANTITHETIC, EstimatorKind.BS_A2,
        EstimatorKind.BS, EstimatorKind.BS_A,
        EstimatorKind.LDP_SN, EstimatorKind.LDP_SN_A,
        EstimatorKind.LDP_ST, EstimatorKind.LDP_ST_A,
        EstimatorKind.MDP_SN_LOG, EstimatorKind.MDP_SN_LOG_A,
        EstimatorKind.MDP_SN, EstimatorKind.MDP_SN_A,
        EstimatorKind.MDP_ST, EstimatorKind.MDP_ST_A, EstimatorKind.MDP_LT,
    ]
    reports = run_table(
        PayoffKind.GEOMETRIC_ASIAN_CALL, [30.0, 35.0], kinds,
        PARAMS, GRID, N_PATHS, SEED,
    )
    return {(r.kind, r.strike): r for r in reports}


def test_criterion_1_martingale_suite():
    t0 = time.time()
    factory = DriftFactory(PARAMS, GRID)
    failures = []
    for strike in (40.0, 50.0, 60.0):
        spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, strike, GRID.t_end)
        drifts = {k: factory.build(k, spec)[0] for k in MARTINGALE_KINDS}
        sums = {k: [0.0, 0.0, 0] for k in drifts}
        for chunk in range(4):
            batch = simulate_p(PARAMS, GRID, 25_000, RngSpec(SEED, chunk))
            for k, drift in drifts.items():
                z = np.exp(log_forward_weight(batch, drift))
                sums[k][0] += float(z.sum())
                sums[k][1] += float((z * z).sum())
                sums[k][2] += z.size
        for k, (s1, s2, n) in sums.items():
            mean = s1 / n
            se = math.sqrt(max(s2 / n - mean * mean, 0.0) / n)
            if abs(mean - 1.0) > 4.0 * se:
                failures.append(f"{k.value}@K={strike}: E[Z]={mean:.5f} 4se={4*se:.2e}")
    elapsed = time.time() - t0
    ok = not failures and elapsed <= 300.0
    assert _report(
        "1", ok,
        f"martingale E[Z]=1 within 4se for {len(MARTINGALE_KINDS)} kinds x 3 strikes "
        f"({elapsed:.0f}s){'; ' + '; '.join(failures) if failures else ''}",
    )


def test_criterion_2_unbiasedness(main_table):
    failures = []
    for strike in (40.0, 50.0, 60.0):
        base = main_table[("Classic", strike)]
        for kind in MARTINGALE_KINDS:
            rep = main_table[(kind.value, strike)]
            tol = 4.0 * math.hypot(base.std_err, rep.std_err)
            if abs(rep.price - base.price) > tol:
                failures.append(
                    f"{kind.value}@K={strike}: |d|={abs(rep.price - base.price):.2e} > {tol:.2e}"
                )
    assert _report(
        "2", not failures,
        "all drift estimators price within 4 combined se of classic at K=40/50/60"
        + ("; " + "; ".join(failures) if failures else ""),
    )


def test_criterion_3_variance_reduction_bands(main_table):
    bands = [
        ("BS", 50.0, 3.5, 14.0),
        ("LDPsn", 50.0, 3.3, 13.0),
        ("MDPsnLog_A", 50.0, 4.0, 17.0),
        ("Antithetic", 50.0, 2.0, 8.5),
        ("LDPsn", 60.0, 10.0, 40.0),
        ("MDPsn_A", 60.0, 12.0, 50.0),
        ("LDPsn", 70.0, 70.0, math.inf),
        ("BS", 70.0, 40.0, 250.0),
    ]
    details, ok = [], True
    for kind, strike, lo, hi in bands:
        vr = main_table[(kind, strike)].var_reduction
        inside = lo <= vr <= hi
        ok = ok and inside
        details.append(f"{kind}@{strike:.0f}={vr:.1f}{'' if inside else f'!in[{lo},{hi}]'}")
    ok = ok and main_table["elapsed"] <= 900.0
    assert _report("3", ok, " ".join(details) + f" ({main_table['elapsed']:.0f}s)")


def test_criterion_4_probability_column(main_table):
    targets = {40.0: 0.9, 50.0: 0.52, 60.0: 0.096}
    details, ok = [], True
    for strike, target in targets.items():
        prob = main_table[("Classic", strike)].prob_positive
        inside = abs(prob - target) <= 0.02
        ok = ok and inside
        details.append(f"K={strike:.0f}: {prob:.4f} vs {target}{'' if inside else ' OUT'}")
    # Known red at K=40 and K=50: the reference values are not reproducible
    # from the stated dynamics (the companion entries at K<=35 are impossible
    # under any drift or rate convention).
    assert _report("4", ok, "classic prob-positive vs reference +-0.02: " + "; ".join(details))


def test_criterion_5_rare_event_ordering(main_table, itm_table):
    ldp65 = main_table[("LDPsn", 65.0)].var_reduction
    ant65 = main_table[("Antithetic", 65.0)].var_reduction
    ok = ldp65 > 10.0 * ant65
    details = [f"K=65: LDPsn {ldp65:.1f} vs 10x Ant {10*ant65:.1f}"]
    for strike in (30.0, 35.0):
        a2 = itm_table[("BS_A2", strike)].var_reduction
        rest = {
            k: r.var_reduction for (k, s), r in itm_table.items()
            if s == strike and k != "BS_A2"
        }
        best_other = max(rest, key=rest.get)
        ok = ok and a2 > rest[best_other]
        details.append(f"K={strike:.0f}: BS_A2 {a2:.0f} vs best other {best_other} {rest[best_other]:.0f}")
    assert _report("5", ok, "; ".join(details))


def test_criterion_6_constant_vol_table():
    kinds = [
        EstimatorKind.CLASSIC, EstimatorKind.ANTITHETIC,
        EstimatorKind.CONTROL_GEOMETRIC, EstimatorKind.BS,
    ]
    reports = run_appendix_table([50.0, 70.0], kinds, PARAMS, 0.25, GRID, N_PATHS, SEED)
    vr = {(r.kind, r.strike): r.var_reduction for r in reports}
    checks = [
        ("BS", 50.0, 4.0, 18.0),
        ("Antithetic", 50.0, 1.9, 7.6),
        ("ControlGeometric", 50.0, 150.0, 700.0),
        ("BS", 70.0, 40.0, math.inf),
    ]
    ok, details = True, []
    for kind, strike, lo, hi in checks:
        inside = lo <= vr[(kind, strike)] <= hi
        ok = ok and inside
        details.append(f"{kind}@{strike:.0f}={vr[(kind, strike)]:.1f}{'' if inside else f'!in[{lo},{hi}]'}")
    assert _report("6", ok, " ".join(details))


def test_criterion_7_variance_payoff_checks():
    kinds = [
        EstimatorKind.CLASSIC, EstimatorKind.ANTITHETIC,
        EstimatorKind.LDP_SN, EstimatorKind.LDP_SN_A,
    ]
    reports = run_table(
        PayoffKind.VOL_INDICATOR_SWAP, [10.0, 50.0], kinds, PARAMS, GRID, N_PATHS, SEED
    )
    vr = {(r.kind, r.strike): r.var_reduction for r in reports}
    ok = (
        vr[("LDPsn", 10.0)] >= 50.0
        and vr[("LDPsn", 10.0)] > vr[("LDPsn_A", 10.0)]
        and vr[("Antithetic", 50.0)] > vr[("LDPsn", 50.0)]
    )
    assert _report(
        "7", ok,
        f"K=10: LDPsn {vr[('LDPsn', 10.0)]:.0f} (>=50), adaptive {vr[('LDPsn_A', 10.0)]:.0f}; "
        f"K=50: Ant {vr[('Antithetic', 50.0)]:.1f} vs LDPsn {vr[('LDPsn', 50.0)]:.2f}",
    )


def test_criterion_8_deterministic_oracles():
    details, ok = [], True

    # Riccati RK4 against the independent separable solution
    worst = 0.0
    for mode in (LdpMode.SMALL_NOISE, LdpMode.SMALL_TIME):
        for beta, a0 in ((0.8, 0.3), (2.5, -0.6), (6.0, 1.2)):
            fam = riccati_solve(beta, a0, european_weight(1.0), PARAMS, GRID, mode)
            ref = riccati_reference_constant_alpha(
                beta, a0, 1.0, PARAMS, GRID, mode, _fine_knots(GRID)
            )
            keep = np.isfinite(ref) & (np.abs(ref) < 1e5)
            worst = max(worst, float(np.abs(fam.a_fine[keep] - ref[keep]).max()))
    ok &= worst <= 1e-6
    details.append(f"riccati {worst:.1e}<=1e-6")

    # deterministic variance path: closed form vs generic RK4
    err = float(np.abs(
        psi_deterministic(PARAMS, GRID)
        - psi_deterministic(PARAMS, GRID, heston_coefficients(PARAMS))
    ).max())
    ok &= err <= 1e-10
    details.append(f"psi {err:.1e}<=1e-10")

    # invariant-measure moments against adaptive quadrature
    from scipy import integrate
    from scipy.stats import gamma as gamma_dist

    shape = 2.0 * PARAMS.kappa * PARAMS.theta / PARAMS.xi**2
    rate = 2.0 * PARAMS.kappa / PARAMS.xi**2
    ref_esq, _ = integrate.quad(
        lambda y: np.sqrt(y) * gamma_dist.pdf(y, shape, scale=1.0 / rate), 0.0, np.inf
    )
    _, esq = gamma_moments(PARAMS)
    ok &= abs(esq - ref_esq) <= 1e-8
    details.append(f"gamma-moment {abs(esq - ref_esq):.1e}<=1e-8")

    # reduced-problem constants against a 1e7-sample Gamma Monte Carlo
    consts = large_time_constants(PARAMS)
    nu_hat, se_nu, b_hat, se_b = _gamma_mc_constants(PARAMS, 10_000_000)
    ok_mc = abs(consts.nu - nu_hat) <= 4.0 * se_nu and bool(
        np.all(np.abs(consts.bvec - b_hat) <= 4.0 * se_b)
    )
    ok &= ok_mc
    details.append(f"constants-mc |dnu|={abs(consts.nu - nu_hat):.1e}<= {4*se_nu:.1e}")

    # scalar root: residual and the exact substitution case
    beta2 = bs_root(1.0, 2.0 - math.log(2.0))
    ok &= abs(beta2 - 2.0) <= 1e-10
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 60.0, GRID.t_end)
    sigma = np.sqrt(psi_deterministic(PARAMS, GRID))
    red = bs_beta(spec, sigma, spec.weight, GRID, PARAMS)
    a = spec.weight.on_grid(GRID)
    v = float(((a[:-1] * sigma[:-1]) ** 2).sum() * GRID.dt)
    _, _, c = call_curve(spec, PARAMS, 0.5 * float((a[:-1] * sigma[:-1] ** 2).sum() * GRID.dt))
    resid = abs(v * red.beta_star + math.log(red.beta_star - 1.0) - math.log(red.beta_star) - c)
    ok &= resid <= 1e-10
    details.append(f"root beta2 {abs(beta2-2.0):.1e}, residual {resid:.1e}<=1e-10")

    assert _report("8", ok, "; ".join(details))


def _oracle_case(pipeline: str, strike: float):
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, strike, GRID.t_end)
    alpha = spec.weight
    if pipeline == "bs":
        sigma = np.sqrt(psi_deterministic(PARAMS, GRID))
        red = bs_beta(spec, sigma, alpha, GRID, PARAMS)
        problem = bs_problem(spec, PARAMS, GRID, sigma, rich_basis=True)
        init = np.zeros(problem.n_coeffs)
        init[0] = red.beta_star
        return problem, init
    if pipeline in ("ldp_sn", "ldp_st"):
        mode = LdpMode.SMALL_NOISE if pipeline == "ldp_sn" else LdpMode.SMALL_TIME
        a0_s, beta_s, _ = ldp_optimum(spec, alpha, PARAMS, GRID, mode)
        paths = ldp_paths(beta_s, a0_s, alpha, PARAMS, GRID, mode)
        problem = ldp_problem(spec, PARAMS, GRID, mode, alpha=alpha,
                              extra_atoms=[(paths.u, paths.xdot2)])
        return problem, atom_coefficients(problem, 2)
    if pipeline == "mdp_log":
        d = mdp_log_drift(spec, alpha, PARAMS, GRID)
        problem = mdp_log_problem(spec, PARAMS, GRID, alpha=alpha,
                                  extra_atoms=[(d.h1_dot, d.h2_dot)])
        init = np.zeros(problem.n_coeffs)
        init[2] = init[problem.basis[0].shape[0] + 2] = 1.0
        return problem, init
    if pipeline in ("mdp_price", "mdp_st"):
        psi = None if pipeline == "mdp_price" else np.full(GRID.n_steps + 1, PARAMS.v0)
        d = (mdp_price_drift if pipeline == "mdp_price" else mdp_small_time_drift)(
            spec, alpha, PARAMS, GRID
        )
        problem = mdp_price_problem(spec, PARAMS, GRID, alpha, psi=psi,
                                    extra_atoms=[(d.h1_dot, d.h2_dot)])
        init = np.zeros(problem.n_coeffs)
        init[1] = init[problem.basis[0].shape[0] + 1] = 1.0
        return problem, init
    if pipeline == "mdp_lt":
        consts = large_time_constants(PARAMS)
        d = mdp_large_time_drift(spec, alpha, PARAMS, GRID)
        b_dual = -consts.bvec / consts.nu
        c_star = d.h1_dot[0] / (b_dual[0] * alpha.on_grid(GRID)[0])
        problem = large_time_problem(spec, PARAMS, GRID, alpha, 1.0 / consts.nu)
        init = np.zeros(problem.n_coeffs)
        init[0] = c_star
        return problem, init
    raise AssertionError(pipeline)


def test_criterion_9_oracle_agreement():
    gated = {"bs", "ldp_sn", "ldp_st", "mdp_lt"}
    pipelines = ["bs", "ldp_sn", "ldp_st", "mdp_log", "mdp_price", "mdp_st", "mdp_lt"]
    ok, details = True, []
    for pipeline in pipelines:
        worst_gap = 0.0
        for strike in (50.0, 60.0):
            problem, init = _oracle_case(pipeline, strike)
            cf = problem.value(init)
            _, vv = varopt.solve(problem, init=init, budget=3000)
            ok &= vv >= cf - 1e-6
            gap_rel = (vv - cf) / max(1.0, abs(cf))
            worst_gap = max(worst_gap, gap_rel)
            if pipeline in gated:
                ok &= gap_rel <= 2e-3
        tag = "gated" if pipeline in gated else "recorded"
        details.append(f"{pipeline}:{worst_gap:.1e}({tag})")
    assert _report("9", ok, "relative oracle gaps " + " ".join(details))


def test_criterion_10_deterministic_csv(tmp_path):
    from hestonis.cli import main as cli_main

    base = [
        "price", "--strikes", "50,60", "--kinds", "Classic,BS,MDPsn",
        "--paths", "50000", "--steps", "128", "--seed", "4242", "--stable-output",
    ]
    outs = []
    for i, workers in enumerate((1, 1, 4)):
        path = tmp_path / f"run{i}.csv"
        code = cli_main(base + ["--workers", str(workers), "--out", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1] == outs[2]
    assert _report("10", ok, "byte-identical CSV across repeats and 1 vs 4 workers")
