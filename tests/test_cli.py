import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hestonis
from hestonis import bench
from hestonis.cli import (
    _ORACLES,
    APPENDIX_KINDS,
    PRESETS,
    TABLE3_KINDS,
    TABLE3_STRIKES,
    VARSWAP_KINDS,
    RunConfig,
    main,
    parse_config_file,
)
from hestonis.bench import EstimatorKind
from hestonis.drift_ldp import atom_coefficients
from hestonis.drift_mdp import large_time_constants
from hestonis.model import EQUITY_PARAMS, TimeGrid
from hestonis.payoff import PayoffKind, make_payoff


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_minimal_price_run_one_row(capsys):
    code, out, _ = run_cli(
        capsys, "price", "--strikes", "50", "--kinds", "Classic",
        "--paths", "400", "--steps", "16", "--stable-output",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("kind,strike,n_paths")
    assert lines[1].startswith("Classic,50.0,400,16,")


def test_failed_cell_names_itself_on_stderr(capsys):
    # the large-time drift has no variance-payoff form, so that cell cannot run
    code, out, err = run_cli(
        capsys, "price", "--payoff", "vol_indicator_swap", "--strikes", "50",
        "--kinds", "Classic,MDPlt", "--paths", "400", "--steps", "16", "--stable-output",
    )
    assert code == 2
    assert out.splitlines()[2].startswith("MDPlt,50.0,400,16,")
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("MDPlt @ K=50.0: ")
    assert "not offered for variance payoffs" in lines[0]


def test_invalid_rho_names_the_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rho = 1.5\n")
    code, _, err = run_cli(capsys, "price", "--config", str(cfg), "--paths", "100")
    assert code == 1
    assert "rho" in err


def test_unknown_key_and_bad_value_diagnostics(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonsense = 1\n")
    with pytest.raises(Exception, match="nonsense"):
        parse_config_file(str(cfg))
    cfg.write_text("kappa = fast\n")
    with pytest.raises(Exception, match="kappa"):
        parse_config_file(str(cfg))
    cfg.write_text("dump_drift = 1\n")  # removed key: nothing read it
    with pytest.raises(Exception, match="unknown config key 'dump_drift'"):
        parse_config_file(str(cfg))
    cfg.write_text("strikes = 50,,60\n")  # as the flag --strikes 50,,60
    with pytest.raises(Exception, match=r"key 'strikes': '50,,60' \(empty list entry\)"):
        parse_config_file(str(cfg))


@pytest.mark.parametrize("paths", ["0", "1", "2", "-5"])
def test_too_few_paths_is_a_config_error(capsys, paths):
    code, out, err = run_cli(capsys, "price", "--kinds", "Classic,Antithetic",
                             "--paths", paths, "--steps", "16")
    assert code == 1 and out == ""
    assert err.startswith("config error: ") and "'n_paths'" in err


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_non_positive_workers_is_a_config_error(capsys, workers):
    code, out, err = run_cli(capsys, "price", "--paths", "400", "--steps", "16",
                             "--workers", workers)
    assert code == 1 and out == ""
    assert err.startswith("config error: ") and "'workers'" in err


@pytest.mark.parametrize("sigma", ["-0.25", "0"])
def test_non_positive_sigma_const_is_a_config_error(tmp_path, capsys, sigma):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"sigma_const = {sigma}\n")
    code, out, err = run_cli(capsys, "price", "--config", str(cfg), "--preset", "appendixC",
                             "--paths", "400", "--steps", "16")
    assert code == 1 and out == ""
    assert err.startswith("config error: ") and "'sigma_const'" in err


@pytest.mark.parametrize("key,value,flag", [
    ("strikes", "nan", True), ("strikes", "50,inf", True), ("strikes", "-inf", False),
    ("sigma_const", "nan", False), ("sigma_const", "inf", False),
])
def test_non_finite_strikes_and_sigma_const_are_config_errors(tmp_path, capsys, key, value,
                                                              flag):
    if flag:
        source = [f"--{key}", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        source = ["--config", str(cfg)]
    code, out, err = run_cli(capsys, "price", "--payoff", "arithmetic_asian_call", *source,
                             "--paths", "400", "--steps", "16")
    assert code == 1 and out == ""
    assert err.startswith(f"config error: invalid value for key '{key}'")


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("seed", [-1, -3])
def test_negative_seeds_are_config_errors(tmp_path, capsys, seed, flag):
    if flag:
        source = ["--seed", str(seed)]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = {seed}\n")
        source = ["--config", str(cfg)]
    code, out, err = run_cli(capsys, "price", *source, "--paths", "400", "--steps", "16")
    assert code == 1 and out == ""
    assert err.startswith("config error: invalid value for key 'seed'")


@pytest.mark.parametrize("key,value", [
    ("strikes", "50,50"), ("strikes", "60,50,60.0"), ("kinds", "BS,BS"),
    ("kinds", "Classic,BS,Classic"),
])
def test_repeated_strikes_or_kinds_are_config_errors(capsys, key, value):
    code, out, err = run_cli(capsys, "price", f"--{key}", value, "--paths", "400",
                             "--steps", "16")
    assert code == 1 and out == ""
    assert err.startswith(f"config error: invalid value for key '{key}'")
    assert "repeated entry" in err


@pytest.mark.parametrize("flag,value,key", [
    ("--strikes", "abc", "strikes"), ("--strikes", "50,,60", "strikes"),
    ("--kinds", "Classic,", "kinds"), ("--paths", "x", "n_paths"),
    ("--payoff", "nope", "payoff"), ("--preset", "nope", "preset"),
])
def test_malformed_flags_are_config_errors(capsys, flag, value, key):
    code, out, err = run_cli(capsys, "price", "--paths", "400", "--steps", "16", flag, value)
    assert code == 1 and out == ""
    assert err.startswith("config error: ") and f"key '{key}'" in err


def test_a_usage_error_is_a_config_error(capsys):
    code, out, err = run_cli(capsys, "drift", "--strike", "50", "--steps", "16")
    assert code == 1 and out == ""
    assert "--kind" in err


def test_help_exits_zero(capsys):
    assert main(["price", "--help"]) == 0
    assert "--strikes" in capsys.readouterr().out


def test_workers_reach_the_constant_vol_table(monkeypatch, capsys):
    seen = {}

    def fake_table(strikes, kinds, params, sigma, grid, n_paths, seed, workers=1):
        seen.update(sigma=sigma, n_paths=n_paths, workers=workers)
        return []

    monkeypatch.setattr(bench, "run_appendix_table", fake_table)
    code, _, _ = run_cli(capsys, "price", "--preset", "appendixC", "--paths", "400",
                         "--workers", "2")
    assert code == 0
    assert seen == {"sigma": 0.25, "n_paths": 400, "workers": 2}


def test_config_round_trip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "kappa=2.0\ntheta=0.09\nstrikes=40,50\nkinds=Classic,BS\n"
        "n_paths=1000\nseed=7\npayoff=geometric_asian_call\n# comment\n"
    )
    values = parse_config_file(str(cfg))
    assert values["strikes"] == [40.0, 50.0]
    assert values["kinds"] == ["Classic", "BS"]
    assert values["n_paths"] == 1000
    rc = RunConfig(**{k: v for k, v in values.items()})
    assert rc.params().kappa == 2.0


def test_preset_expansions():
    assert len(TABLE3_STRIKES) == 12
    assert len(TABLE3_KINDS) == 10
    assert "BS_A2" in TABLE3_KINDS
    assert "ControlGeometric" in APPENDIX_KINDS
    assert "LDPsn" in VARSWAP_KINDS
    assert set(PRESETS) == {"table3", "appendixC", "varswap"}


def test_explicit_payoff_wins_over_the_preset(capsys):
    common = ("--strikes", "50", "--kinds", "Classic,BS", "--paths", "3000",
              "--steps", "16", "--stable-output")
    _, plain, _ = run_cli(capsys, "price", "--payoff", "geometric_asian_call", *common)
    code, preset, _ = run_cli(capsys, "price", "--preset", "appendixC",
                              "--payoff", "geometric_asian_call", *common)
    assert code == 0
    assert preset == plain


#: A kind on each call-payoff solve with an oracle, by the solve's name, and
#: the row of the oracle problem's channels that holds the solve's drift, as
#: the acceptance suite's ``_oracle_case`` also indexes it.
_ORACLE_ATOM_ROWS = {"bs": (EstimatorKind.BS, 1), "ldp_sn": (EstimatorKind.LDP_SN, 2),
                     "ldp_st": (EstimatorKind.LDP_ST, 2), "mdp_log": (EstimatorKind.MDP_SN_LOG, 2),
                     "mdp_st": (EstimatorKind.MDP_ST, 1), "mdp_lt": (EstimatorKind.MDP_LT, 1)}


@pytest.mark.parametrize("solve", sorted(_ORACLE_ATOM_ROWS))
def test_oracle_closed_form_sits_on_the_extra_atoms(solve):
    grid = TimeGrid(16, 1.0)
    spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, 60.0, 1.0)
    factory = bench.DriftFactory(EQUITY_PARAMS, grid)
    kind, row = _ORACLE_ATOM_ROWS[solve]
    assert len(_ORACLE_ATOM_ROWS) == len(_ORACLES)  # the kinds reach every oracle
    solution, _ = factory.solution(kind, spec)
    problem = _ORACLES[factory.route(kind, spec)](solution, {}, spec, spec.weight, factory)
    got = atom_coefficients(problem, problem.extra_index)
    assert problem.extra_index == row
    assert got.sum() == len(problem.basis)  # unit weight in every channel
    det = solution.schedule
    if kind is EstimatorKind.MDP_LT:  # one channel x1; the drift is B_dual x1
        consts = large_time_constants(EQUITY_PARAMS)
        (x1,) = problem.expand(got)
        for h, b in zip((det.h1_dot, det.h2_dot), -consts.bvec / consts.nu):
            np.testing.assert_allclose(b * x1, h, rtol=1e-14, atol=0.0)
        return
    h1, h2 = problem.expand(got)
    assert np.array_equal(h1, det.h1_dot) and np.array_equal(h2, det.h2_dot)


@pytest.mark.parametrize("kind", ["BS", "MDPst_A", "MDPlt"])
def test_drift_dump_reports_the_oracle_gap(capsys, kind):
    code, out, _ = run_cli(capsys, "drift", "--kind", kind, "--strike", "60", "--steps", "32")
    assert code == 0
    gaps = {float(line.rsplit(",", 1)[1]) for line in out.strip().splitlines()[1:]}
    assert len(gaps) == 1
    gap = gaps.pop()
    assert np.isfinite(gap) and gap >= -1e-6


def test_drift_dump_under_constant_vol(capsys):
    # the arithmetic payoff picks the constant-vol table, whose BS drift is the
    # geometric-call root on sigma's one Brownian channel
    code, out, err = run_cli(capsys, "drift", "--payoff", "arithmetic_asian_call",
                             "--kind", "BS", "--strike", "50", "--steps", "16")
    assert code == 0, err
    lines = out.strip().splitlines()
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    col = dict(zip(lines[0].split(","), values.T))
    assert values.shape[0] == 17
    assert np.all(np.isfinite(col["h1_dot"])) and col["h1_dot"].any()
    assert np.all(col["h2_dot"] == 0.0)
    assert np.all(col["psi"] == 0.25**2)  # sigma_const squared
    assert np.all(np.isnan(col["oracle_gap"]))  # no oracle for that table


def test_per_step_drift_dump_is_a_config_error(capsys):
    code, out, err = run_cli(capsys, "drift", "--kind", "BS_A2", "--strike", "50",
                             "--steps", "16")
    assert (code, out) == (1, "")
    assert err == "config error: BS_A2: per-step schedules have no static dump\n"


def test_determinism_byte_identical_csv(tmp_path, capsys):
    args = (
        "price", "--strikes", "50,60", "--kinds", "Classic,BS",
        "--paths", "2000", "--steps", "32", "--seed", "5", "--stable-output",
    )
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_drift_dump_bs_schema(capsys):
    code, out, _ = run_cli(
        capsys, "drift", "--kind", "BS", "--strike", "50", "--steps", "32",
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["t", "h1_dot", "h2_dot", "psi"]
    assert header[-1] == "oracle_gap"
    assert len(lines) == 34  # 33 knots + header
    first = [float(v) for v in lines[1].split(",")]
    # h1/h2 carry the correlation split of one positive profile
    assert first[1] < 0.0 < first[2]


def test_drift_dump_large_time_ratio_is_constant(capsys):
    code, out, _ = run_cli(
        capsys, "drift", "--kind", "MDPlt", "--strike", "55", "--steps", "32",
    )
    assert code == 0
    rows = [list(map(float, ln.split(","))) for ln in out.strip().splitlines()[1:]]
    ratios = {round(r[2] / r[1], 9) for r in rows if abs(r[1]) > 1e-14}
    assert len(ratios) == 1
    consts = large_time_constants(EQUITY_PARAMS)
    assert ratios.pop() == pytest.approx(consts.bvec[1] / consts.bvec[0], abs=1e-9)


def test_drift_dump_ldp_psi_positive(capsys):
    code, out, _ = run_cli(
        capsys, "drift", "--kind", "LDPsn", "--strike", "55", "--steps", "32",
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    psi_col = header.index("psi")
    gap_col = header.index("oracle_gap")
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    assert all(r[psi_col] > 0.0 for r in rows)
    assert abs(rows[0][gap_col]) < 1e-2


def test_bad_preset_rejected(capsys):
    assert main(["price", "--preset", "table9"]) == 1
    cfg_err = main(["price", "--strikes", "50", "--kinds", "NoSuchKind", "--paths", "50"])
    assert cfg_err in (1, 2)


def test_selftest_negative_control(monkeypatch, capsys):
    # a closed-form nu scaled by 1.6 must fail the Gamma Monte Carlo check
    from hestonis import selftest

    exact = selftest.large_time_constants
    monkeypatch.setattr(selftest, "large_time_constants",
                        lambda p: replace(exact(p), nu=1.6 * exact(p).nu))
    code, out, _ = run_cli(capsys, "selftest", "--paths", "600", "--steps", "64")
    assert code == 3
    assert "constants-vs-gamma-mc" in out and "FAIL" in out


def test_selftest_quick_mode_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--paths", "1000", "--steps", "64")
    assert code == 0
    assert "FAIL" not in out


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(hestonis.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, hestonis.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
