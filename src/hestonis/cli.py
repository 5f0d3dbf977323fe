"""Command-line front end: price tables, drift-schedule dumps, and self tests.

Configuration is a flat key=value file; every key can be overridden by a flag,
whose value is parsed as the same key's in the file.
Exit codes: 0 ok, 1 config error (a malformed flag included), 2 optimizer
failure, 3 self-test failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, OptimError
from .model import EQUITY_PARAMS, HestonParams, TimeGrid, psi_deterministic, validate
from .payoff import PayoffKind, geometric_weight, make_payoff
from .measure import DriftMode
from . import bench, varopt
from .drift_ldp import atom_coefficients, ldp_problem
from .drift_mdp import (
    large_time_constants,
    large_time_problem,
    mdp_auxiliary,
    mdp_log_problem,
    mdp_price_problem,
)
from .bench import EstimatorKind, reports_to_csv

TABLE3_STRIKES = [30.0, 35.0, 40.0, 45.0, 50.0, 55.0, 60.0, 65.0, 70.0, 75.0, 80.0, 85.0]
TABLE3_KINDS = [
    "Classic", "LDPsn", "LDPsn_A", "BS", "BS_A",
    "MDPsnLog_A", "MDPsn_A", "MDPlt", "BS_A2", "Antithetic",
]
VARSWAP_STRIKES = [10.0, 20.0, 30.0, 40.0, 45.0, 50.0, 55.0, 60.0, 70.0, 80.0, 90.0, 100.0]
VARSWAP_KINDS = ["LDPsn", "LDPsn_A", "MDPsn", "MDPsn_A", "BS", "BS_A", "Antithetic"]
APPENDIX_STRIKES = [30.0, 35.0, 40.0, 45.0, 50.0, 60.0, 70.0, 80.0]
APPENDIX_KINDS = ["Antithetic", "ControlGeometric", "BS"]

#: --preset name -> the (payoff, strikes, kinds) it fills in
PRESETS = {
    "table3": ("geometric_asian_call", TABLE3_STRIKES, TABLE3_KINDS),
    "appendixC": ("arithmetic_asian_call", APPENDIX_STRIKES, APPENDIX_KINDS),
    "varswap": ("vol_indicator_swap", VARSWAP_STRIKES, VARSWAP_KINDS),
}


@dataclass
class RunConfig:
    """Flat run configuration; each field's annotation is its config key's type."""

    kappa: float = EQUITY_PARAMS.kappa
    theta: float = EQUITY_PARAMS.theta
    xi: float = EQUITY_PARAMS.xi
    rho: float = EQUITY_PARAMS.rho
    v0: float = EQUITY_PARAMS.v0
    s0: float = EQUITY_PARAMS.s0
    r: float = EQUITY_PARAMS.r
    t_end: float = EQUITY_PARAMS.t_end
    n_steps: int = 252
    n_paths: int = 100_000
    seed: int = 20240
    payoff: str = "geometric_asian_call"
    strikes: list[float] = field(default_factory=lambda: [50.0])
    kinds: list[str] = field(default_factory=lambda: ["Classic"])
    out: str = ""
    preset: str = ""
    workers: int = 1
    sigma_const: float = 0.25
    stable_output: bool = False

    def params(self) -> HestonParams:
        return HestonParams(
            kappa=self.kappa, theta=self.theta, xi=self.xi, rho=self.rho,
            v0=self.v0, s0=self.s0, r=self.r, t_end=self.t_end,
        )

    def grid(self) -> TimeGrid:
        return TimeGrid(self.n_steps, self.t_end)

    def payoff_kind(self) -> PayoffKind:
        try:
            return PayoffKind(self.payoff)
        except ValueError:
            raise DomainError(f"invalid value for key 'payoff': {self.payoff!r}")


def _entries(val: str) -> list[str]:
    """The entries of a comma-separated list; an empty one is malformed."""
    entries = [x.strip() for x in val.split(",")]
    if "" in entries:
        raise ValueError("empty list entry")
    return entries


_PARSERS = {"float": float, "int": int, "str": str,
            "bool": lambda val: val.lower() in ("1", "true", "yes", "on"),
            "list[float]": lambda val: [float(x) for x in _entries(val)],
            "list[str]": _entries}
#: config key -> parser of its value, by the type RunConfig declares for it
_KEY_PARSERS = {f.name: _PARSERS[f.type] for f in fields(RunConfig)}
#: flag (its argparse dest) -> the config key it sets, parsed as in a config file
_FLAG_KEYS = {"strikes": "strikes", "kinds": "kinds", "paths": "n_paths", "steps": "n_steps",
              "seed": "seed", "out": "out", "preset": "preset", "workers": "workers",
              "payoff": "payoff"}


def parse_config_file(path: str) -> dict:
    """key=value lines; '#' comments; raises DomainError naming the bad key/line."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key] = _coerce(key, val, where=f"{path}:{lineno}")
    return values


def _coerce(key: str, val: str, where: str = "config"):
    if key not in _KEY_PARSERS:
        raise DomainError(f"{where}: unknown config key '{key}'")
    try:
        return _KEY_PARSERS[key](val)
    except ValueError as e:
        raise DomainError(f"{where}: invalid value for key '{key}': {val!r} ({e})")


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, val in parse_config_file(args.config).items():
            setattr(cfg, key, val)
    flags = {key: _coerce(key, getattr(args, dest), where=f"--{dest}")
             for dest, key in _FLAG_KEYS.items() if getattr(args, dest) is not None}
    cfg.preset = flags.pop("preset", cfg.preset)
    _apply_preset(cfg)  # preset fills defaults; explicit flags win below
    for key, val in flags.items():
        setattr(cfg, key, val)
    if getattr(args, "stable_output", False):
        cfg.stable_output = True
    validate(cfg.params())  # error messages name the offending key
    if cfg.n_paths < 3:  # Antithetic needs two pairs for a variance
        raise DomainError(f"invalid value for key 'n_paths': {cfg.n_paths} (need >= 3)")
    if cfg.workers < 1:
        raise DomainError(f"invalid value for key 'workers': {cfg.workers} (need >= 1)")
    if cfg.seed < 0:
        raise DomainError(f"invalid value for key 'seed': {cfg.seed} (need >= 0)")
    if not all(0.0 <= k < np.inf for k in cfg.strikes):
        raise DomainError(f"invalid value for key 'strikes': {cfg.strikes} (need finite >= 0)")
    for key in ("strikes", "kinds"):
        entries = getattr(cfg, key)
        if len(set(entries)) < len(entries):
            raise DomainError(f"invalid value for key '{key}': {entries} (repeated entry)")
    if not 0.0 < cfg.sigma_const < np.inf:
        raise DomainError(
            f"invalid value for key 'sigma_const': {cfg.sigma_const} (need finite > 0)"
        )
    return cfg


def _apply_preset(cfg: RunConfig) -> None:
    if not cfg.preset:
        return
    if cfg.preset not in PRESETS:
        raise DomainError(f"invalid value for key 'preset': {cfg.preset!r}")
    payoff, strikes, kinds = PRESETS[cfg.preset]
    cfg.payoff, cfg.strikes, cfg.kinds = payoff, list(strikes), list(kinds)


def _emit(text: str, out: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _table_sigma(cfg: RunConfig) -> float | None:
    """The constant volatility of the config's table, or None for a Heston
    table: the payoff alone picks the constant-vol table."""
    return cfg.sigma_const if cfg.payoff_kind() is PayoffKind.ARITHMETIC_ASIAN_CALL else None


def cmd_price(cfg: RunConfig) -> int:
    kinds = [EstimatorKind.from_name(k) for k in cfg.kinds]
    sigma = _table_sigma(cfg)
    if sigma is not None:
        reports = bench.run_appendix_table(
            cfg.strikes, kinds, cfg.params(), sigma, cfg.grid(),
            cfg.n_paths, cfg.seed, workers=cfg.workers,
        )
    else:
        reports = bench.run_table(
            cfg.payoff_kind(), cfg.strikes, kinds, cfg.params(), cfg.grid(),
            cfg.n_paths, cfg.seed, workers=cfg.workers,
        )
    _emit(reports_to_csv(reports, stable_output=cfg.stable_output), cfg.out)
    failed = [r for r in reports if r.error]
    for r in failed:
        print(r.error, file=sys.stderr)  # "kind @ K=strike: reason"
    return 2 if failed else 0


def _ldp_oracle(pipeline, cols, spec, alpha, factory):
    paths, _ = factory.ldp_solution(pipeline, spec)
    cols.update({"A": paths.a, "U": paths.u, "Z": paths.z, "psi": paths.psi})
    return ldp_problem(spec, factory.params, factory.grid, bench.LDP_MODES[pipeline],
                       alpha=alpha, extra_atoms=[(paths.xdot1, paths.xdot2)])


def _mdp_log_oracle(pipeline, cols, spec, alpha, factory):
    params, grid = factory.params, factory.grid
    aux = mdp_auxiliary(alpha, params, grid)
    cols.update({"B": aux.b_path, "gamma": aux.gamma, "u": aux.u})
    det, _ = factory.build_pipeline(pipeline, spec, DriftMode.DETERMINISTIC)
    return mdp_log_problem(spec, params, grid, alpha=alpha,
                           extra_atoms=[(det.h1_dot, det.h2_dot)])


def _mdp_price_oracle(pipeline, cols, spec, alpha, factory):
    """The price problem on the pipeline's frozen variance: v0 for MDPst, psi otherwise."""
    params, grid = factory.params, factory.grid
    psi = np.full(grid.n_steps + 1, params.v0) if pipeline == "mdp_st" else None
    det, _ = factory.build_pipeline(pipeline, spec, DriftMode.DETERMINISTIC)
    return mdp_price_problem(spec, params, grid, alpha, psi=psi,
                             extra_atoms=[(det.h1_dot, det.h2_dot)])


def _large_time_oracle(pipeline, cols, spec, alpha, factory):
    """The one-channel problem in x1, whose closed form c* alpha is the drift's
    second channel over its loading B_dual[1] > 0."""
    consts = large_time_constants(factory.params)
    det, _ = factory.build_pipeline(pipeline, spec, DriftMode.DETERMINISTIC)
    x1 = det.h2_dot / (-consts.bvec[1] / consts.nu)
    return large_time_problem(spec, factory.params, factory.grid, alpha, 1.0 / consts.nu,
                              extra_atoms=[(x1,)])


#: Call-payoff pipelines with a reduced-basis oracle: each adds its auxiliary
#: paths to the dump and returns the oracle problem, whose extra atom holds the
#: pipeline's closed-form drift.
_ORACLES = {"bs": _mdp_price_oracle, "ldp_sn": _ldp_oracle, "ldp_st": _ldp_oracle,
            "mdp_log": _mdp_log_oracle, "mdp_st": _mdp_price_oracle,
            "mdp_lt": _large_time_oracle}


def oracle_gap(pipeline, spec, factory, budget: int, cols: dict | None = None):
    """(oracle value - closed-form value, closed-form value) of a pipeline in
    ``_ORACLES``: the reduced-basis solve starts from the pipeline's drift and
    searches ``budget`` evaluations. The oracle's auxiliary paths go to ``cols``."""
    alpha = spec.weight if spec.weight is not None else geometric_weight(factory.grid.t_end)
    problem = _ORACLES[pipeline](pipeline, {} if cols is None else cols, spec, alpha, factory)
    closed_form = atom_coefficients(problem, problem.extra_index)
    cf = problem.value(closed_form)
    _, vv = varopt.solve(problem, init=closed_form, budget=budget)
    return vv - cf, cf


def cmd_drift(cfg: RunConfig, kind_name: str, strike: float) -> int:
    kind = EstimatorKind.from_name(kind_name)
    params, grid, sigma = cfg.params(), cfg.grid(), _table_sigma(cfg)
    spec = make_payoff(cfg.payoff_kind(), strike, grid.t_end)
    factory = bench.DriftFactory(params, grid, sigma)
    pipeline, mode = factory.route(kind, spec)
    if mode is DriftMode.PER_STEP_ADAPTIVE:
        raise DomainError(f"{kind_name}: per-step schedules have no static dump")
    drift, _ = factory.build(kind, spec)
    psi = psi_deterministic(params, grid) if sigma is None else np.full(grid.knots.size, sigma**2)
    cols = {
        "t": grid.knots,
        "h1_dot": drift.h1_dot,
        "h2_dot": drift.h2_dot,
        "psi": psi,
    }
    gap = float("nan")
    if factory.table(spec) is bench.Table.CALL and pipeline in _ORACLES:
        gap, _ = oracle_gap(pipeline, spec, factory, 2500, cols)
    header = ",".join(list(cols.keys()) + ["oracle_gap"])
    lines = [header]
    n = grid.knots.size
    for i in range(n):
        row = [repr(float(np.asarray(v)[i])) for v in cols.values()]
        row.append(repr(float(gap)))
        lines.append(",".join(row))
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def cmd_selftest(cfg: RunConfig) -> int:
    """Reduced-scale health checks: weights, unbiasedness, oracles, ODE agreements."""
    from . import selftest

    results = selftest.run_all(cfg)
    width = max(len(name) for name, _, _ in results)
    ok_all = True
    for name, ok, detail in results:
        status = "pass" if ok else "FAIL"
        print(f"{name:<{width}}  {status}  {detail}")
        ok_all = ok_all and ok
    return 0 if ok_all else 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hestonis",
        description="Importance-sampling Monte Carlo for the Heston model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--strikes", help="comma-separated strikes")
        sp.add_argument("--kinds", help="comma-separated estimator kinds")
        sp.add_argument("--paths")
        sp.add_argument("--steps")
        sp.add_argument("--seed")
        sp.add_argument("--out")
        sp.add_argument("--preset", help=", ".join(PRESETS))
        sp.add_argument("--workers")
        sp.add_argument("--payoff", help=", ".join(k.value for k in PayoffKind))
        sp.add_argument("--stable-output", action="store_true", dest="stable_output",
                        help="zero the timing columns for byte-stable CSV")

    p_price = sub.add_parser("price", help="run estimators and emit a CSV table")
    add_common(p_price)

    p_drift = sub.add_parser("drift", help="dump one drift schedule as CSV")
    add_common(p_drift)
    p_drift.add_argument("--kind", required=True)
    p_drift.add_argument("--strike", type=float, required=True)

    p_self = sub.add_parser("selftest", help="run reduced-scale verification checks")
    add_common(p_self)

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse printed the help (0) or a usage error
        return 1 if e.code else 0
    try:
        cfg = build_config(args)
    except (DomainError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    try:
        if args.command == "price":
            return cmd_price(cfg)
        if args.command == "drift":
            return cmd_drift(cfg, args.kind, args.strike)
        if args.command == "selftest":
            return cmd_selftest(cfg)
    except DomainError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except OptimError as e:
        print(f"optimizer failure: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
