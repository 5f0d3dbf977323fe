"""Estimator runner: prices, variances, variance-reduction ratios and timings
across strikes and estimator kinds, with paired seeds against the classic
estimator.

Paths are generated in fixed-size chunks with independent Philox streams
(seed, chunk index), so results are identical no matter how many workers
consume the chunks; every worker count, one included, runs them on one
thread pool of that many threads. Each chunk is simulated once per measure
(no drift, mirrored pairs, or one drift schedule), and every cell on that
measure reads it. Reductions take per-chunk moments (count, mean, M2) and
merge them in chunk order. One engine runs every table on the one path
kernel of ``sim``: the Heston tables and the constant-volatility
arithmetic-Asian comparison differ only in the kernel's variance (frozen at
``sigma`` squared for the latter) and in the kinds their table offers
(``KINDS``).
"""

from __future__ import annotations

import enum
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr

from .errors import DomainError, OptimError
from .measure import DriftMode, DriftSchedule
from .model import HestonParams, TimeGrid, psi_deterministic, validate
from .payoff import PayoffKind, PayoffSpec, geometric_weight, make_payoff
from . import payoff as payoff_mod
from . import sim
from . import varopt
# Drift entry points are called through this module's names, which perfbench's tracer patches.
from .drift_bs import bs_beta, bs_drift, bs_fully_adaptive
from .drift_ldp import LdpMode, ldp_optimum, ldp_paths, ldp_problem, ldp_schedule
from .drift_mdp import (
    mdp_large_time_drift,
    mdp_log_drift,
    mdp_log_problem,
    mdp_price_drift,
    mdp_small_time_drift,
)

CHUNK_PATHS = 25_000


class EstimatorKind(enum.Enum):
    CLASSIC = "Classic"
    ANTITHETIC = "Antithetic"
    CONTROL_GEOMETRIC = "ControlGeometric"
    BS = "BS"
    BS_A = "BS_A"
    BS_A2 = "BS_A2"
    LDP_SN = "LDPsn"
    LDP_SN_A = "LDPsn_A"
    LDP_ST = "LDPst"
    LDP_ST_A = "LDPst_A"
    MDP_SN_LOG = "MDPsnLog"
    MDP_SN_LOG_A = "MDPsnLog_A"
    MDP_SN = "MDPsn"
    MDP_SN_A = "MDPsn_A"
    MDP_ST = "MDPst"
    MDP_ST_A = "MDPst_A"
    MDP_LT = "MDPlt"

    @classmethod
    def from_name(cls, name: str) -> "EstimatorKind":
        for k in cls:
            if k.value == name:
                return k
        raise DomainError(f"unknown estimator kind {name!r}")


class Table(enum.Enum):
    """The tables a kind can be offered in; each value completes "<kind> is not offered ..."."""

    CALL = "for call payoffs"  # Heston, weighted call payoffs
    VARIANCE = "for variance payoffs"  # Heston, integrated-variance indicator
    CONSTANT_VOL = "in the constant-vol comparison"  # arithmetic-Asian call


class KindEntry(NamedTuple):
    pipelines: dict[Table, str | None]  # each Table that offers the kind -> drift pipeline
    mode: DriftMode | None  # how the drift is applied; None (and no pipeline) without drift


_ALL, _HESTON, _CALL = tuple(Table), (Table.CALL, Table.VARIANCE), (Table.CALL,)
_DET, _ADA = DriftMode.DETERMINISTIC, DriftMode.ADAPTIVE


def _on(tables, pipeline: str | None = None) -> dict:
    return dict.fromkeys(tables, pipeline)


#: On call payoffs the price-mode moderate-deviations drift is the
#: deterministic-volatility root at sqrt(psi): MDPsn is BS there.
_MDP_SN = {Table.CALL: "bs", Table.VARIANCE: "mdp_price"}

#: The one kind registry. The det and adaptive kinds of a pipeline share its
#: one cached solve at a strike: the adaptive kind divides the deterministic
#: schedule by the volatility path it was solved on.
KINDS = {
    EstimatorKind.CLASSIC: KindEntry(_on(_ALL), None),
    EstimatorKind.ANTITHETIC: KindEntry(_on(_ALL), None),
    EstimatorKind.CONTROL_GEOMETRIC: KindEntry(_on((Table.CONSTANT_VOL,)), None),
    EstimatorKind.BS: KindEntry(_on(_ALL, "bs"), _DET),
    EstimatorKind.BS_A: KindEntry(_on(_HESTON, "bs"), _ADA),
    EstimatorKind.BS_A2: KindEntry(_on(_CALL, "bs_a2"), DriftMode.PER_STEP_ADAPTIVE),
    EstimatorKind.LDP_SN: KindEntry(_on(_HESTON, "ldp_sn"), _DET),
    EstimatorKind.LDP_SN_A: KindEntry(_on(_HESTON, "ldp_sn"), _ADA),
    EstimatorKind.LDP_ST: KindEntry(_on(_CALL, "ldp_st"), _DET),
    EstimatorKind.LDP_ST_A: KindEntry(_on(_CALL, "ldp_st"), _ADA),
    EstimatorKind.MDP_SN_LOG: KindEntry(_on(_CALL, "mdp_log"), _DET),
    EstimatorKind.MDP_SN_LOG_A: KindEntry(_on(_CALL, "mdp_log"), _ADA),
    EstimatorKind.MDP_SN: KindEntry(_MDP_SN, _DET),
    EstimatorKind.MDP_SN_A: KindEntry(_MDP_SN, _ADA),
    EstimatorKind.MDP_ST: KindEntry(_on(_CALL, "mdp_st"), _DET),
    EstimatorKind.MDP_ST_A: KindEntry(_on(_CALL, "mdp_st"), _ADA),
    EstimatorKind.MDP_LT: KindEntry(_on(_CALL, "mdp_lt"), _DET),
}

LDP_MODES = {"ldp_sn": LdpMode.SMALL_NOISE, "ldp_st": LdpMode.SMALL_TIME}


@dataclass(frozen=True)
class EstimatorReport:
    kind: str
    strike: float
    n_paths: int
    n_steps: int
    seed: int
    price: float
    std_err: float
    variance: float
    var_reduction: float
    prob_positive: float
    wall_time_s: float
    drift_time_s: float
    error: str = ""


_FORMATS = {"str": str, "int": str, "float": lambda v: repr(float(v))}
#: The CSV's columns: every report field but ``error``, each with the
#: formatter of its declared type.
_CSV_FIELDS = [(f.name, _FORMATS[f.type]) for f in fields(EstimatorReport) if f.name != "error"]
CSV_COLUMNS = ",".join(name for name, _ in _CSV_FIELDS)
_TIMING_COLUMNS = ("wall_time_s", "drift_time_s")


def reports_to_csv(reports: list[EstimatorReport], stable_output: bool = False) -> str:
    """One row per report; ``stable_output`` zeroes the timing columns."""
    lines = [CSV_COLUMNS]
    for r in reports:
        lines.append(",".join(
            fmt(0.0 if stable_output and name in _TIMING_COLUMNS else getattr(r, name))
            for name, fmt in _CSV_FIELDS
        ))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Drift construction (shared across det/adaptive variants of one pipeline)
# ---------------------------------------------------------------------------

class DriftFactory:
    """The model a table runs under, and its drift builds cached per (payoff
    kind, strike, pipeline).

    The model is Heston with ``params``, or constant volatility ``sigma``
    (with ``params``' spot, rate and horizon) when ``sigma`` is given.
    """

    def __init__(self, params: HestonParams, grid: TimeGrid, sigma: float | None = None):
        self.params = params
        self.grid = grid
        self.sigma = sigma
        self._cache: dict = {}

    def _cached(self, spec, key, builder):
        """``builder()``, built once per (spec's payoff kind and strike, ``key``)."""
        key = (spec.kind, spec.strike, *key)
        if key not in self._cache:
            t0 = time.perf_counter()
            value = builder()
            self._cache[key] = (value, time.perf_counter() - t0)
        return self._cache[key]

    def table(self, spec: PayoffSpec) -> Table:
        if self.sigma is not None:
            return Table.CONSTANT_VOL
        if spec.kind is PayoffKind.VOL_INDICATOR_SWAP:
            return Table.VARIANCE
        return Table.CALL

    def route(self, kind: EstimatorKind, spec: PayoffSpec) -> tuple[str | None, DriftMode | None]:
        """The kind's (pipeline, mode) here; DomainError when this table does not offer it."""
        table = self.table(spec)
        entry = KINDS[kind]
        if table not in entry.pipelines:
            raise DomainError(f"{kind.value} is not offered {table.value}")
        return entry.pipelines[table], entry.mode

    def build(self, kind: EstimatorKind, spec: PayoffSpec) -> tuple[DriftSchedule, float]:
        pipeline, mode = self.route(kind, spec)
        if pipeline is None:
            raise DomainError(f"{kind.value} carries no drift")
        return self.build_pipeline(pipeline, spec, mode)

    def build_pipeline(
        self, pipeline: str, spec: PayoffSpec, mode: DriftMode
    ) -> tuple[DriftSchedule, float]:
        """(schedule, build seconds) of ``pipeline`` at the spec's strike, applied in ``mode``.

        Every mode shares one solve per (payoff kind, strike, pipeline). The
        solve gives the deterministic schedule and the volatility path it was
        solved on; an adaptive schedule divides by that path, and the kernel
        multiplies back by sqrt(V_i).
        """
        solve = self._PIPELINES[pipeline, self.table(spec)]
        (det, vol), secs = self._cached(spec, (pipeline,), lambda: solve(self, pipeline, spec))
        if mode is DriftMode.ADAPTIVE:
            return DriftSchedule(mode, det.h1_dot / vol, det.h2_dot / vol, det.provenance), secs
        return det, secs

    def _alpha(self, spec):
        return spec.weight if spec.weight is not None else geometric_weight(self.grid.t_end)

    def _sqrt_psi(self):
        return np.sqrt(psi_deterministic(self.params, self.grid))

    def _frozen_vol(self, pipeline, spec):
        """BS under constant vol: the deterministic-volatility root (``bs_beta``)
        of the geometric call at the spec's strike, a surrogate for the
        arithmetic one, embedded on the one Brownian channel's loading (1, 0)."""
        g = self.grid
        sigma = np.full(g.n_steps + 1, self.sigma)
        geometric = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, spec.strike, g.t_end)
        red = bs_beta(geometric, sigma, self._alpha(geometric), g, self.params)
        return bs_drift(red.beta_star, sigma, red.alpha, 1.0, pipeline), sigma

    def ldp_solution(self, pipeline: str, spec: PayoffSpec):
        """(LdpPaths, build seconds) of an LDP pipeline's optimum at the spec's strike."""
        p, g, ldp_mode, alpha = self.params, self.grid, LDP_MODES[pipeline], self._alpha(spec)

        def solve():
            a0_s, beta_s, _ = ldp_optimum(spec, alpha, p, g, ldp_mode)
            return ldp_paths(beta_s, a0_s, alpha, p, g, ldp_mode)

        return self._cached(spec, ("ldp", ldp_mode), solve)

    def _ldp(self, pipeline, spec):
        """The optimum's drift, solved on its own variance path psi."""
        paths, _ = self.ldp_solution(pipeline, spec)
        return ldp_schedule(paths, LDP_MODES[pipeline]), np.sqrt(paths.psi)

    def _solved(self, pipeline, spec):
        """Call-payoff pipelines of one drift function each, with the volatility
        path it freezes: sqrt(psi) for BS (and so MDPsn) and MDPsnLog, sqrt(v0)
        for MDPst; MDPlt and BS_A2 have no adaptive twin."""
        p, g, alpha = self.params, self.grid, self._alpha(spec)
        if pipeline == "bs_a2":
            return bs_fully_adaptive(spec, p, g), None
        sqrt_psi = self._sqrt_psi()
        solve, vol = {
            "bs": (mdp_price_drift, sqrt_psi),
            "mdp_st": (mdp_small_time_drift, np.full(g.n_steps + 1, np.sqrt(p.v0))),
            "mdp_log": (mdp_log_drift, sqrt_psi),
            "mdp_lt": (mdp_large_time_drift, None),
        }[pipeline]
        return solve(spec, alpha, p, g), vol

    # -- variance-payoff drifts (no closed form: reduced-basis solves) -------

    def _varswap(self, pipeline, spec):
        """A reduced-basis solve, frozen on the deterministic variance path psi."""
        solve = {"ldp_sn": self._solve_vs_ldp, "mdp_price": self._solve_vs_mdp,
                 "bs": self._solve_vs_bs}[pipeline]
        prof1, prof2 = solve(spec)
        return DriftSchedule(DriftMode.DETERMINISTIC, prof1, prof2, "varswap"), self._sqrt_psi()

    def _variance_response_atom(self):
        """First-order response of log int V dt to the variance channel:
        xi sqrt(psi_s) (1 - e^{-kappa (T-s)}) / kappa, normalized by int psi."""
        p, g = self.params, self.grid
        psi = psi_deterministic(p, g)
        shape = (
            p.xi * np.sqrt(psi)
            * (1.0 - np.exp(-p.kappa * (g.t_end - g.knots))) / p.kappa
        )
        return shape / float(psi[:-1].sum() * g.dt)

    def _solve_with_vega_atom(self, make_problem):
        """Solve ``make_problem(extra_atoms)``, seeded at unit weight on the
        variance-response atom that ``extra_atoms`` appends to channel 1: five
        starts of 500 evaluations each."""
        vega = self._variance_response_atom()
        problem = make_problem([(vega, np.zeros_like(vega))])
        seed = np.zeros(problem.n_coeffs)
        seed[problem.extra_index] = 1.0
        problem.seed_coeffs = seed
        coeffs, _ = varopt.solve(problem, budget=2500)
        return problem.expand(coeffs)

    def _solve_vs_ldp(self, spec):
        p, g = self.params, self.grid

        def payoff_log(phi_dot, psi):
            return payoff_mod.log_vol_indicator(phi_dot, psi, p, spec.strike, g)

        return self._solve_with_vega_atom(lambda atoms: ldp_problem(
            None, p, g, LdpMode.SMALL_NOISE, payoff_log=payoff_log, extra_atoms=atoms
        ))

    def _solve_vs_mdp(self, spec):
        """The fluctuation reads psi + eta as the variance proxy."""
        p, g = self.params, self.grid

        def payoff_log(phi_dot_fluct, psi, eta):
            return payoff_mod.log_vol_indicator(
                phi_dot_fluct - 0.5 * psi, psi + eta, p, spec.strike, g
            )

        return self._solve_with_vega_atom(lambda atoms: mdp_log_problem(
            None, p, g, payoff_log=payoff_log, extra_atoms=atoms
        ))

    def _solve_vs_bs(self, spec):
        """Deterministic-volatility approximation: variance path frozen at psi."""
        p, g = self.params, self.grid
        psi = psi_deterministic(p, g)
        sqp = np.sqrt(psi)

        def objective(xdot):
            val = payoff_mod.log_vol_indicator(-0.5 * psi + sqp * xdot, psi, p, spec.strike, g)
            return float(val) - 0.5 * float((xdot[:-1] ** 2).sum() * g.dt)

        problem = varopt.reduced_basis_problem(
            objective, g, [[np.ones(g.n_steps + 1)]], label="vs_bs"
        )
        coeffs, _ = varopt.solve(problem, budget=2000)
        (prof,) = problem.expand(coeffs)
        return p.rho * prof, p.rho_bar * prof

    # (pipeline, table) -> builder; KINDS offers a drift kind only where one exists
    _PIPELINES = {
        ("bs", Table.CALL): _solved, ("bs", Table.VARIANCE): _varswap,
        ("bs", Table.CONSTANT_VOL): _frozen_vol, ("bs_a2", Table.CALL): _solved,
        ("ldp_sn", Table.CALL): _ldp, ("ldp_sn", Table.VARIANCE): _varswap,
        ("ldp_st", Table.CALL): _ldp, ("mdp_log", Table.CALL): _solved,
        ("mdp_price", Table.VARIANCE): _varswap, ("mdp_st", Table.CALL): _solved,
        ("mdp_lt", Table.CALL): _solved,
    }


# ---------------------------------------------------------------------------
# Chunked estimator runs
# ---------------------------------------------------------------------------

def _chunk_sizes(n_paths: int) -> list[int]:
    sizes = [CHUNK_PATHS] * (n_paths // CHUNK_PATHS)
    if n_paths % CHUNK_PATHS:
        sizes.append(n_paths % CHUNK_PATHS)
    return sizes


@dataclass
class _Moments:
    """Count, mean and sum of squared deviations from the mean (M2) of the
    estimator's values, and the sum of their positive-payoff weights (pos).

    A chunk's moments come from two passes over its values, and chunks merge
    by the pairwise update of Chan, Golub & LeVeque (Am. Stat. 37(3), 1983).
    The variance is then never the difference of two large sums, which loses
    digits where it is tiny next to the squared mean.
    """

    n: float = 0.0
    mean: float = 0.0
    m2: float = 0.0
    pos: float = 0.0

    @classmethod
    def of(cls, values: np.ndarray, pos_weight: np.ndarray) -> "_Moments":
        mean = float(values.mean())
        dev = values - mean
        return cls(float(values.size), mean, float((dev * dev).sum()), float(pos_weight.sum()))

    def merge(self, other: "_Moments"):
        n = self.n + other.n
        delta = other.mean - self.mean
        self.mean += delta * (other.n / n)
        self.m2 += other.m2 + delta * delta * (self.n * other.n / n)
        self.n = n
        self.pos += other.pos

    @property
    def variance(self) -> float:
        return self.m2 / (self.n - 1.0)


def _weighted(g: np.ndarray, log_inv_weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted payoff and weighted positive-payoff indicator per path.

    A zero-payoff path contributes 0 even where its weight overflowed to inf,
    instead of inf * 0 = nan; finite weights give the same bits as g * w.
    """
    hit = g > 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.exp(log_inv_weight)
        return np.where(hit, g * w, 0.0), np.where(hit, w, 0.0)


def _chunk_moments(
    cells: list[_TableCell],
    factory: DriftFactory,
    drift: DriftSchedule | None,
    size: int,
    rng: sim.RngSpec,
    increments: tuple[np.ndarray, np.ndarray | None],
) -> list[_Moments]:
    """Each cell's moments of one chunk on stream ``rng``, whose paths are
    simulated once under ``drift`` (None: the base measure, in mirrored pairs
    of the first ceil(size / 2) rows for Antithetic) from the pre-drawn
    ``increments``. The kernel streams the one-pass sum of every payoff the
    cells read, and each spec is evaluated once. Raises OptimError when a
    sum is not finite."""
    params, grid, sigma = factory.params, factory.grid, factory.sigma
    antithetic = cells[0].kind is EstimatorKind.ANTITHETIC
    # ControlGeometric's control: the geometric payoff on the same paths
    controls = {cell: make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, cell.spec.strike, grid.t_end)
                for cell in cells if cell.kind is EstimatorKind.CONTROL_GEOMETRIC}
    specs = list(dict.fromkeys([cell.spec for cell in cells] + list(controls.values())))
    if drift is not None:
        batch = sim.simulate_q(params, grid, size, rng, drift, increments=increments,
                               sigma=sigma, specs=specs)
    elif antithetic:
        half = tuple(None if a is None else a[: (size + 1) // 2] for a in increments)
        batch = sim.antithetic_pairs(params, grid, size + size % 2, rng,
                                     increments=half, sigma=sigma, specs=specs)
    else:
        batch = sim.simulate_p(params, grid, size, rng, increments=increments, sigma=sigma,
                               specs=specs)
    log_inv_weight, payoffs, moments = batch.log_inv_weight, {}, []

    def payoff(spec):
        if spec not in payoffs:
            g = payoff_mod.evaluate(spec, params, grid, total=batch.sums[spec])
            payoffs[spec] = g, (g > 0.0).astype(float)
        return payoffs[spec]

    for cell in cells:
        g, hit = payoff(cell.spec)
        if antithetic:
            m = _Moments.of(0.5 * (g[0::2] + g[1::2]), 0.5 * (hit[0::2] + hit[1::2]))
        elif cell.kind is EstimatorKind.CONTROL_GEOMETRIC:
            # unit-coefficient control: the value is arith - geo, priced as
            # E[geo] + its mean (``_report``), the classic pairing of the
            # arithmetic payoff with its exactly-priced geometric twin
            m = _Moments.of(g - payoff(controls[cell])[0], hit)
        elif drift is None:
            m = _Moments.of(g, hit)
        else:
            m = _Moments.of(*_weighted(g, log_inv_weight))
        if not np.all(np.isfinite((m.mean, m.m2, m.pos))):
            raise OptimError(
                f"non-finite weighted payoff moments in chunk {rng.stream_offset} "
                f"(mean={m.mean!r}, M2={m.m2!r})"
            )
        moments.append(m)
    if drift is not None and not np.exp(log_inv_weight.max()) > 0.0:
        # E_Q[w] = 1, so a chunk whose every weight is 0 estimates nothing
        raise OptimError(
            f"every likelihood weight underflowed to 0 in chunk {rng.stream_offset} "
            f"(largest log-weight {float(log_inv_weight.max())!r})"
        )
    return moments


@dataclass
class _ChunkGroup:
    """Consecutive chunks of a table whose increments are drawn once for every cell."""

    first: int
    sizes: list[int]
    increments: list[tuple[np.ndarray, np.ndarray | None]]
    pool: ThreadPoolExecutor


@dataclass(eq=False)
class _TableCell:
    """One (kind, strike) cell of a table, accumulated over chunk groups."""

    kind: EstimatorKind
    spec: PayoffSpec
    drift: tuple[DriftSchedule | None, float] = (None, 0.0)  # (schedule, build s)
    chunks: list[_Moments] = field(default_factory=list)
    wall: float = 0.0
    error: OptimError | DomainError | None = None


def _measure(cell: _TableCell):
    """The measure a cell's paths are drawn under, as a key: cells with equal
    keys read one simulation. No drift is the base measure, and Antithetic
    its mirrored pairs; a fixed schedule is its mode and channel bytes; a
    per-step schedule is never shared."""
    drift = cell.drift[0]
    if drift is None:
        return cell.kind is EstimatorKind.ANTITHETIC
    if drift.mode is DriftMode.PER_STEP_ADAPTIVE:
        return cell
    return drift.mode, drift.h1_dot.tobytes(), drift.h2_dot.tobytes()


def _report(
    cell: _TableCell,
    factory: DriftFactory,
    n_paths: int,
    seed: int,
    classic_variance: float | None,
) -> EstimatorReport:
    """The cell's report from its per-chunk moments, merged in chunk order.

    A failed cell gives NaN metrics and keeps its "kind @ K=strike: reason".
    """
    kind, strike, grid = cell.kind, cell.spec.strike, factory.grid
    if cell.error is not None:
        nan = float("nan")
        return EstimatorReport(kind.value, strike, n_paths, grid.n_steps, seed, nan, nan,
                               nan, nan, nan, 0.0, 0.0, error=str(cell.error))
    total = _Moments()
    for m in cell.chunks:
        total.merge(m)

    price, variance, n_eff = total.mean, total.variance, total.n
    if kind is EstimatorKind.ANTITHETIC:
        variance = 2.0 * variance  # per-sample equivalent of pair averages
        n_eff = 2.0 * total.n
    elif kind is EstimatorKind.CONTROL_GEOMETRIC:
        price += geometric_asian_price_bs(factory.params, factory.sigma, strike, grid)
    std_err = float(np.sqrt(variance / n_eff)) if n_eff > 1 else float("nan")
    if kind is EstimatorKind.CLASSIC:
        var_red = 1.0
    else:
        var_red = classic_variance / variance if variance > 0.0 else float("inf")

    return EstimatorReport(
        kind=kind.value, strike=strike, n_paths=int(n_eff), n_steps=grid.n_steps,
        seed=seed, price=price, std_err=std_err, variance=variance,
        var_reduction=var_red, prob_positive=total.pos / total.n,
        wall_time_s=cell.wall, drift_time_s=cell.drift[1],
    )


def run_estimator(
    kind: EstimatorKind,
    spec: PayoffSpec,
    factory: DriftFactory,
    seed: int,
    group: _ChunkGroup,
    run: list[_TableCell],
) -> None:
    """Simulate ``group``'s chunks once under the measure of ``run``, whose
    first cell is (``kind``, ``spec``), and add each cell its moments and the
    elapsed time. ``_run_cells`` calls it once per measure; errors name no
    cell. ``kind`` and ``spec`` stay the first two parameters: perfbench's
    tracer reads them there to label the run.
    """
    t0 = time.perf_counter()
    chunks = list(group.pool.map(
        lambda j: _chunk_moments(run, factory, run[0].drift[0], group.sizes[j],
                                 sim.RngSpec(seed, group.first + j), group.increments[j]),
        range(len(group.sizes)),
    ))
    wall = time.perf_counter() - t0
    for cell, moments in zip(run, zip(*chunks)):
        cell.chunks += moments
        cell.wall += wall


def _run_cells(
    cells: list[_TableCell], factory: DriftFactory, n_paths: int, seed: int, workers: int
) -> None:
    """Build every cell's drift, then simulate each chunk once per measure
    (``_measure``) for all the cells on it: walk the chunks in groups of
    ``workers`` on one pool of ``workers`` threads, drawing a group's
    increments once and running every measure on them before drawing the
    next. A failed build or run gives each of its cells the error under the
    cell's own name, and the cell stops."""

    def fail(failed: list[_TableCell], e: OptimError | DomainError) -> None:
        for cell in failed:
            cell.error = type(e)(f"{cell.kind.value} @ K={cell.spec.strike}: {e}")

    runs: dict = {}
    for cell in cells:
        try:
            if factory.route(cell.kind, cell.spec)[0] is not None:
                drift, secs = factory.build(cell.kind, cell.spec)
                # a zero schedule moves no path, and every log-weight stays exactly 0
                zero = drift.mode in (_DET, _ADA) and not np.any((drift.h1_dot, drift.h2_dot))
                cell.drift = (None if zero else drift, secs)
        except (OptimError, DomainError) as e:
            fail([cell], e)
            continue
        runs.setdefault(_measure(cell), []).append(cell)
    live = list(runs.values())
    sizes, grid = _chunk_sizes(n_paths), factory.grid
    perp = factory.sigma is None  # a constant-vol model reads dW alone
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for first in range(0, len(sizes), workers):
            t0 = time.perf_counter()
            group = _ChunkGroup(first, sizes[first:first + workers], list(pool.map(
                lambda j: sim.normal_increments(
                    sim.RngSpec(seed, j), sizes[j], grid.n_steps, grid.dt, perp
                ),
                range(first, min(first + workers, len(sizes))),
            )), pool)
            draw_s = time.perf_counter() - t0
            live = [run for run in live if run[0].error is None]
            for run in live:
                for cell in run:
                    cell.wall += draw_s / len(live)
                try:
                    run_estimator(run[0].kind, run[0].spec, factory, seed, group, run)
                except (OptimError, DomainError) as e:
                    fail(run, e)
                    if any(cell.kind is EstimatorKind.CLASSIC for cell in run):
                        raise run[0].error from e
            del group  # frees the blocks before the next group is drawn


def _table(
    payoff_kind: PayoffKind,
    strikes: list[float],
    kinds: list[EstimatorKind],
    factory: DriftFactory,
    n_paths: int,
    seed: int,
    workers: int,
) -> list[EstimatorReport]:
    if not kinds:
        return []
    validate(factory.params)
    rows = []
    for strike in sorted(strikes):
        spec = make_payoff(payoff_kind, strike, factory.grid.t_end)
        base = _TableCell(EstimatorKind.CLASSIC, spec)
        rows.append((base, [_TableCell(kind, spec) for kind in kinds
                            if kind is not EstimatorKind.CLASSIC]))
    _run_cells([c for base, others in rows for c in [base, *others]],
               factory, n_paths, seed, workers)

    reports: list[EstimatorReport] = []
    for base, others in rows:
        classic = _report(base, factory, n_paths, seed, None)
        if EstimatorKind.CLASSIC in kinds:
            reports.append(classic)
        reports += [_report(c, factory, n_paths, seed, classic.variance) for c in others]
    return reports


def run_table(
    payoff_kind: PayoffKind,
    strikes: list[float],
    kinds: list[EstimatorKind],
    params: HestonParams,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> list[EstimatorReport]:
    """One report per (strike, kind), matched seeds per strike, sorted by strike.

    Every cell runs on the same chunk streams, so the table draws each chunk's
    increments once: it walks the chunks in groups of ``workers`` on one
    pool of ``workers`` threads (one included) and runs every cell on a group
    before drawing the next. A chunk's paths are simulated once per measure,
    whatever the strike: once without drift (the cells with none or a zero
    one), once in mirrored pairs (Antithetic) and once per distinct fixed
    schedule. A run's ``wall_time_s`` is the elapsed
    time of its own chunk work plus an equal share of each group's draw
    time, and every cell on that measure reports it. Cell failures are
    reported inline (nan metrics, error message "kind @ K=strike: reason"
    kept) without aborting the table.
    """
    return _table(payoff_kind, strikes, kinds, DriftFactory(params, grid),
                  n_paths, seed, workers)


# ---------------------------------------------------------------------------
# Constant-volatility arithmetic-Asian comparison (geometric control variate)
# ---------------------------------------------------------------------------

def geometric_asian_price_bs(
    params: HestonParams, sigma: float, strike: float, grid: TimeGrid
) -> float:
    """Exact discrete-monitoring geometric-Asian call price under constant vol.

    The aggregated return sum alpha_i dX_i is Gaussian with mean -sigma^2 A1/2
    and variance sigma^2 A2 (A1 = sum alpha dt, A2 = sum alpha^2 dt), so the
    price is a Black-type formula on the compounded forward s0 e^{rT/2}.
    """
    alpha = geometric_weight(grid.t_end).on_grid(grid)[:-1]
    a1 = float(alpha.sum() * grid.dt)
    a2 = float((alpha**2).sum() * grid.dt)
    mu = -0.5 * sigma * sigma * a1
    s = sigma * np.sqrt(a2)
    fwd = params.s0 * np.exp(0.5 * params.r * grid.t_end)
    if strike <= 0.0:
        return fwd * np.exp(mu + 0.5 * s * s)
    d2 = (mu - np.log(strike / fwd)) / s
    d1 = d2 + s
    return float(fwd * np.exp(mu + 0.5 * s * s) * ndtr(d1) - strike * ndtr(d2))


def run_appendix_estimator(
    kind: EstimatorKind,
    strike: float,
    params: HestonParams,
    sigma: float,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
) -> EstimatorReport:
    """The one row of ``run_appendix_table([strike], [kind], ...)``: a
    failure is in its ``error``."""
    (row,) = run_appendix_table([strike], [kind], params, sigma, grid, n_paths, seed)
    return row


def run_appendix_table(
    strikes: list[float],
    kinds: list[EstimatorKind],
    params: HestonParams,
    sigma: float,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> list[EstimatorReport]:
    """``run_table`` for the arithmetic-Asian call under constant volatility ``sigma``.

    The drift kind (BS) uses the geometric-call drift at the same strike as a
    surrogate; the control estimator (ControlGeometric) regresses on the
    geometric payoff, whose exact discrete price is known in closed form.
    """
    return _table(PayoffKind.ARITHMETIC_ASIAN_CALL, strikes, kinds,
                  DriftFactory(params, grid, sigma), n_paths, seed, workers)
