"""Estimator runner: prices, variances, variance-reduction ratios and timings
across strikes and estimator kinds, with paired seeds against the classic
estimator.

Paths are generated in fixed-size chunks with independent Philox streams
(seed, chunk index), so results are identical no matter how many workers
consume the chunks. Reductions accumulate per-chunk partial sums and combine
them in chunk order.
"""

from __future__ import annotations

import enum
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

from .errors import DomainError, OptimError
from .measure import DriftMode, DriftSchedule
from .model import HestonParams, TimeGrid, psi_deterministic, validate
from .payoff import (
    PayoffKind,
    PayoffSpec,
    aggregate_log_return,
    geometric_weight,
    make_payoff,
)
from . import payoff as payoff_mod
from . import sim
from . import varopt
from .drift_bs import bs_beta, bs_drift, bs_fully_adaptive
from .drift_ldp import LdpMode, ldp_optimum, ldp_paths, ldp_problem
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


ADAPTIVE_KINDS = {
    EstimatorKind.BS_A,
    EstimatorKind.LDP_SN_A,
    EstimatorKind.LDP_ST_A,
    EstimatorKind.MDP_SN_LOG_A,
    EstimatorKind.MDP_SN_A,
    EstimatorKind.MDP_ST_A,
}

DRIFT_KINDS = ADAPTIVE_KINDS | {
    EstimatorKind.BS,
    EstimatorKind.BS_A2,
    EstimatorKind.LDP_SN,
    EstimatorKind.LDP_ST,
    EstimatorKind.MDP_SN_LOG,
    EstimatorKind.MDP_SN,
    EstimatorKind.MDP_ST,
    EstimatorKind.MDP_LT,
}


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


CSV_COLUMNS = (
    "kind,strike,n_paths,n_steps,seed,price,std_err,variance,"
    "var_reduction,prob_positive,wall_time_s,drift_time_s"
)


def reports_to_csv(reports: list[EstimatorReport], stable_output: bool = False) -> str:
    lines = [CSV_COLUMNS]
    for r in reports:
        wall, drift_t = (0.0, 0.0) if stable_output else (r.wall_time_s, r.drift_time_s)
        cells = [r.kind, repr(float(r.strike)), str(r.n_paths), str(r.n_steps),
                 str(r.seed)] + [
            repr(float(v))
            for v in (r.price, r.std_err, r.variance, r.var_reduction,
                      r.prob_positive, wall, drift_t)
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Drift construction (shared across det/adaptive variants of one pipeline)
# ---------------------------------------------------------------------------

class DriftFactory:
    """Builds and caches drift schedules per (pipeline, strike)."""

    def __init__(self, params: HestonParams, grid: TimeGrid):
        self.params = params
        self.grid = grid
        self._cache: dict = {}

    def _cached(self, key, builder):
        if key not in self._cache:
            t0 = time.perf_counter()
            value = builder()
            self._cache[key] = (value, time.perf_counter() - t0)
        return self._cache[key]

    def build(self, kind: EstimatorKind, spec: PayoffSpec) -> tuple[DriftSchedule, float]:
        if spec.kind is PayoffKind.VOL_INDICATOR_SWAP:
            return self._build_varswap(kind, spec)
        alpha = spec.weight if spec.weight is not None else geometric_weight(self.grid.t_end)
        p, g = self.params, self.grid
        mode = DriftMode.ADAPTIVE if kind in ADAPTIVE_KINDS else DriftMode.DETERMINISTIC

        if kind in (EstimatorKind.BS, EstimatorKind.BS_A):
            (red, sigma), secs = self._cached(
                ("bs", spec.strike),
                lambda: (
                    bs_beta(spec, np.sqrt(psi_deterministic(p, g)), alpha, g, p),
                    np.sqrt(psi_deterministic(p, g)),
                ),
            )
            return bs_drift(red.beta_star, sigma, red.alpha, p.rho, g, mode), secs
        if kind is EstimatorKind.BS_A2:
            (sched,), secs = self._cached(
                ("bs_a2", spec.strike), lambda: (bs_fully_adaptive(spec, p, g),)
            )
            return sched, secs
        if kind in (EstimatorKind.LDP_SN, EstimatorKind.LDP_SN_A):
            return self._ldp(spec, alpha, LdpMode.SMALL_NOISE, mode)
        if kind in (EstimatorKind.LDP_ST, EstimatorKind.LDP_ST_A):
            return self._ldp(spec, alpha, LdpMode.SMALL_TIME, mode)
        if kind in (EstimatorKind.MDP_SN_LOG, EstimatorKind.MDP_SN_LOG_A):
            (d,), secs = self._cached(
                ("mdp_log", spec.strike, mode),
                lambda: (mdp_log_drift(spec, alpha, p, g, mode),),
            )
            return d, secs
        if kind in (EstimatorKind.MDP_SN, EstimatorKind.MDP_SN_A):
            (d,), secs = self._cached(
                ("mdp_price", spec.strike, mode),
                lambda: (mdp_price_drift(spec, alpha, p, g, mode),),
            )
            return d, secs
        if kind in (EstimatorKind.MDP_ST, EstimatorKind.MDP_ST_A):
            (d,), secs = self._cached(
                ("mdp_st", spec.strike, mode),
                lambda: (mdp_small_time_drift(spec, alpha, p, g, mode),),
            )
            return d, secs
        if kind is EstimatorKind.MDP_LT:
            (d,), secs = self._cached(
                ("mdp_lt", spec.strike), lambda: (mdp_large_time_drift(spec, alpha, p, g),)
            )
            return d, secs
        raise DomainError(f"{kind.value} carries no drift")

    def _ldp(self, spec, alpha, ldp_mode, out_mode):
        p, g = self.params, self.grid
        (a0_s, beta_s, _), secs = self._cached(
            ("ldp", ldp_mode, spec.strike), lambda: ldp_optimum(spec, alpha, p, g, ldp_mode)
        )
        paths = ldp_paths(beta_s, a0_s, alpha, p, g, ldp_mode)
        tag = f"ldp_{ldp_mode.value}"
        if out_mode is DriftMode.ADAPTIVE:
            sqp = np.sqrt(paths.psi)
            return (
                DriftSchedule(DriftMode.ADAPTIVE, paths.xdot1 / sqp, paths.xdot2 / sqp, tag),
                secs,
            )
        return DriftSchedule(DriftMode.DETERMINISTIC, paths.xdot1, paths.xdot2, tag), secs

    # -- variance-payoff drifts (no closed form: reduced-basis solves) -------

    def _build_varswap(self, kind: EstimatorKind, spec: PayoffSpec):
        p, g = self.params, self.grid
        mode = DriftMode.ADAPTIVE if kind in ADAPTIVE_KINDS else DriftMode.DETERMINISTIC
        psi = psi_deterministic(p, g)
        if kind in (EstimatorKind.LDP_SN, EstimatorKind.LDP_SN_A):
            (prof1, prof2), secs = self._cached(
                ("vs_ldp", spec.strike), lambda: self._solve_vs_ldp(spec)
            )
        elif kind in (EstimatorKind.MDP_SN, EstimatorKind.MDP_SN_A):
            (prof1, prof2), secs = self._cached(
                ("vs_mdp", spec.strike), lambda: self._solve_vs_mdp(spec)
            )
        elif kind in (EstimatorKind.BS, EstimatorKind.BS_A):
            (prof1, prof2), secs = self._cached(
                ("vs_bs", spec.strike), lambda: self._solve_vs_bs(spec)
            )
        else:
            raise OptimError(f"{kind.value} is not offered for variance payoffs")
        if mode is DriftMode.ADAPTIVE:
            sqp = np.sqrt(psi)
            return DriftSchedule(mode, prof1 / sqp, prof2 / sqp, "varswap"), secs
        return DriftSchedule(mode, prof1, prof2, "varswap"), secs

    def _vs_log_payoff(self, spec):
        p, g = self.params, self.grid
        t = g.knots

        def payoff_log(phi_dot, psi):
            x = np.concatenate([[0.0], np.cumsum(phi_dot[:-1] * g.dt)])
            s = p.s0 * np.exp(p.r * t + x)
            val = float((psi[:-1] * (s[:-1] >= spec.strike)).sum() * g.dt)
            return np.log(val) if val > 0.0 else -np.inf

        return payoff_log

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

    def _solve_vs_ldp(self, spec):
        p, g = self.params, self.grid
        vega = self._variance_response_atom()
        zero = np.zeros_like(vega)
        problem = ldp_problem(
            None, p, g, LdpMode.SMALL_NOISE, payoff_log=self._vs_log_payoff(spec),
            extra_atoms=[(vega, zero)], n_hats=9,
        )
        init = np.zeros(problem.n_coeffs)
        init[2] = 1.0  # unit weight on the variance-response atom
        problem.seed_coeffs = [init]
        coeffs, _ = varopt.solve(problem, init=init, budget=3000)
        prof1, prof2 = problem.expand(coeffs)
        return prof1, prof2

    def _solve_vs_mdp(self, spec):
        p, g = self.params, self.grid
        t = g.knots
        psi = psi_deterministic(p, g)

        def payoff_log(phi_dot_fluct, psi_, eta):
            v_proxy = psi_ + eta
            x = np.concatenate(
                [[0.0], np.cumsum((phi_dot_fluct[:-1] - 0.5 * psi_[:-1]) * g.dt)]
            )
            s = p.s0 * np.exp(p.r * t + x)
            val = float((v_proxy[:-1] * (s[:-1] >= spec.strike)).sum() * g.dt)
            return np.log(val) if val > 0.0 else -np.inf

        vega = self._variance_response_atom()
        zero = np.zeros_like(vega)
        problem = mdp_log_problem(
            None, p, g, payoff_log=payoff_log, extra_atoms=[(vega, zero)], n_hats=9
        )
        init = np.zeros(problem.n_coeffs)
        init[2] = 1.0
        problem.seed_coeffs = [init]
        coeffs, _ = varopt.solve(problem, init=init, budget=3000)
        return problem.expand(coeffs)

    def _solve_vs_bs(self, spec):
        """Deterministic-volatility approximation: variance path frozen at psi."""
        p, g = self.params, self.grid
        psi = psi_deterministic(p, g)
        sqp = np.sqrt(psi)
        t = g.knots
        dt = g.dt

        def objective(xdot):
            phi_dot = -0.5 * psi + sqp * xdot
            x = np.concatenate([[0.0], np.cumsum(phi_dot[:-1] * dt)])
            s = p.s0 * np.exp(p.r * t + x)
            val = float((psi[:-1] * (s[:-1] >= spec.strike)).sum() * dt)
            if val <= 0.0:
                return varopt.NEG_SENTINEL
            return float(np.log(val)) - 0.5 * float((xdot[:-1] ** 2).sum() * dt)

        basis = varopt.stack_basis(
            np.ones((1, g.n_steps + 1)), varopt.hat_basis(g, 9)
        )
        seed = np.zeros(basis.shape[0])
        seed[0] = 1.0
        problem = varopt.VariationalProblem(
            objective=objective, basis=[basis], grid=g, seed_coeffs=[seed], label="vs_bs"
        )
        coeffs, _ = varopt.solve(problem, budget=2000)
        (prof,) = problem.expand(coeffs)
        return p.rho * prof, p.rho_bar * prof


# ---------------------------------------------------------------------------
# Chunked estimator runs
# ---------------------------------------------------------------------------

def _chunk_sizes(n_paths: int) -> list[int]:
    sizes = [CHUNK_PATHS] * (n_paths // CHUNK_PATHS)
    if n_paths % CHUNK_PATHS:
        sizes.append(n_paths % CHUNK_PATHS)
    return sizes


def _thread_pool(workers: int):
    """A pool of ``workers`` threads, or a context yielding None for one worker."""
    return ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()


def _map_chunks(fn, chunks, pool: ThreadPoolExecutor | None) -> list:
    if pool is None:
        return [fn(i) for i in chunks]
    return list(pool.map(fn, chunks))


@dataclass
class _Moments:
    n: float = 0.0
    s1: float = 0.0
    s2: float = 0.0
    pos: float = 0.0

    def add(self, values: np.ndarray, pos_weight: np.ndarray):
        self.n += values.size
        self.s1 += float(values.sum())
        self.s2 += float((values * values).sum())
        self.pos += float(pos_weight.sum())

    @property
    def mean(self) -> float:
        return self.s1 / self.n

    @property
    def variance(self) -> float:
        return max((self.s2 - self.s1 * self.s1 / self.n) / (self.n - 1.0), 0.0)


def _label(kind: EstimatorKind, strike: float) -> str:
    return f"{kind.value} @ K={strike}"


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
    kind: EstimatorKind,
    spec: PayoffSpec,
    params: HestonParams,
    grid: TimeGrid,
    drift: DriftSchedule | None,
    size: int,
    rng: sim.RngSpec,
    increments: tuple[np.ndarray, np.ndarray] | None = None,
) -> _Moments:
    """Moments of one chunk of the (kind, spec) estimator on stream ``rng``.

    ``increments`` are the chunk's pre-drawn (dw, dw_perp): ``size`` rows, or
    for Antithetic the mirrored pairs of the first ceil(size / 2) rows. Raises
    OptimError naming the cell when a sum is not finite.
    """
    if kind is EstimatorKind.CLASSIC:
        batch = sim.simulate_p(params, grid, size, rng, increments=increments)
    elif kind is EstimatorKind.ANTITHETIC:
        batch = sim.antithetic_pairs(params, grid, size + size % 2, rng, increments=increments)
    else:
        batch = sim.simulate_q(params, grid, size, rng, drift, increments=increments)
    x, v, log_inv_weight = batch.x, batch.v, batch.log_inv_weight
    del batch  # frees v_raw (and a block drawn here) before the payoff's temporaries
    g = payoff_mod.evaluate(spec, params, grid, x, v)
    m = _Moments()
    if kind is EstimatorKind.CLASSIC:
        m.add(g, (g > 0.0).astype(float))
    elif kind is EstimatorKind.ANTITHETIC:
        hit = (g > 0.0).astype(float)
        m.add(0.5 * (g[0::2] + g[1::2]), 0.5 * (hit[0::2] + hit[1::2]))
    else:
        m.add(*_weighted(g, log_inv_weight))
    if not np.all(np.isfinite((m.s1, m.s2, m.pos))):
        raise OptimError(
            f"{_label(kind, spec.strike)}: non-finite weighted payoff sum in chunk "
            f"{rng.stream_offset} (s1={m.s1!r}, s2={m.s2!r})"
        )
    return m


def _report(
    kind: EstimatorKind,
    spec: PayoffSpec,
    grid: TimeGrid,
    seed: int,
    chunks: list[_Moments],
    wall: float,
    drift_secs: float,
    classic_variance: float | None,
) -> EstimatorReport:
    """The cell's report from its per-chunk moments, merged in chunk order."""
    total = _Moments()
    for m in chunks:
        total.n += m.n
        total.s1 += m.s1
        total.s2 += m.s2
        total.pos += m.pos

    if kind is EstimatorKind.ANTITHETIC:
        variance = 2.0 * total.variance  # per-sample equivalent of pair averages
        n_eff = 2.0 * total.n
    else:
        variance = total.variance
        n_eff = total.n
    std_err = float(np.sqrt(variance / n_eff)) if n_eff > 1 else float("nan")
    if kind is EstimatorKind.CLASSIC:
        var_red = 1.0
    else:
        var_red = classic_variance / variance if variance > 0.0 else float("inf")

    return EstimatorReport(
        kind=kind.value,
        strike=spec.strike,
        n_paths=int(n_eff),
        n_steps=grid.n_steps,
        seed=seed,
        price=total.mean,
        std_err=std_err,
        variance=variance,
        var_reduction=var_red,
        prob_positive=total.pos / total.n,
        wall_time_s=wall,
        drift_time_s=drift_secs,
    )


@dataclass
class _ChunkGroup:
    """Consecutive chunks of a table whose increments are drawn once for every cell."""

    first: int
    sizes: list[int]
    increments: list[tuple[np.ndarray, np.ndarray]]
    pool: ThreadPoolExecutor | None
    mirrored: bool = False

    def mirror(self) -> None:
        """Replace each chunk's block by the antithetic pairs of its first
        ceil(size / 2) rows, which takes no more memory than the block and
        frees it: every other cell must run before this."""
        if not self.mirrored:
            self.increments = _map_chunks(
                lambda j: sim.mirror_increments(
                    *(a[: (self.sizes[j] + 1) // 2] for a in self.increments[j])
                ),
                range(len(self.sizes)), self.pool,
            )
            self.mirrored = True


@dataclass
class _TableCell:
    """One (kind, strike) cell of a table, accumulated over chunk groups."""

    kind: EstimatorKind
    spec: PayoffSpec
    drift: tuple[DriftSchedule | None, float] | None = None  # (schedule, build s) once built
    chunks: list[_Moments] = field(default_factory=list)
    wall: float = 0.0
    error: str = ""


def _build_drift(
    kind: EstimatorKind, spec: PayoffSpec, factory: DriftFactory
) -> tuple[DriftSchedule | None, float]:
    if kind in (EstimatorKind.CLASSIC, EstimatorKind.ANTITHETIC):
        return None, 0.0
    try:
        if kind not in DRIFT_KINDS:
            raise DomainError(f"{kind.value} runs only in the constant-vol comparison")
        return factory.build(kind, spec)
    except (OptimError, DomainError) as e:
        raise type(e)(f"{_label(kind, spec.strike)}: {e}") from e


def run_estimator(
    kind: EstimatorKind,
    spec: PayoffSpec,
    params: HestonParams,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    classic_variance: float | None = None,
    workers: int = 1,
    factory: DriftFactory | None = None,
    shared: tuple[_ChunkGroup, _TableCell] | None = None,
) -> EstimatorReport | None:
    """Price one (kind, strike) cell; errors name the cell ("kind @ K=strike: ...").

    With ``shared=(group, cell)``, as ``run_table`` calls it, run only the
    group's chunks on their pre-drawn increments, add their moments and the
    elapsed time to ``cell`` and return None; ``n_paths``,
    ``classic_variance`` and ``workers`` are then not used.
    """
    validate(params)
    group, cell = shared if shared is not None else (None, None)
    if cell is not None and cell.drift is not None:
        drift, drift_secs = cell.drift
    else:
        drift, drift_secs = _build_drift(kind, spec, factory or DriftFactory(params, grid))
        if cell is not None:
            cell.drift = (drift, drift_secs)

    def run_chunk(i: int, size: int, increments=None) -> _Moments:
        return _chunk_moments(
            kind, spec, params, grid, drift, size, sim.RngSpec(seed, i), increments
        )

    if group is not None:
        t0 = time.perf_counter()
        if kind is EstimatorKind.ANTITHETIC:
            group.mirror()
        cell.chunks += _map_chunks(
            lambda j: run_chunk(group.first + j, group.sizes[j], group.increments[j]),
            range(len(group.sizes)), group.pool,
        )
        cell.wall += time.perf_counter() - t0
        return None

    sizes = _chunk_sizes(n_paths)
    t0 = time.perf_counter()
    with _thread_pool(workers) as pool:
        chunks = _map_chunks(lambda i: run_chunk(i, sizes[i]), range(len(sizes)), pool)
    wall = time.perf_counter() - t0
    if kind is not EstimatorKind.CLASSIC and classic_variance is None:
        classic_variance = run_estimator(
            EstimatorKind.CLASSIC, spec, params, grid, n_paths, seed,
            workers=workers, factory=factory,
        ).variance
    return _report(kind, spec, grid, seed, chunks, wall, drift_secs, classic_variance)


def _run_group(
    first: int,
    sizes: list[int],
    cells: list[_TableCell],
    params: HestonParams,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    factory: DriftFactory,
    pool: ThreadPoolExecutor | None,
) -> None:
    """Draw the group's increments once and run every live cell on them."""
    t0 = time.perf_counter()
    group = _ChunkGroup(first, sizes, _map_chunks(
        lambda j: sim.normal_increments(
            sim.RngSpec(seed, first + j), sizes[j], grid.n_steps, grid.dt
        ),
        range(len(sizes)), pool,
    ), pool)
    draw_s = time.perf_counter() - t0
    live = [c for c in cells if not c.error]
    for cell in live:
        cell.wall += draw_s / len(live)
        try:
            run_estimator(
                cell.kind, cell.spec, params, grid, n_paths, seed,
                factory=factory, shared=(group, cell),
            )
        except (OptimError, DomainError) as e:
            if cell.kind is EstimatorKind.CLASSIC:
                raise
            cell.error = str(e)


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
    increments once: it walks the chunks in groups of ``workers`` and runs
    every cell on a group before drawing the next. A cell's ``wall_time_s`` is
    the elapsed time of its own chunk work plus an equal share of each group's
    draw time. Cell failures are reported inline (nan metrics, error message
    "kind @ K=strike: reason" kept) without aborting the table.
    """
    if not kinds:
        return []
    factory = DriftFactory(params, grid)
    rows = []
    for strike in sorted(strikes):
        spec = make_payoff(payoff_kind, strike, grid.t_end)
        base = _TableCell(EstimatorKind.CLASSIC, spec)
        rows.append((base, [_TableCell(kind, spec) for kind in kinds
                            if kind is not EstimatorKind.CLASSIC]))
    cells = [c for base, others in rows for c in [base, *others]]
    # Antithetic cells go last: they replace the group's blocks by mirrored pairs
    cells.sort(key=lambda c: c.kind is EstimatorKind.ANTITHETIC)

    sizes = _chunk_sizes(n_paths)
    step = max(workers, 1)
    with _thread_pool(workers) as pool:
        for first in range(0, len(sizes), step):
            _run_group(first, sizes[first:first + step], cells, params, grid,
                       n_paths, seed, factory, pool)

    reports: list[EstimatorReport] = []
    for base, others in rows:
        classic = _report(EstimatorKind.CLASSIC, base.spec, grid, seed, base.chunks,
                          base.wall, 0.0, None)
        if EstimatorKind.CLASSIC in kinds:
            reports.append(classic)
        for cell in others:
            if cell.error:
                reports.append(EstimatorReport(
                    kind=cell.kind.value, strike=cell.spec.strike, n_paths=n_paths,
                    n_steps=grid.n_steps, seed=seed, price=float("nan"),
                    std_err=float("nan"), variance=float("nan"),
                    var_reduction=float("nan"), prob_positive=float("nan"),
                    wall_time_s=0.0, drift_time_s=0.0, error=cell.error,
                ))
            else:
                reports.append(_report(cell.kind, cell.spec, grid, seed, cell.chunks,
                                       cell.wall, cell.drift[1], classic.variance))
    return reports


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
    return float(fwd * np.exp(mu + 0.5 * s * s) * norm.cdf(d1) - strike * norm.cdf(d2))


def _bs_paths(params, sigma, grid, dw):
    x = np.concatenate(
        [
            np.zeros((dw.shape[0], 1)),
            np.cumsum(-0.5 * sigma * sigma * grid.dt + sigma * dw, axis=1),
        ],
        axis=1,
    )
    return x


def run_appendix_estimator(
    kind: EstimatorKind,
    strike: float,
    params: HestonParams,
    sigma: float,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    classic_variance: float | None = None,
) -> EstimatorReport:
    """Constant-vol model, arithmetic-Asian payoff.

    The drift kind (BS) uses the geometric-call drift at the same strike as a
    surrogate; the control estimator regresses on the geometric payoff, whose
    exact discrete price is known in closed form.
    """
    w = geometric_weight(grid.t_end)
    alpha = w.on_grid(grid)
    t = grid.knots
    dt = grid.dt
    drift_secs = 0.0
    profile = None
    if kind is EstimatorKind.BS:
        spec = make_payoff(PayoffKind.GEOMETRIC_ASIAN_CALL, strike, grid.t_end)
        t0 = time.perf_counter()
        red = bs_beta(spec, np.full(grid.n_steps + 1, sigma), w, grid, params)
        drift_secs = time.perf_counter() - t0
        profile = red.beta_star * alpha * sigma
    elif kind not in (
        EstimatorKind.CLASSIC, EstimatorKind.ANTITHETIC, EstimatorKind.CONTROL_GEOMETRIC,
    ):
        raise DomainError(f"{kind.value} is not part of the constant-vol comparison")

    def arith_payoff(x):
        s_paths = params.s0 * np.exp(params.r * t + x)
        return np.maximum(s_paths[:, :-1].mean(axis=1) - strike, 0.0)

    def geo_payoff(x):
        fwd = params.s0 * np.exp(0.5 * params.r * grid.t_end)
        return np.maximum(fwd * np.exp(aggregate_log_return(x, alpha)) - strike, 0.0)

    main = _Moments()
    geo_m = _Moments()
    cross = 0.0
    t0 = time.perf_counter()
    for i, size in enumerate(_chunk_sizes(n_paths)):
        rng = sim.RngSpec(seed, i)
        if kind is EstimatorKind.ANTITHETIC:
            half = (size + size % 2) // 2
            dw, _ = sim.normal_increments(rng, half, grid.n_steps, dt)
            g_plus = arith_payoff(_bs_paths(params, sigma, grid, dw))
            g_minus = arith_payoff(_bs_paths(params, sigma, grid, -dw))
            pair = 0.5 * (g_plus + g_minus)
            main.add(pair, 0.5 * ((g_plus > 0.0) + (g_minus > 0.0)))
            continue
        dw, _ = sim.normal_increments(rng, size, grid.n_steps, dt)
        if profile is not None:
            logw = -(profile[:-1] * dw).sum(axis=1) - 0.5 * float(
                (profile[:-1] ** 2).sum() * dt
            )
            x = _bs_paths(params, sigma, grid, dw + profile[:-1] * dt)
            g = arith_payoff(x)
            wgt = np.exp(logw)
            main.add(g * wgt, wgt * (g > 0.0))
        else:
            x = _bs_paths(params, sigma, grid, dw)
            g = arith_payoff(x)
            main.add(g, (g > 0.0).astype(float))
            if kind is EstimatorKind.CONTROL_GEOMETRIC:
                geo = geo_payoff(x)
                geo_m.add(geo, np.zeros(0))
                cross += float((g * geo).sum())
    wall = time.perf_counter() - t0

    n = main.n
    price = main.mean
    variance = main.variance
    if kind is EstimatorKind.CONTROL_GEOMETRIC:
        # unit-coefficient control: arith - geo + E[geo], the classic pairing
        # of the arithmetic payoff with its exactly-priced geometric twin
        var_g = geo_m.variance
        cov = (cross - main.s1 * geo_m.s1 / n) / (n - 1.0)
        geo_exact = geometric_asian_price_bs(params, sigma, strike, grid)
        price = main.mean + (geo_exact - geo_m.mean)
        variance = max(variance - 2.0 * cov + var_g, 0.0)
    n_eff = n
    if kind is EstimatorKind.ANTITHETIC:
        variance = 2.0 * variance
        n_eff = 2.0 * n

    std_err = float(np.sqrt(variance / n_eff)) if variance > 0 else 0.0
    if kind is EstimatorKind.CLASSIC:
        var_red = 1.0
    else:
        if classic_variance is None:
            classic_variance = run_appendix_estimator(
                EstimatorKind.CLASSIC, strike, params, sigma, grid, n_paths, seed
            ).variance
        var_red = classic_variance / variance if variance > 0 else float("inf")
    return EstimatorReport(
        kind=kind.value, strike=strike, n_paths=int(n_eff), n_steps=grid.n_steps,
        seed=seed, price=price, std_err=std_err, variance=variance,
        var_reduction=var_red, prob_positive=main.pos / n,
        wall_time_s=wall, drift_time_s=drift_secs,
    )


def run_appendix_table(
    strikes: list[float],
    kinds: list[EstimatorKind],
    params: HestonParams,
    sigma: float,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
) -> list[EstimatorReport]:
    reports = []
    for strike in sorted(strikes):
        base = run_appendix_estimator(
            EstimatorKind.CLASSIC, strike, params, sigma, grid, n_paths, seed
        )
        if EstimatorKind.CLASSIC in kinds:
            reports.append(base)
        for kind in kinds:
            if kind is EstimatorKind.CLASSIC:
                continue
            reports.append(
                run_appendix_estimator(
                    kind, strike, params, sigma, grid, n_paths, seed,
                    classic_variance=base.variance,
                )
            )
    return reports
