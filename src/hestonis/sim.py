"""Path generation for (X, V) under the sampling measure.

Variance uses the full-truncation scheme (drift and diffusion read the
truncated value, the stored state may go negative):

    Vt_{i+1} = Vt_i + kappa (theta - Vt_i^+) dt + xi sqrt(Vt_i^+) dW_i
    V_i      = Vt_i^+

and the log return a standard Euler step driven by the truncated variance:

    X_{i+1} = X_i - V_i/2 dt + sqrt(V_i) (rho dW_i + rho_bar dW_i^perp).

Under a drift-shifted measure the increments are shifted before entering both
recursions: dW_i <- dW_i^Q + m1(t_i) dt (and likewise the orthogonal channel),
with the modulation (m1, m2) defined by the schedule mode. Batches retain the
Q-increments so weights can be recomputed after the fact.

Given a constant volatility sigma the same kernel runs with the variance
frozen at sigma^2 on the one channel dW (loading (1, 0)): no variance
recursion runs, X_{i+1} = X_i - sigma^2/2 dt + sigma dW_i.

Normals come from the counter-based Philox generator through the inverse CDF,
so parallel chunks with distinct stream offsets are reproducible bit for bit.

The kernel is one time-major sweep: it steps all paths through time i at
once, and from step to step it keeps per-path vectors only (the variance
state, X, the log-weight of an adaptive or per-step drift, and each
requested payoff's one-pass sum, ``payoff.PathSum``, added to at every
step). A streamed batch therefore holds the two increment blocks it read
and vectors of n_paths values, no path; ``payoff.evaluate`` maps each sum to
the payoff. A deterministic drift's log-weight is computed after the sweep,
one matrix-vector product per channel. Asked for no payoff, the same sweep
records every path instead. Increment blocks and recorded paths are
column-major (Fortran order), so column i, the vector step i reads or
writes, is contiguous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import payoff
from .errors import DomainError
from .measure import DriftMode, DriftSchedule, log_inverse_weight
from .model import HestonParams, TimeGrid


@dataclass(frozen=True)
class RngSpec:
    """Seed plus per-chunk stream offset; (seed, offset, n_steps) pins the increments."""

    seed: int
    stream_offset: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_offset,))
        return np.random.Generator(np.random.Philox(ss))


@dataclass
class PathBatch:
    """A simulated batch: the increments the kernel read, the weights, and
    either the recorded paths or each payoff's one-pass sum.

    A recorded batch (no payoff specs given) holds x, v, v_raw of shape
    (n_paths, n_steps + 1), with v, v_raw None under a frozen (constant)
    variance, and dw, dw_perp of shape (n_paths, n_steps): the increments of
    the simulating measure, path by path. A streamed batch holds no path: x,
    v and v_raw are None, ``sums`` maps each spec to its one-pass sum per
    path (``payoff.PathSum``), and dw, dw_perp are the blocks the kernel
    stepped on (for antithetic pairs, the n_paths / 2 rows it mirrors).
    The arrays this module allocates are column-major.
    """

    x: np.ndarray | None
    v: np.ndarray | None
    v_raw: np.ndarray | None
    dw: np.ndarray
    dw_perp: np.ndarray
    grid: TimeGrid
    log_inv_weight: np.ndarray | None = None
    sums: dict[payoff.PayoffSpec, np.ndarray] | None = None


#: Rows drawn, transformed and stored per pass of ``normal_increments``.
DRAW_ROWS = 256


def normal_increments(
    rng: RngSpec, n_paths: int, n_steps: int, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Two column-major (n_paths, n_steps) blocks of N(0, dt) increments via
    inverse CDF.

    The stream fills the rows in order, so the first m rows of a draw equal
    a draw of m rows from the same ``rng``. Row i holds uniforms 2 n_steps i
    to 2 n_steps (i + 1) of the stream, dw the first half and dw_perp the
    second. Drawing ``DRAW_ROWS`` rows at a time consumes the same stream as
    one draw of every row, and its row-major buffer stays small next to the
    blocks it fills.
    """
    gen = rng.generator()
    dw = np.empty((n_paths, n_steps), order="F")
    dwp = np.empty((n_paths, n_steps), order="F")
    sdt = np.sqrt(dt)
    for r in range(0, n_paths, DRAW_ROWS):
        z = gen.random((min(DRAW_ROWS, n_paths - r), 2 * n_steps))
        # ndtri needs uniforms strictly inside (0, 1): the shift lifts 0, and
        # the clamp pulls back the draw 1 - 2**-53, which the shift rounds to 1
        z += 2.0**-54
        np.minimum(z, 1.0 - 2.0**-53, out=z)
        ndtri(z, out=z)
        z *= sdt
        dw[r:r + z.shape[0]] = z[:, :n_steps]
        dwp[r:r + z.shape[0]] = z[:, n_steps:]
    return dw, dwp


def _evolve(
    params: HestonParams,
    grid: TimeGrid,
    dw: np.ndarray,
    dw_perp: np.ndarray,
    drift: DriftSchedule | None,
    sigma: float | None = None,
    specs: list[payoff.PayoffSpec] | None = None,
    mirror: bool = False,
) -> PathBatch:
    """Run the scheme in one time-major sweep over the steps.

    From step to step only per-path vectors live: the untruncated and
    truncated variance, X, the log-weight of an adaptive or per-step drift,
    the per-step drift's weighted return, and the one-pass sum of each of
    ``specs``, the payoffs to stream. Without ``specs`` the sweep records
    every path instead. A deterministic drift's log-weight is computed after
    the sweep (``log_inverse_weight``). A constant ``sigma`` freezes the
    variance at sigma^2 on the channel dW alone. ``mirror`` steps 2m paths on
    m rows of increments: path 2k on row k and path 2k+1 on its negation.
    """
    rows, n = dw.shape
    n_paths = 2 * rows if mirror else rows
    dt, knots = grid.dt, grid.knots
    k, th, xi = params.kappa, params.theta, params.xi
    rho, rho_bar = params.rho, params.rho_bar
    record = specs is None
    heston = sigma is None
    mode = drift.mode if drift is not None else None
    per_step = mode is DriftMode.PER_STEP_ADAPTIVE

    # per-path state, and work vectors that the scheme's arithmetic reuses
    # at every step, so that it allocates nothing and stays in cache
    x = np.zeros(n_paths)
    dx, a, b, dwi, dwpi, s = (np.empty(n_paths) for _ in range(6))
    if heston:
        v_raw = np.full(n_paths, params.v0)
        vplus, sq = v_raw.copy(), np.empty(n_paths)
    else:
        vplus, sq = sigma * sigma, sigma
    if mirror:
        dq, dqp = np.empty(n_paths), np.empty(n_paths)
    if mode is DriftMode.ADAPTIVE:
        m1, m2 = np.empty(n_paths), np.empty(n_paths)
    logw = np.zeros(n_paths) if mode in (DriftMode.ADAPTIVE, DriftMode.PER_STEP_ADAPTIVE) else None
    y_acc = np.zeros(n_paths) if per_step else None

    spec_keys, sums = {}, {}
    for spec in specs or ():
        ps = payoff.path_sum(spec, grid)
        spec_keys[spec] = ps.key
        sums.setdefault(ps.key, (ps, np.zeros(n_paths)))
    spot = any(ps.reads_spot for ps, _ in sums.values())

    if record:
        xs = np.zeros((n_paths, n + 1), order="F")
        vs = vrs = None
        if heston:
            vs = np.empty((n_paths, n + 1), order="F")
            vrs = np.empty((n_paths, n + 1), order="F")
            vs[:, 0] = vrs[:, 0] = params.v0
        if mirror:
            dw_rec = np.empty((n_paths, n), order="F")
            dwp_rec = np.empty((n_paths, n), order="F")

    for i in range(n):
        if heston:
            np.sqrt(vplus, out=sq)
        if mirror:
            dq[0::2], dqp[0::2] = dw[:, i], dw_perp[:, i]
            np.negative(dw[:, i], out=dq[1::2])
            np.negative(dw_perp[:, i], out=dqp[1::2])
            if record:
                dw_rec[:, i], dwp_rec[:, i] = dq, dqp
        else:
            dq, dqp = dw[:, i], dw_perp[:, i]
        if mode is None:
            dwi, dwpi = dq, dqp
        else:
            if per_step:
                m1, m2 = drift.step_fn(i, y_acc, vplus)
            elif mode is DriftMode.ADAPTIVE:
                np.multiply(sq, drift.h1_dot[i], out=m1)
                np.multiply(sq, drift.h2_dot[i], out=m2)
            else:
                m1, m2 = drift.h1_dot[i], drift.h2_dot[i]
            # the shifted increments dW + m dt, and the weight's
            # m1 dW + m2 dW^perp + (m1^2 + m2^2) dt / 2 in the Q-increments
            np.multiply(m1, dt, out=dwi)
            dwi += dq
            np.multiply(m2, dt, out=dwpi)
            dwpi += dqp
            if logw is not None:
                np.multiply(m1, dq, out=a)
                np.multiply(m2, dqp, out=b)
                a += b
                m1 *= m1
                m2 *= m2
                m1 += m2
                m1 *= 0.5
                m1 *= dt
                a += m1
                logw -= a
        # dX = -V dt / 2 + sqrt(V) (rho dW + rho_bar dW^perp), or sigma dW frozen
        if heston:
            np.multiply(dwi, rho, out=a)
            np.multiply(dwpi, rho_bar, out=b)
            a += b
            a *= sq
            np.multiply(vplus, -0.5, out=dx)
            dx *= dt
            dx += a
        else:
            np.multiply(dwi, sq, out=dx)
            dx += -0.5 * vplus * dt
        if spot:  # S_i = s0 e^{r t_i + X_i}
            np.add(x, params.r * knots[i], out=s)
            np.exp(s, out=s)
            s *= params.s0
        for ps, total in sums.values():
            total += ps.term(i, dx, vplus, s)
        if per_step:
            y_acc += drift.alpha_knots[i] * dx
        x += dx
        if heston:  # Vt += kappa (theta - V) dt + xi sqrt(V) dW; V = Vt^+
            np.subtract(th, vplus, out=a)
            a *= k
            a *= dt
            v_raw += a
            np.multiply(sq, xi, out=b)
            b *= dwi
            v_raw += b
            np.maximum(v_raw, 0.0, out=vplus)
        if record:
            xs[:, i + 1] = x
            if heston:
                vrs[:, i + 1], vs[:, i + 1] = v_raw, vplus

    if record:
        batch = PathBatch(xs, vs, vrs, dw_rec if mirror else dw,
                          dwp_rec if mirror else dw_perp, grid, logw)
    else:
        batch = PathBatch(None, None, None, dw, dw_perp, grid, logw,
                          {spec: sums[key][1] for spec, key in spec_keys.items()})
    if mode is DriftMode.DETERMINISTIC:
        batch.log_inv_weight = log_inverse_weight(batch, drift)
    return batch


def _take_increments(
    rng: RngSpec, n_rows: int, grid: TimeGrid, increments
) -> tuple[np.ndarray, np.ndarray]:
    """Pre-drawn (dw, dw_perp) blocks of ``n_rows`` rows, or a fresh draw from ``rng``."""
    if increments is None:
        return normal_increments(rng, n_rows, grid.n_steps, grid.dt)
    dw, dwp = increments
    if dw.shape != (n_rows, grid.n_steps) or dwp.shape != dw.shape:
        raise DomainError(
            f"increments of shape {dw.shape}/{dwp.shape} do not match "
            f"({n_rows}, {grid.n_steps})"
        )
    return dw, dwp


def simulate_p(
    params: HestonParams,
    grid: TimeGrid,
    n_paths: int,
    rng: RngSpec,
    increments: tuple[np.ndarray, np.ndarray] | None = None,
    sigma: float | None = None,
    specs: list[payoff.PayoffSpec] | None = None,
) -> PathBatch:
    """Paths under the base measure; a constant ``sigma`` freezes the variance.

    ``increments`` are the (dw, dw_perp) blocks ``normal_increments(rng, ...)``
    would return, when the caller has already drawn them. Given payoff
    ``specs``, the batch streams their one-pass sums and stores no path.
    """
    dw, dwp = _take_increments(rng, n_paths, grid, increments)
    return _evolve(params, grid, dw, dwp, None, sigma, specs)


def simulate_q(
    params: HestonParams,
    grid: TimeGrid,
    n_paths: int,
    rng: RngSpec,
    drift: DriftSchedule,
    increments: tuple[np.ndarray, np.ndarray] | None = None,
    sigma: float | None = None,
    specs: list[payoff.PayoffSpec] | None = None,
) -> PathBatch:
    """``simulate_p`` under the drift-shifted measure; retains Q-increments and weights."""
    drift.check_grid(grid)
    dw, dwp = _take_increments(rng, n_paths, grid, increments)
    return _evolve(params, grid, dw, dwp, drift, sigma, specs)


def antithetic_pairs(
    params: HestonParams,
    grid: TimeGrid,
    n_paths: int,
    rng: RngSpec,
    increments: tuple[np.ndarray, np.ndarray] | None = None,
    sigma: float | None = None,
    specs: list[payoff.PayoffSpec] | None = None,
) -> PathBatch:
    """``simulate_p`` in mirrored pairs: path 2k+1 negates the increments of path 2k.

    The pairs step on the first ``n_paths // 2`` rows of the stream's draw,
    which ``increments`` holds when the caller has already drawn them.
    """
    if n_paths % 2 != 0:
        raise DomainError("antithetic batches need an even number of paths")
    dw, dwp = _take_increments(rng, n_paths // 2, grid, increments)
    return _evolve(params, grid, dw, dwp, None, sigma, specs, mirror=True)
