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
recursion runs, X_{i+1} = X_i - sigma^2/2 dt + sigma dW_i, and the batch
stores no variance paths.

Normals come from the counter-based Philox generator through the inverse CDF,
so parallel chunks with distinct stream offsets are reproducible bit for bit.

Every path matrix is stored column-major (Fortran order): the scheme steps
all paths through time i at once, so column i of each array is the one
contiguous vector of n_paths values that step reads or writes. Row-major
storage puts consecutive paths a row apart, and every vector operation of a
step then strides across the whole matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import DomainError
from .measure import DriftMode, DriftSchedule
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
    """Simulated paths with the Brownian increments retained for reweighting.

    x, v, v_raw have shape (n_paths, n_steps + 1), and v, v_raw are None
    under a frozen (constant) variance; dw, dw_perp have shape (n_paths,
    n_steps) and hold the increments of the simulating measure.
    The arrays this module allocates are column-major, so the values of one
    time step are contiguous (the scheme's access pattern).
    """

    x: np.ndarray
    v: np.ndarray | None
    v_raw: np.ndarray | None
    dw: np.ndarray
    dw_perp: np.ndarray
    grid: TimeGrid
    log_inv_weight: np.ndarray | None = None


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
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Run the scheme; returns (x, v, v_raw, log_inv_weight or None).

    A constant ``sigma`` freezes the variance at sigma^2 on the channel dW
    alone: v and v_raw are then None.
    """
    n_paths, n = dw.shape
    dt = grid.dt
    k, th, xi = params.kappa, params.theta, params.xi
    rho, rho_bar = params.rho, params.rho_bar

    x = np.zeros((n_paths, n + 1), order="F")
    if sigma is None:
        v = np.empty((n_paths, n + 1), order="F")
        v_raw = np.empty((n_paths, n + 1), order="F")
        v_raw[:, 0] = params.v0
        v[:, 0] = params.v0
    else:
        v = v_raw = None
        vplus, sq = sigma * sigma, sigma

    per_step = drift is not None and drift.mode is DriftMode.PER_STEP_ADAPTIVE
    logw = np.zeros(n_paths) if drift is not None else None
    y_acc = np.zeros(n_paths) if per_step else None
    alpha = drift.alpha_knots if per_step else None

    for i in range(n):
        if v is not None:
            vplus = v[:, i]
            sq = np.sqrt(vplus)
        if drift is None:
            dwi, dwpi = dw[:, i], dw_perp[:, i]
        else:
            if per_step:
                m1, m2 = drift.step_fn(i, y_acc, vplus)
            elif drift.mode is DriftMode.ADAPTIVE:
                m1 = drift.h1_dot[i] * sq
                m2 = drift.h2_dot[i] * sq
            else:
                m1 = drift.h1_dot[i]
                m2 = drift.h2_dot[i]
            dwi = dw[:, i] + m1 * dt
            dwpi = dw_perp[:, i] + m2 * dt
            logw -= m1 * dw[:, i] + m2 * dw_perp[:, i] + 0.5 * (m1 * m1 + m2 * m2) * dt
        if v is None:
            dx = -0.5 * vplus * dt + sq * dwi
        else:
            v_raw[:, i + 1] = vplus_next = (
                v_raw[:, i] + k * (th - vplus) * dt + xi * sq * dwi
            )
            v[:, i + 1] = np.maximum(vplus_next, 0.0)
            dx = -0.5 * vplus * dt + sq * (rho * dwi + rho_bar * dwpi)
        x[:, i + 1] = x[:, i] + dx
        if per_step:
            y_acc += alpha[i] * dx
    return x, v, v_raw, logw


def _take_increments(
    rng: RngSpec, n_paths: int, grid: TimeGrid, increments
) -> tuple[np.ndarray, np.ndarray]:
    """Pre-drawn (dw, dw_perp) blocks of ``n_paths`` rows, or a fresh draw from ``rng``."""
    if increments is None:
        return normal_increments(rng, n_paths, grid.n_steps, grid.dt)
    dw, dwp = increments
    if dw.shape != (n_paths, grid.n_steps) or dwp.shape != dw.shape:
        raise DomainError(
            f"increments of shape {dw.shape}/{dwp.shape} do not match "
            f"({n_paths}, {grid.n_steps})"
        )
    return dw, dwp


def simulate_p(
    params: HestonParams,
    grid: TimeGrid,
    n_paths: int,
    rng: RngSpec,
    increments: tuple[np.ndarray, np.ndarray] | None = None,
    sigma: float | None = None,
) -> PathBatch:
    """Paths under the base measure; a constant ``sigma`` freezes the variance.

    ``increments`` are the (dw, dw_perp) blocks ``normal_increments(rng, ...)``
    would return, when the caller has already drawn them.
    """
    dw, dwp = _take_increments(rng, n_paths, grid, increments)
    x, v, v_raw, _ = _evolve(params, grid, dw, dwp, None, sigma)
    return PathBatch(x, v, v_raw, dw, dwp, grid)


def simulate_q(
    params: HestonParams,
    grid: TimeGrid,
    n_paths: int,
    rng: RngSpec,
    drift: DriftSchedule,
    increments: tuple[np.ndarray, np.ndarray] | None = None,
    sigma: float | None = None,
) -> PathBatch:
    """Paths under the drift-shifted measure; retains Q-increments and weights."""
    drift.check_grid(grid)
    dw, dwp = _take_increments(rng, n_paths, grid, increments)
    x, v, v_raw, logw = _evolve(params, grid, dw, dwp, drift, sigma)
    return PathBatch(x, v, v_raw, dw, dwp, grid, log_inv_weight=logw)


def mirror_increments(
    dw_half: np.ndarray, dwp_half: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Antithetic blocks of 2m rows from m rows: row 2k is row k, row 2k+1 its negation."""
    out = []
    for half in (dw_half, dwp_half):
        full = np.empty((2 * half.shape[0], half.shape[1]), order="F")
        full[0::2], full[1::2] = half, -half
        out.append(full)
    return out[0], out[1]


def antithetic_pairs(
    params: HestonParams,
    grid: TimeGrid,
    n_paths: int,
    rng: RngSpec,
    increments: tuple[np.ndarray, np.ndarray] | None = None,
    sigma: float | None = None,
) -> PathBatch:
    """Mirrored-increment pairs: path 2k+1 negates the increments of path 2k.

    ``increments``, when given, are the mirrored (dw, dw_perp) blocks that
    ``mirror_increments`` builds from the first ``n_paths // 2`` rows of the
    stream's draw.
    """
    if n_paths % 2 != 0:
        raise DomainError("antithetic batches need an even number of paths")
    if increments is None:
        increments = mirror_increments(
            *normal_increments(rng, n_paths // 2, grid.n_steps, grid.dt)
        )
    dw, dwp = _take_increments(rng, n_paths, grid, increments)
    x, v, v_raw, _ = _evolve(params, grid, dw, dwp, None, sigma)
    return PathBatch(x, v, v_raw, dw, dwp, grid)
