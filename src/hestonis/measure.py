"""Girsanov reweighting for drift-shifted simulation.

The sampling measure shifts the Brownian increments by (m1, m2) dt per step,
with (m1, m2) = (h1_dot, h2_dot) for a deterministic drift and
(h1_dot, h2_dot) * sqrt(V_i) for an adaptive one. The unbiased estimator of
E_P[G] is G(Q-path) * Z^{-1} with, in the Q-increments dW^Q,

    log Z^{-1} = - sum_i [m1_i dW_i^Q + m2_i dW_i^{perp,Q}]
                 - 1/2 sum_i (m1_i^2 + m2_i^2) dt.

Weights are accumulated in log space and exponentiated once per path so that
far out-of-the-money schedules cannot overflow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import DomainError
from .model import TimeGrid

if TYPE_CHECKING:  # pragma: no cover
    from .sim import PathBatch


class DriftMode(enum.Enum):
    DETERMINISTIC = "deterministic"
    ADAPTIVE = "adaptive"
    PER_STEP_ADAPTIVE = "per_step_adaptive"


@dataclass(frozen=True)
class DriftSchedule:
    """Two-channel drift on the grid knots, plus the mode that interprets it.

    Deterministic entries are in 1/sqrt(time). Adaptive entries are a
    deterministic schedule divided by the volatility path it was solved on,
    and the kernel multiplies them back by sqrt(V_i). Per-step-adaptive
    schedules carry a callback instead of fixed arrays:
    step_fn(i, y_acc, v_i) -> (m1, m2) arrays over paths.
    """

    mode: DriftMode
    h1_dot: np.ndarray | None = None
    h2_dot: np.ndarray | None = None
    provenance: str = ""
    step_fn: Callable | None = None
    alpha_knots: np.ndarray | None = None

    def __post_init__(self):
        if self.mode is DriftMode.PER_STEP_ADAPTIVE:
            if self.step_fn is None or self.alpha_knots is None:
                raise DomainError("per-step schedule needs step_fn and alpha_knots")
            return
        if self.h1_dot is None or self.h2_dot is None:
            raise DomainError("fixed-mode schedule needs both channel arrays")
        h1 = np.asarray(self.h1_dot, dtype=float)
        h2 = np.asarray(self.h2_dot, dtype=float)
        if h1.shape != h2.shape or h1.ndim != 1:
            raise DomainError("channel arrays must be 1-d and equal length")
        if not (np.all(np.isfinite(h1)) and np.all(np.isfinite(h2))):
            raise DomainError("drift schedule entries must be finite")
        object.__setattr__(self, "h1_dot", h1)
        object.__setattr__(self, "h2_dot", h2)

    def check_grid(self, grid: TimeGrid) -> None:
        if self.mode is DriftMode.PER_STEP_ADAPTIVE:
            return
        if self.h1_dot.shape[0] != grid.n_steps + 1:
            raise DomainError(
                f"schedule length {self.h1_dot.shape[0]} does not match grid "
                f"({grid.n_steps + 1} knots)"
            )


def _channel_sums(batch: "PathBatch", drift: DriftSchedule) -> tuple:
    """(sum_i m1_i dW_i + m2_i dW_i^perp, sum_i (m1_i^2 + m2_i^2) dt) per path
    for a fixed-mode schedule, on the batch's increments.

    A deterministic schedule's is one matrix-vector product per channel and a
    scalar; an adaptive one reads the recorded variance. The products run in
    numpy's own loop over column-major blocks, which adds the steps in order
    for any layout of the increments and any number of threads: a BLAS
    product splits the rows by thread count, and its bits move with it. A
    batch without dW^perp (constant volatility) takes only schedules with
    h2 = 0.
    """
    drift.check_grid(batch.grid)
    n, dt = batch.grid.n_steps, batch.grid.dt
    h1, h2 = drift.h1_dot[:n], drift.h2_dot[:n]
    if batch.dw_perp is None and np.any(h2):
        raise DomainError("a batch without dW^perp increments takes no drift on dW^perp")
    if drift.mode is DriftMode.DETERMINISTIC:
        lin = np.einsum("ij,j->i", np.asfortranarray(batch.dw), h1)
        if batch.dw_perp is not None:
            lin += np.einsum("ij,j->i", np.asfortranarray(batch.dw_perp), h2)
        return lin, float(((h1 * h1 + h2 * h2) * dt).sum())
    if drift.mode is DriftMode.ADAPTIVE:
        if batch.v is None:
            raise DomainError("a frozen-variance batch records no variance "
                              "for an adaptive schedule to read")
        sqv = np.sqrt(batch.v[:, :n])
        m1, m2 = h1 * sqv, h2 * sqv
        lin = (m1 * batch.dw).sum(axis=1) + (m2 * batch.dw_perp).sum(axis=1)
        return lin, ((m1 * m1 + m2 * m2) * dt).sum(axis=1)
    raise DomainError("per-step schedules retain weights at simulation time")


def log_inverse_weight(batch: "PathBatch", drift: DriftSchedule) -> np.ndarray:
    """log Z^{-1} per path for a batch simulated under the same drift.

    The kernel calls it for a deterministic schedule. An adaptive schedule's
    is recomputed from the recorded variance, and a per-step one's is the
    weight the batch retained.
    """
    if drift.mode is DriftMode.PER_STEP_ADAPTIVE:
        if batch.log_inv_weight is None:
            raise DomainError("per-step batch is missing its retained weights")
        return batch.log_inv_weight
    lin, quad = _channel_sums(batch, drift)
    return -lin - 0.5 * quad


def log_forward_weight(batch: "PathBatch", drift: DriftSchedule) -> np.ndarray:
    """log Z per path for a batch simulated under P (martingale diagnostics)."""
    lin, quad = _channel_sums(batch, drift)
    return lin - 0.5 * quad
