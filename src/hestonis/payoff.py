"""Payoff functionals of the discrete (log-)price path.

Call-type payoffs are handled through the aggregated log return

    y = sum_{i<n} alpha(t_i) (X_{i+1} - X_i),

the left-endpoint Riemann-Stieltjes discretization of the weighted path
integral. With S_t = s0 exp(r t + X_t), the payoff is (exp(m + y) - K)^+
where m = log(s0) + r * integral(alpha). alpha = 1 recovers the European
call on S_T; alpha_t = (T - t)/T the call on the geometric average of S.

Every payoff is a one-pass sum over the steps (``PathSum``: the path kernel
adds to it step by step, or ``stored_sum`` reads it off stored paths) and a
terminal map from that sum to the payoff (``evaluate``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .model import HestonParams, TimeGrid


class PayoffKind(enum.Enum):
    EUROPEAN_CALL = "european_call"
    GEOMETRIC_ASIAN_CALL = "geometric_asian_call"
    ARITHMETIC_ASIAN_CALL = "arithmetic_asian_call"
    VOL_INDICATOR_SWAP = "vol_indicator_swap"


@dataclass(frozen=True)
class WeightPath:
    """Deterministic C1 weight alpha >= 0 with derivative and exact integral over [0, T]."""

    alpha: Callable[[np.ndarray], np.ndarray]
    alpha_dot: Callable[[np.ndarray], np.ndarray]
    integral: float

    def on_grid(self, grid: TimeGrid) -> np.ndarray:
        a = np.asarray(self.alpha(grid.knots), dtype=float)
        a = np.broadcast_to(a, grid.knots.shape).copy()
        if np.any(a < -1e-15):
            raise DomainError("weight path must be nonnegative on the grid")
        return a


def european_weight(t_end: float) -> WeightPath:
    """alpha = 1: payoff reads the terminal value."""
    return WeightPath(
        alpha=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        alpha_dot=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        integral=t_end,
    )


def geometric_weight(t_end: float) -> WeightPath:
    """alpha_t = (T - t)/T: payoff reads the average of the log path."""
    return WeightPath(
        alpha=lambda t: (t_end - np.asarray(t, dtype=float)) / t_end,
        alpha_dot=lambda t: np.full_like(np.asarray(t, dtype=float), -1.0 / t_end),
        integral=0.5 * t_end,
    )


@dataclass(frozen=True)
class PayoffSpec:
    """Payoff selector: kind, strike, and (for weighted kinds) the weight path."""

    kind: PayoffKind
    strike: float
    weight: WeightPath | None = None

    def __post_init__(self):
        if not 0.0 <= self.strike < np.inf:
            raise DomainError("strike must be finite and nonnegative")


def make_payoff(kind: PayoffKind, strike: float, t_end: float) -> PayoffSpec:
    if kind is PayoffKind.EUROPEAN_CALL:
        return PayoffSpec(kind, strike, european_weight(t_end))
    if kind is PayoffKind.GEOMETRIC_ASIAN_CALL:
        return PayoffSpec(kind, strike, geometric_weight(t_end))
    return PayoffSpec(kind, strike, None)


def log_forward(spec: PayoffSpec, params: HestonParams) -> float:
    """m = log(s0) + r * integral(alpha): log of the zero-path compounded forward."""
    if spec.weight is None:
        raise DomainError(f"{spec.kind.value} has no aggregated-return form")
    return float(np.log(params.s0) + params.r * spec.weight.integral)


def _weight(spec: PayoffSpec, t_end: float) -> WeightPath:
    """The spec's weight path, or its kind's: geometric for the geometric Asian, 1 for the European."""
    if spec.weight is not None:
        return spec.weight
    if spec.kind is PayoffKind.EUROPEAN_CALL:
        return european_weight(t_end)
    return geometric_weight(t_end)


@dataclass(frozen=True, eq=False)
class PathSum:
    """The one-pass sum over the steps i < n that a payoff reads off each path:

        weighted call        y = sum_i alpha_i dX_i     (European: alpha = 1, y = X_T)
        arithmetic Asian     a = sum_i S_i
        variance indicator   q = sum_i V_i 1{S_i >= K}

    with S_i = s0 e^{r t_i + X_i} and dX_i = X_{i+1} - X_i. ``term`` is the
    addend of step i from its left-point state; given the slice of every step
    and states whose last axis is time, it is all of them at once. Sums with
    equal ``key`` are equal: only the indicator's reads the strike.
    """

    kind: str  # "weighted", "spot" or "variance"
    alpha: np.ndarray | None = None  # the weight on the knots (weighted sums)
    strike: float | None = None  # the indicator's strike

    @property
    def key(self) -> tuple:
        return self.kind, self.strike, None if self.alpha is None else self.alpha.tobytes()

    @property
    def reads_spot(self) -> bool:
        return self.kind != "weighted"

    def term(self, i, dx, v, s):
        """Step i's addend from dX_i, V_i and S_i (None where not read)."""
        if self.kind == "weighted":
            return self.alpha[i] * dx
        if self.kind == "spot":
            return s
        return v * (s >= self.strike)


def path_sum(spec: PayoffSpec, grid: TimeGrid) -> PathSum:
    """The one-pass sum ``spec``'s payoff reads."""
    if spec.kind is PayoffKind.VOL_INDICATOR_SWAP:
        return PathSum("variance", strike=spec.strike)
    if spec.kind is PayoffKind.ARITHMETIC_ASIAN_CALL:
        return PathSum("spot")
    return PathSum("weighted", alpha=_weight(spec, grid.t_end).on_grid(grid))


def stored_sum(
    spec: PayoffSpec,
    params: HestonParams,
    grid: TimeGrid,
    x_paths: np.ndarray,
    v_paths: np.ndarray | None = None,
) -> np.ndarray:
    """``spec``'s one-pass sum read off stored paths (last axis: the n + 1 knots)."""
    ps = path_sum(spec, grid)
    x = np.asarray(x_paths)
    n = grid.n_steps
    s = params.s0 * np.exp(params.r * grid.knots + x)[..., :n] if ps.reads_spot else None
    if ps.kind == "variance":
        if v_paths is None:
            raise DomainError("vol indicator swap needs the variance paths")
        v_paths = np.asarray(v_paths)[..., :n]
    return ps.term(slice(0, n), np.diff(x, axis=-1), v_paths, s).sum(axis=-1)


def log_vol_indicator(
    phi_dot: np.ndarray, v: np.ndarray, params: HestonParams, strike: float, grid: TimeGrid
) -> float:
    """log of the variance-indicator payoff on one deterministic path; -inf where it vanishes.

    The log-price X integrates the rate ``phi_dot`` at left points from X_0 = 0,
    S = s0 e^{rt + X} as in ``evaluate``, and ``v`` is the variance path.
    """
    x = np.concatenate([[0.0], np.cumsum(phi_dot[:-1] * grid.dt)])
    spec = PayoffSpec(PayoffKind.VOL_INDICATOR_SWAP, strike)
    val = float(evaluate(spec, params, grid, x, v))
    return np.log(val) if val > 0.0 else -np.inf


def evaluate(
    spec: PayoffSpec,
    params: HestonParams,
    grid: TimeGrid,
    x_paths: np.ndarray | None = None,
    v_paths: np.ndarray | None = None,
    total: np.ndarray | None = None,
) -> np.ndarray:
    """``spec``'s payoff per path: the terminal map of its one-pass sum.

    The sum is ``total`` when the kernel streamed it (``PathBatch.sums``), and
    is read off the stored paths ``x_paths`` (and ``v_paths``) otherwise.
    """
    if total is None:
        total = stored_sum(spec, params, grid, x_paths, v_paths)
    if spec.kind is PayoffKind.VOL_INDICATOR_SWAP:
        return total * grid.dt
    if spec.kind is PayoffKind.ARITHMETIC_ASIAN_CALL:
        return np.maximum(total / grid.n_steps - spec.strike, 0.0)
    m = np.log(params.s0) + params.r * _weight(spec, grid.t_end).integral
    return np.maximum(np.exp(m + total) - spec.strike, 0.0)
