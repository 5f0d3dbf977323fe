"""Payoff functionals of the discrete (log-)price path.

Call-type payoffs are handled through the aggregated log return

    y = sum_{i<n} alpha(t_i) (X_{i+1} - X_i),

the left-endpoint Riemann-Stieltjes discretization of the weighted path
integral. With S_t = s0 exp(r t + X_t), the payoff is (exp(m + y) - K)^+
where m = log(s0) + r * integral(alpha). alpha = 1 recovers the European
call on S_T; alpha_t = (T - t)/T the call on the geometric average of S.
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


def aggregate_log_return(x_paths: np.ndarray, alpha_knots: np.ndarray) -> np.ndarray:
    """Left-endpoint sum sum_i alpha_i (X_{i+1} - X_i) along the last axis."""
    dx = np.diff(x_paths, axis=-1)
    return dx @ alpha_knots[:-1]


def eval_geometric_asian(
    x_paths: np.ndarray,
    params: HestonParams,
    strike: float,
    grid: TimeGrid,
    weight: WeightPath | None = None,
) -> np.ndarray:
    """(s0 e^{rT/2} exp(sum alpha dX) - K)^+ on each path (paths start at 0)."""
    w = weight if weight is not None else geometric_weight(grid.t_end)
    y = aggregate_log_return(x_paths, w.on_grid(grid))
    m = np.log(params.s0) + params.r * w.integral
    return np.maximum(np.exp(m + y) - strike, 0.0)


def eval_european(
    x_paths: np.ndarray, params: HestonParams, strike: float
) -> np.ndarray:
    """(s0 e^{rT + X_T} - K)^+ on each path."""
    xt = np.asarray(x_paths)[..., -1]
    return np.maximum(
        params.s0 * np.exp(params.r * params.t_end + xt) - strike, 0.0
    )


def eval_arithmetic_asian(
    x_paths: np.ndarray, params: HestonParams, strike: float, grid: TimeGrid
) -> np.ndarray:
    """(mean_{i<n} s0 e^{r t_i + X_i} - K)^+, left-endpoint average of the spot."""
    t = grid.knots[:-1]
    s = params.s0 * np.exp(params.r * t + np.asarray(x_paths)[..., :-1])
    return np.maximum(s.mean(axis=-1) - strike, 0.0)


def eval_vol_indicator(
    v_paths: np.ndarray, s_paths: np.ndarray, strike: float, grid: TimeGrid
) -> np.ndarray:
    """Left-endpoint sum sum_{i<n} V_i 1{S_i >= K} dt."""
    v = np.asarray(v_paths)[..., :-1]
    ind = np.asarray(s_paths)[..., :-1] >= strike
    return (v * ind).sum(axis=-1) * grid.dt


def log_vol_indicator(
    phi_dot: np.ndarray, v: np.ndarray, params: HestonParams, strike: float, grid: TimeGrid
) -> float:
    """log of ``eval_vol_indicator`` on one deterministic path; -inf where it vanishes.

    The log-price X integrates the rate ``phi_dot`` at left points from X_0 = 0,
    S = s0 e^{rt + X} as in ``evaluate``, and ``v`` is the variance path.
    """
    x = np.concatenate([[0.0], np.cumsum(phi_dot[:-1] * grid.dt)])
    s = params.s0 * np.exp(params.r * grid.knots + x)
    val = float(eval_vol_indicator(v, s, strike, grid))
    return np.log(val) if val > 0.0 else -np.inf


def evaluate(
    spec: PayoffSpec,
    params: HestonParams,
    grid: TimeGrid,
    x_paths: np.ndarray,
    v_paths: np.ndarray | None = None,
) -> np.ndarray:
    """Dispatch a batch of paths to the payoff of ``spec``."""
    if spec.kind is PayoffKind.GEOMETRIC_ASIAN_CALL:
        return eval_geometric_asian(x_paths, params, spec.strike, grid, spec.weight)
    if spec.kind is PayoffKind.EUROPEAN_CALL:
        return eval_european(x_paths, params, spec.strike)
    if spec.kind is PayoffKind.ARITHMETIC_ASIAN_CALL:
        return eval_arithmetic_asian(x_paths, params, spec.strike, grid)
    if spec.kind is PayoffKind.VOL_INDICATOR_SWAP:
        if v_paths is None:
            raise DomainError("vol indicator swap needs the variance paths")
        s = params.s0 * np.exp(params.r * grid.knots + np.asarray(x_paths))
        return eval_vol_indicator(v_paths, s, spec.strike, grid)
    raise DomainError(f"unknown payoff kind {spec.kind}")
