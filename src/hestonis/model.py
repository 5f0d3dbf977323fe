"""Heston parameters, generic volatility coefficients, and the deterministic variance path.

Model dynamics (risk-neutral, zero-drift log-return X with X_0 = 0):

    dX_t = -V_t/2 dt + sqrt(V_t) (rho dW_t + rho_bar dW_perp_t)
    dV_t = kappa (theta - V_t) dt + xi sqrt(V_t) dW_t,   V_0 = v0 > 0

The spot is S_t = s0 * exp(r t + X_t).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, NumericalError


@dataclass(frozen=True)
class HestonParams:
    """Heston coefficients plus spot, rate and horizon.

    kappa, theta, xi, v0, s0, t_end must be strictly positive and rho
    strictly inside (-1, 1). rho_bar is always derived from rho.
    """

    kappa: float
    theta: float
    xi: float
    rho: float
    v0: float
    s0: float
    r: float
    t_end: float

    @property
    def rho_bar(self) -> float:
        return float(np.sqrt(1.0 - self.rho * self.rho))


#: Benchmark parameter set used throughout the test and experiment suite.
EQUITY_PARAMS = HestonParams(
    kappa=2.0, theta=0.09, xi=0.2, rho=-0.5, v0=0.04, s0=50.0, r=0.05, t_end=1.0
)


@dataclass(frozen=True)
class SVCoefficients:
    """Drift f of a generic stochastic-volatility variance process."""

    drift_f: Callable[[float], float]


def heston_coefficients(params: HestonParams) -> SVCoefficients:
    """Heston instantiation: f(v) = kappa (theta - v)."""
    k, th = params.kappa, params.theta
    return SVCoefficients(drift_f=lambda v: k * (th - v))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_n = t_end with spacing dt = t_end/n."""

    n_steps: int
    t_end: float
    dt: float = field(init=False)
    knots: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_steps < 1 or self.t_end <= 0.0:
            raise DomainError("grid needs n_steps >= 1 and t_end > 0")
        object.__setattr__(self, "dt", self.t_end / self.n_steps)
        object.__setattr__(
            self, "knots", np.linspace(0.0, self.t_end, self.n_steps + 1)
        )


def validate(params: HestonParams) -> HestonParams:
    """Check parameter invariants; returns the params unchanged.

    Raises DomainError for any nonpositive value or |rho| >= 1. The Feller
    condition 2 kappa theta >= xi^2 is never enforced: the discretization
    tolerates variance excursions below zero.
    """
    for name in ("kappa", "theta", "xi", "v0", "s0", "t_end"):
        if not getattr(params, name) > 0.0:
            raise DomainError(f"{name} must be strictly positive")
    if not (-1.0 < params.rho < 1.0):
        raise DomainError("rho must lie strictly inside (-1, 1)")
    if not np.isfinite(params.r):
        raise DomainError("r must be finite")
    return params


def psi_deterministic(
    params: HestonParams,
    grid: TimeGrid,
    coeffs: SVCoefficients | None = None,
) -> np.ndarray:
    """Zero-noise variance path: solution of psi' = f(psi), psi(0) = v0, on the grid.

    For Heston (coeffs None) this is the closed form
    psi_t = theta + (v0 - theta) exp(-kappa t). A generic f is integrated
    with RK4 (4 substeps per grid interval).
    """
    t = grid.knots
    if coeffs is None:
        return params.theta + (params.v0 - params.theta) * np.exp(-params.kappa * t)

    f = coeffs.drift_f
    psi = np.empty(grid.n_steps + 1)
    psi[0] = params.v0
    h = grid.dt / 4.0
    y = params.v0
    for i in range(grid.n_steps):
        for _ in range(4):
            k1 = f(y)
            k2 = f(y + 0.5 * h * k1)
            k3 = f(y + 0.5 * h * k2)
            k4 = f(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not y > 0.0:
            raise NumericalError(f"deterministic variance path hit {y} at step {i}")
        psi[i + 1] = y
    return psi
