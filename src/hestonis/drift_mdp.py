"""Moderate-deviations drift optimizers: small-noise (log-price and price),
small-time, and large-time modes.

All four reduce to scalar problems of the form argmax F(beta S1) - beta^2 S2/2
around the deterministic variance path psi (the fluctuation problems are
linear-quadratic), so each optimizer is a safeguarded root solve rather than a
search. The building blocks for the log-price mode are

    B_t = int_0^t f'(psi) ds            (Heston: -kappa t)
    gamma_t = int_0^t e^{B} alpha ds
    u = g(psi) e^{-B} (gamma - gamma_T) / 4,

with channel loadings U = beta (u + rho alpha sqrt(psi)/2) and
Z = beta (rho u + alpha sqrt(psi)/2); the price mode loses the fluctuation
feedback and collapses onto the deterministic-volatility drift family
x_dot = beta alpha sqrt(psi) (rho, rho_bar)/2. The large-time mode draws its
constants from the Gamma invariant measure of the variance process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, OptimError
from .measure import DriftMode, DriftSchedule
from .model import HestonParams, TimeGrid, psi_deterministic
from .payoff import PayoffSpec, WeightPath
from .varopt import VariationalProblem, reduced_basis_problem
from .drift_bs import bs_beta, bs_drift, bs_scale, call_curve


def _cumtrapz(y: np.ndarray, dx: float) -> np.ndarray:
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum(0.5 * (y[1:] + y[:-1]) * dx, out=out[1:])
    return out


@dataclass(frozen=True)
class MdpAuxiliary:
    """Deterministic building blocks of the log-price fluctuation problem."""

    psi: np.ndarray
    b_path: np.ndarray
    gamma: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        # u_T = 0 exactly: gamma - gamma_T vanishes at the horizon.
        assert abs(self.u[-1]) < 1e-14 * max(1.0, np.abs(self.u).max())


def mdp_auxiliary(alpha: WeightPath, params: HestonParams, grid: TimeGrid) -> MdpAuxiliary:
    psi = psi_deterministic(params, grid)
    b_path = -params.kappa * grid.knots  # int f'(psi) with f' = -kappa
    a = alpha.on_grid(grid)
    gamma = _cumtrapz(np.exp(b_path) * a, grid.dt)
    g_psi = params.xi * np.sqrt(psi)
    u = 0.25 * g_psi * np.exp(-b_path) * (gamma - gamma[-1])
    return MdpAuxiliary(psi=psi, b_path=b_path, gamma=gamma, u=u)


def _log_reduction(alpha: WeightPath, params: HestonParams, grid: TimeGrid):
    """Scalar moments (S1, S2) of the log-price problem, plus the channel loadings at beta = 1.

    S1 multiplies beta inside F-bar, S2 is the quadratic penalty weight:
        S1 = int alpha [ (rho u + alpha sqrt(psi)/2) sqrt(psi) - eta1/2 ],
        eta1 = e^{B} int e^{-B} g(psi) (u + rho alpha sqrt(psi)/2),
        S2 = int [ (u + rho alpha sqrt(psi)/2)^2 + rho_bar^2 alpha^2 psi / 4 ].
    """
    aux = mdp_auxiliary(alpha, params, grid)
    a = alpha.on_grid(grid)
    rho, rho_bar = params.rho, params.rho_bar
    sqp = np.sqrt(aux.psi)
    g_psi = params.xi * sqp
    u_load = aux.u + 0.5 * rho * a * sqp          # U / beta
    z_load = rho * aux.u + 0.5 * a * sqp          # Z / beta
    eta1 = np.exp(aux.b_path) * _cumtrapz(np.exp(-aux.b_path) * g_psi * u_load, grid.dt)
    phi_dot_load = z_load * sqp - 0.5 * eta1
    dt = grid.dt
    s1 = float((a[:-1] * phi_dot_load[:-1]).sum() * dt)
    s2 = float(((u_load[:-1] ** 2) + 0.25 * rho_bar**2 * (a[:-1] ** 2) * aux.psi[:-1]).sum() * dt)
    return aux, a, u_load, z_load, s1, s2


def _fbar_curve(spec: PayoffSpec, alpha: WeightPath, params: HestonParams, grid: TimeGrid):
    """Call curve with the centered-argument shift int alpha psi / 2."""
    psi = psi_deterministic(params, grid)
    a = alpha.on_grid(grid)
    shift = 0.5 * float((a[:-1] * psi[:-1]).sum() * grid.dt)
    return call_curve(spec, params, shift)


def mdp_log_drift(
    spec: PayoffSpec,
    alpha: WeightPath,
    params: HestonParams,
    grid: TimeGrid,
) -> DriftSchedule:
    """Log-price small-noise drift: (U, (Z - rho U)/rho_bar) at the optimal beta."""
    _, _, u_load, z_load, s1, s2 = _log_reduction(alpha, params, grid)
    _, _, c = _fbar_curve(spec, alpha, params, grid)
    beta = bs_scale(s1, s2, c)
    h1 = beta * u_load
    h2 = beta * (z_load - params.rho * u_load) / params.rho_bar
    return DriftSchedule(DriftMode.DETERMINISTIC, h1, h2, provenance="mdp_log")


def mdp_price_drift(
    spec: PayoffSpec,
    alpha: WeightPath,
    params: HestonParams,
    grid: TimeGrid,
) -> DriftSchedule:
    """Price small-noise drift: x_dot = b alpha sqrt(psi) (rho, rho_bar).

    The scalar problem argmax F-bar(b w) - b^2 w / 2 with w = int alpha^2 psi
    is the deterministic-volatility root equation with sigma = sqrt(psi).
    """
    sigma = np.sqrt(psi_deterministic(params, grid))
    red = bs_beta(spec, sigma, alpha, grid, params)
    return bs_drift(red.beta_star, sigma, red.alpha, params.rho, "mdp_price")


def mdp_small_time_drift(
    spec: PayoffSpec,
    alpha: WeightPath,
    params: HestonParams,
    grid: TimeGrid,
) -> DriftSchedule:
    """Small-time mode: the price problem with f = 0 and psi frozen at v0."""
    sigma = np.full(grid.n_steps + 1, np.sqrt(params.v0))
    red = bs_beta(spec, sigma, alpha, grid, params)
    return bs_drift(red.beta_star, sigma, red.alpha, params.rho, "mdp_small_time")


# ---------------------------------------------------------------------------
# Large-time mode
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LargeTimeConstants:
    """The reduced-problem constants drawn from the Gamma invariant measure."""

    nu: float
    bvec: np.ndarray


def gamma_moments(params: HestonParams) -> tuple[float, float]:
    """E[Y] and E[sqrt(Y)] under the invariant Gamma(2 kappa theta/xi^2, 2 kappa/xi^2)."""
    shape = 2.0 * params.kappa * params.theta / params.xi**2
    esqrt = float(
        np.exp(gammaln(shape + 0.5) - gammaln(shape)) * params.xi / np.sqrt(2.0 * params.kappa)
    )
    return params.theta, esqrt


def large_time_constants(params: HestonParams) -> LargeTimeConstants:
    """nu = (c^2 + rho_bar^2)(E[Y] - E[sqrt Y]^2/2), B = -(c, rho_bar) E[sqrt Y]/2,
    with c = rho - xi/(2 kappa) from the Poisson-equation loading."""
    ey, esqrt = gamma_moments(params)
    c = params.rho - params.xi / (2.0 * params.kappa)
    nu = (c * c + params.rho_bar**2) * (ey - 0.5 * esqrt * esqrt)
    if nu <= 0.0:
        raise DomainError(f"large-time quadratic coefficient must be positive, got {nu}")
    bvec = -0.5 * np.array([c, params.rho_bar]) * esqrt
    return LargeTimeConstants(nu=nu, bvec=bvec)


def mdp_large_time_drift(
    spec: PayoffSpec,
    alpha: WeightPath,
    params: HestonParams,
    grid: TimeGrid,
) -> DriftSchedule:
    """Deterministic large-time drift h = B_dual c* alpha.

    c* = argmax F(c w) - nu_dual c^2 w / 4 with w = int alpha^2, the scalar
    call reduction with moments (w, nu_dual w / 2).

    The constants come from large_time_constants verbatim; the emission applies
    the covariance-inverse duality (nu_dual, B_dual) = (1/nu, -B/nu), which is
    what the reduced problem sup F - (nu_dual/4) int x1^2 with x2 = B_dual x1
    actually requires (B as stored points against the payoff gradient for
    calls and would increase variance).
    """
    consts = large_time_constants(params)
    nu_dual = 1.0 / consts.nu
    b_dual = -consts.bvec / consts.nu
    a = alpha.on_grid(grid)
    w = float((a[:-1] ** 2).sum() * grid.dt)
    _, _, c_thr = _fbar_curve(spec, alpha, params, grid)
    c_star = bs_scale(w, 0.5 * nu_dual * w, c_thr)
    return DriftSchedule(
        DriftMode.DETERMINISTIC,
        b_dual[0] * c_star * a,
        b_dual[1] * c_star * a,
        provenance="mdp_large_time",
    )


# ---------------------------------------------------------------------------
# Variational forms for the reduced-basis oracle
# ---------------------------------------------------------------------------

def mdp_log_problem(
    spec: PayoffSpec | None,
    params: HestonParams,
    grid: TimeGrid,
    alpha: WeightPath | None = None,
    payoff_log: Callable[[np.ndarray, np.ndarray, np.ndarray], float] | None = None,
    extra_atoms: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> VariationalProblem:
    """sup F-bar(sum alpha phi_dot) - ||x||^2/2 with the eta feedback:

        eta = e^{B} int e^{-B} g(psi) x1_dot,   phi_dot = sqrt(psi) (rho x1 + rho_bar x2) - eta/2.

    ``payoff_log(phi_dot, psi, eta)`` overrides the call form (variance-payoff
    functionals read psi + eta as the variance proxy).
    """
    psi = psi_deterministic(params, grid)
    sqp = np.sqrt(psi)
    g_psi = params.xi * sqp
    b_path = -params.kappa * grid.knots
    eb, enb = np.exp(b_path), np.exp(-b_path)
    dt = grid.dt
    rho, rho_bar = params.rho, params.rho_bar

    if payoff_log is None:
        if spec is None or alpha is None:
            raise OptimError("need a call spec with weight or an explicit functional")
        F, _, _ = _fbar_curve(spec, alpha, params, grid)
        alpha_k = alpha.on_grid(grid)

        def payoff_log(phi_dot, psi_, eta):
            return F(float((alpha_k[:-1] * phi_dot[:-1]).sum() * dt))

    def objective(xdot1, xdot2):
        eta = eb * _cumtrapz(enb * g_psi * xdot1, dt)
        phi_dot = sqp * (rho * xdot1 + rho_bar * xdot2) - 0.5 * eta
        val = payoff_log(phi_dot, psi, eta)
        pen = 0.5 * float(((xdot1[:-1] ** 2) + (xdot2[:-1] ** 2)).sum() * dt)
        return val - pen

    shape = sqp if alpha is None else sqp * alpha.on_grid(grid)
    own = [shape, np.ones(grid.n_steps + 1)]
    return reduced_basis_problem(objective, grid, [own, own], extra_atoms, label="mdp_log")


def mdp_price_problem(
    spec: PayoffSpec,
    params: HestonParams,
    grid: TimeGrid,
    alpha: WeightPath,
    psi: np.ndarray | None = None,
    extra_atoms: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> VariationalProblem:
    """sup F-bar(sum alpha phi_dot) - ||x||^2/2 with phi_dot = sqrt(psi)(rho x1 + rho_bar x2)."""
    if psi is None:
        psi = psi_deterministic(params, grid)
    a = alpha.on_grid(grid)
    F, _, _ = call_curve(spec, params, 0.5 * float((a[:-1] * psi[:-1]).sum() * grid.dt))
    sqp = np.sqrt(psi)
    dt = grid.dt
    rho, rho_bar = params.rho, params.rho_bar

    def objective(xdot1, xdot2):
        phi_dot = sqp * (rho * xdot1 + rho_bar * xdot2)
        val = F(float((a[:-1] * phi_dot[:-1]).sum() * dt))
        return float(val) - 0.5 * float(((xdot1[:-1] ** 2) + (xdot2[:-1] ** 2)).sum() * dt)

    own = [a * sqp]
    return reduced_basis_problem(objective, grid, [own, own], extra_atoms,
                                 start=(rho, rho_bar), label="mdp_price")


def large_time_problem(
    spec: PayoffSpec,
    params: HestonParams,
    grid: TimeGrid,
    alpha: WeightPath,
    nu: float,
    extra_atoms: list[tuple[np.ndarray]] | None = None,
) -> VariationalProblem:
    """Single-channel reduced form sup F-bar(sum alpha x1) - (nu/4) sum x1^2.

    ``extra_atoms`` appends x1 profiles, such as the closed form c* alpha.
    """
    a = alpha.on_grid(grid)
    F, _, _ = _fbar_curve(spec, alpha, params, grid)
    dt = grid.dt

    def objective(xdot1):
        val = F(float((a[:-1] * xdot1[:-1]).sum() * dt))
        return float(val) - 0.25 * nu * float((xdot1[:-1] ** 2).sum() * dt)

    return reduced_basis_problem(objective, grid, [[a]], extra_atoms, label="mdp_large_time")
