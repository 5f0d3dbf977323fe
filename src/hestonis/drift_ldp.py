"""Large-deviations drift optimizers for Heston (small-noise and small-time).

For weighted call payoffs the function-space problem

    sup { F(sum alpha phi_dot dt) - ||x_dot||^2 / 2 },
    psi_dot = f(psi) + xi sqrt(psi) x1_dot,
    phi_dot = drift(psi) + sqrt(psi) (rho x1_dot + rho_bar x2_dot),

reduces through the transformation U = (psi_dot - f)/ (xi sqrt(psi)),
Z = (phi_dot + psi/2)/sqrt(psi) and its Euler-Lagrange system to a
two-parameter family indexed by (A0, beta), A = U/sqrt(psi):

    first integral:  (Z - rho U)/rho_bar^2 = beta alpha sqrt(psi) / 2
    Riccati:         A' = -xi A^2/2 + kappa A
                          + xi beta alpha (1/2 - rho_bar^2 beta alpha/4 - rho kappa/xi)/2
                          + rho beta alpha'/2.

Small-time mode drops the variance drift (kappa = 0) and the -psi/2 term in
phi_dot; its Euler-Lagrange system then loses the 1/2 inside the Riccati
source: A' = -xi A^2/2 - xi rho_bar^2 beta^2 alpha^2 / 8 + rho beta alpha'/2.

The terminal state is free, so transversality fixes A(T) = rho beta alpha(T)/2:
the search is 1-D in beta (A0 from a backward Riccati sweep), then polished
on (A0, log beta). Every emitted drift is cross-checked against the
reduced-basis optimizer on the same discrete functional.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import optimize

from .errors import NumericalError, OptimError
from .measure import DriftMode, DriftSchedule
from .model import HestonParams, TimeGrid, psi_deterministic
from .payoff import PayoffSpec, WeightPath
from .varopt import NEG_SENTINEL, VariationalProblem, reduced_basis_problem
from .drift_bs import call_curve

RICCATI_SUBSTEPS = 4
BLOWUP_CAP = 1.0e6
PSI_FLOOR = 1.0e-12


class LdpMode(enum.Enum):
    SMALL_NOISE = "small_noise"
    SMALL_TIME = "small_time"


@dataclass(frozen=True)
class RiccatiFamily:
    """One (A0, beta) member: A on the fine grid, with a blow-up marker."""

    a_fine: np.ndarray
    blown_up: bool


def _fine_knots(grid: TimeGrid) -> np.ndarray:
    n_fine = grid.n_steps * RICCATI_SUBSTEPS
    return np.linspace(0.0, grid.t_end, n_fine + 1)


def _riccati_coeffs(alpha: WeightPath, params: HestonParams, grid: TimeGrid, mode: LdpMode):
    """Linear/quadratic-in-beta pieces of the Riccati source at fine nodes and midpoints.

    The source is C(t) = beta s1(t) + beta^2 s2(t) with
    s1 = (xi*half*alpha - rho*kap*alpha + rho*alpha_dot)/2, s2 = -xi rho_bar^2 alpha^2/8.
    """
    t_fine = _fine_knots(grid)
    xi, rho, rho_bar = params.xi, params.rho, params.rho_bar
    if mode is LdpMode.SMALL_NOISE:
        kap_eff, half_term = params.kappa, 0.5
    else:
        kap_eff, half_term = 0.0, 0.0

    def pieces(t):
        a = np.broadcast_to(np.asarray(alpha.alpha(t), dtype=float), t.shape)
        ad = np.broadcast_to(np.asarray(alpha.alpha_dot(t), dtype=float), t.shape)
        s1 = 0.5 * (xi * half_term * a - rho * kap_eff * a + rho * ad)
        s2 = -0.125 * xi * rho_bar**2 * a * a
        return s1, s2

    s1n, s2n = pieces(t_fine)
    s1m, s2m = pieces(0.5 * (t_fine[1:] + t_fine[:-1]))
    return kap_eff, (s1n, s2n, s1m, s2m)


def _riccati_path(beta: float, a_start: float, kap_eff: float, coeffs, xi: float,
                  h: float) -> tuple[np.ndarray, bool]:
    """RK4 with step h over precomputed source pieces; returns (A path, blown).

    With h < 0 and the pieces reversed, it sweeps from T back to 0."""
    s1n, s2n, s1m, s2m = coeffs
    c_nodes = (beta * s1n + beta * beta * s2n).tolist()
    c_mids = (beta * s1m + beta * beta * s2m).tolist()
    n_fine = len(c_mids)
    out = np.empty(n_fine + 1)
    out[0] = a = float(a_start)
    half_xi = 0.5 * xi
    h6 = h / 6.0
    hh = 0.5 * h
    for j in range(n_fine):
        c0 = c_nodes[j]
        cm = c_mids[j]
        c1 = c_nodes[j + 1]
        k1 = (kap_eff - half_xi * a) * a + c0
        a2 = a + hh * k1
        k2 = (kap_eff - half_xi * a2) * a2 + cm
        a3 = a + hh * k2
        k3 = (kap_eff - half_xi * a3) * a3 + cm
        a4 = a + h * k3
        k4 = (kap_eff - half_xi * a4) * a4 + c1
        a = a + h6 * (k1 + 2.0 * (k2 + k3) + k4)
        if not -BLOWUP_CAP < a < BLOWUP_CAP:
            out[j + 1 :] = BLOWUP_CAP if a > 0 else -BLOWUP_CAP
            return out, True
        out[j + 1] = a
    return out, False


def riccati_solve(
    beta: float,
    a0: float,
    alpha: WeightPath,
    params: HestonParams,
    grid: TimeGrid,
    mode: LdpMode,
) -> RiccatiFamily:
    """RK4 integration of the mode's Riccati equation with step dt/4.

    Returns the path on the fine grid and a blow-up flag raised when |A|
    exceeds 1e6 (the point is then rejected by the objective, not an error).
    """
    kap_eff, coeffs = _riccati_coeffs(alpha, params, grid, mode)
    h = grid.dt / RICCATI_SUBSTEPS
    a_fine, blown = _riccati_path(beta, a0, kap_eff, coeffs, params.xi, h)
    return RiccatiFamily(a_fine=a_fine, blown_up=blown)


def psi_from_a(
    a_fine: np.ndarray, params: HestonParams, grid: TimeGrid, mode: LdpMode
) -> np.ndarray:
    """Variance path solving psi' + (kappa - xi A) psi = kappa theta, psi(0) = v0.

    Exact exponential integrator with trapezoid inner quadrature on the fine
    grid; small-time mode sets kappa = 0 (psi = v0 exp(xi int A)). Returns the
    path on the fine grid.
    """
    t_fine = _fine_knots(grid)
    if a_fine.shape != t_fine.shape:
        raise NumericalError("A path must live on the dt/4 grid")
    xi = params.xi
    kap = params.kappa if mode is LdpMode.SMALL_NOISE else 0.0
    h = t_fine[1] - t_fine[0]
    rate = kap - xi * a_fine
    big_i = np.concatenate([[0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1]) * h)])
    big_i = np.clip(big_i, -700.0, 700.0)
    grow = np.exp(big_i)
    inner = np.concatenate([[0.0], np.cumsum(0.5 * (grow[1:] + grow[:-1]) * h)])
    psi = np.exp(-big_i) * (params.v0 + kap * params.theta * inner)
    if np.any(psi <= 0.0) or not np.all(np.isfinite(psi)):
        raise NumericalError("variance path left the positive cone")
    return psi


@dataclass(frozen=True)
class LdpPaths:
    """Reconstructed family member on the grid knots."""

    a: np.ndarray
    psi: np.ndarray
    u: np.ndarray
    z: np.ndarray
    xdot1: np.ndarray
    xdot2: np.ndarray


def ldp_paths(
    beta: float,
    a0: float,
    spec_alpha: WeightPath,
    params: HestonParams,
    grid: TimeGrid,
    mode: LdpMode,
) -> LdpPaths | None:
    """Build (A, psi, U, Z) and the channel drifts for one (A0, beta); None when rejected."""
    fam = riccati_solve(beta, a0, spec_alpha, params, grid, mode)
    if fam.blown_up:
        return None
    try:
        psi_fine = psi_from_a(fam.a_fine, params, grid, mode)
    except NumericalError:
        return None
    sl = slice(None, None, RICCATI_SUBSTEPS)
    a_k = fam.a_fine[sl]
    psi_k = psi_fine[sl]
    alpha_k = spec_alpha.on_grid(grid)
    sqp = np.sqrt(psi_k)
    u = a_k * sqp
    z = params.rho * u + 0.5 * params.rho_bar**2 * beta * alpha_k * sqp
    xdot2 = (z - params.rho * u) / params.rho_bar
    return LdpPaths(a=a_k, psi=psi_k, u=u, z=z, xdot1=u, xdot2=xdot2)


def _family_evaluator(
    spec: PayoffSpec,
    alpha: WeightPath,
    params: HestonParams,
    grid: TimeGrid,
    mode: LdpMode,
):
    """Fast (beta, a0) -> (search score, true objective) closure.

    The true objective is -inf off the feasible set; the search score stays
    finite there and increases toward feasibility (distance of the aggregated
    return to the payoff threshold), so the simplex can walk out of the
    zero-payoff plateau.
    """
    kap_eff, coeffs = _riccati_coeffs(alpha, params, grid, mode)
    F, _, c_thr = call_curve(spec, params, shift=0.0)
    alpha_k = alpha.on_grid(grid)
    dt = grid.dt
    rho, rho_bar = params.rho, params.rho_bar
    sl = slice(None, None, RICCATI_SUBSTEPS)
    small_noise = mode is LdpMode.SMALL_NOISE
    xi, h = params.xi, grid.dt / RICCATI_SUBSTEPS

    def score(beta: float, a0: float) -> tuple[float, float]:
        a_fine, blown = _riccati_path(beta, a0, kap_eff, coeffs, xi, h)
        if blown:
            return -1.0e12, -np.inf
        try:
            psi_fine = psi_from_a(a_fine, params, grid, mode)
        except NumericalError:
            return -1.0e12, -np.inf
        psi_k = psi_fine[sl]
        sqp = np.sqrt(psi_k)
        u = a_fine[sl] * sqp
        z_minus = 0.5 * rho_bar**2 * beta * alpha_k * sqp  # Z - rho U
        z = rho * u + z_minus
        phi_dot = z * sqp + (-0.5 * psi_k if small_noise else 0.0)
        y = float((alpha_k[:-1] * phi_dot[:-1]).sum() * dt)
        pen = 0.5 * float(
            ((u[:-1] ** 2) + ((z_minus[:-1] / rho_bar) ** 2)).sum() * dt
        )
        if y <= c_thr:
            return -1.0e9 + (y - c_thr), -np.inf
        return F(y) - pen, F(y) - pen

    return score


BETA_GRID = np.linspace(math.log(0.1), math.log(1000.0), 16)  # log beta scan


def ldp_optimum(spec: PayoffSpec, alpha: WeightPath, params: HestonParams, grid: TimeGrid,
                mode: LdpMode) -> tuple[float, float, float]:
    """(a0*, beta*, value) of the best family member.

    The terminal state is free, so transversality fixes A(T) = rho beta
    alpha(T)/2 and each beta gives A0 by a backward Riccati sweep. A scan of
    log beta on BETA_GRID and a bounded Brent search in the best bracket find
    beta; Nelder-Mead on (A0, log beta) then polishes, because the condition
    is the continuous one and the discrete optimum lies O(dt) off it.
    """
    score = _family_evaluator(spec, alpha, params, grid, mode)
    kap_eff, coeffs = _riccati_coeffs(alpha, params, grid, mode)
    backward = tuple(c[::-1] for c in coeffs)
    a_end, h = 0.5 * params.rho * float(alpha.alpha(grid.t_end)), grid.dt / RICCATI_SUBSTEPS

    def neg(v):
        return -score(math.exp(v[1]), v[0])[0]

    def on_curve(log_b: float) -> np.ndarray:
        beta = math.exp(log_b)
        a_back, _ = _riccati_path(beta, a_end * beta, kap_eff, backward, params.xi, -h)
        return np.array([a_back[-1], log_b])

    i = int(np.argmin([neg(on_curve(lb)) for lb in BETA_GRID]))
    bracket = BETA_GRID[max(i - 1, 0)], BETA_GRID[min(i + 1, BETA_GRID.size - 1)]
    line = optimize.minimize_scalar(lambda lb: neg(on_curve(lb)), bounds=bracket,
                                    method="bounded", options={"xatol": 1e-10})
    res = optimize.minimize(neg, on_curve(line.x), method="Nelder-Mead", options={
        "maxfev": 400, "xatol": 1e-8, "fatol": 1e-11, "adaptive": False})
    a0_s, beta_s = float(res.x[0]), float(math.exp(res.x[1]))
    _, val = score(beta_s, a0_s)
    if not np.isfinite(val):
        raise OptimError(f"no admissible (A0, beta) found at strike {spec.strike}")
    return a0_s, beta_s, float(val)


def ldp_schedule(paths: LdpPaths, mode: LdpMode) -> DriftSchedule:
    """Drift schedule of an optimum's paths: (U, (Z - rho U)/rho_bar)."""
    return DriftSchedule(DriftMode.DETERMINISTIC, paths.xdot1, paths.xdot2, f"ldp_{mode.value}")


# ---------------------------------------------------------------------------
# Discrete functional shared with the reduced-basis oracle
# ---------------------------------------------------------------------------

def integrate_psi_controlled(
    xdot1: np.ndarray, params: HestonParams, grid: TimeGrid, mode: LdpMode
) -> np.ndarray | None:
    """RK4 for psi' = f(psi) + xi sqrt(psi) x1_dot on the knots; None if psi <= 0.

    x1_dot is linearly interpolated inside each step. Small-time mode drops f.
    """
    kap = params.kappa if mode is LdpMode.SMALL_NOISE else 0.0
    th, xi = params.theta, params.xi
    h = grid.dt
    hh, h6 = 0.5 * h, h / 6.0
    xd = [float(v) for v in xdot1]
    n = grid.n_steps
    psi = np.empty(n + 1)
    psi[0] = y = params.v0
    floor = PSI_FLOOR
    sqrt, isfinite = math.sqrt, math.isfinite

    # each stage is rhs(v, u) = kap (th - v) + xi sqrt(v) u, written out
    for i in range(n):
        uL = xd[i]
        uR = xd[i + 1]
        um = 0.5 * (uL + uR)
        if y <= floor:
            return None
        k1 = kap * (th - y) + xi * sqrt(y) * uL
        y2 = y + hh * k1
        if y2 <= floor:
            return None
        k2 = kap * (th - y2) + xi * sqrt(y2) * um
        y3 = y + hh * k2
        if y3 <= floor:
            return None
        k3 = kap * (th - y3) + xi * sqrt(y3) * um
        y4 = y + h * k3
        if y4 <= floor:
            return None
        k4 = kap * (th - y4) + xi * sqrt(y4) * uR
        y = y + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if y <= floor or not isfinite(y):
            return None
        psi[i + 1] = y
    return psi


def ldp_problem(
    spec: PayoffSpec | None,
    params: HestonParams,
    grid: TimeGrid,
    mode: LdpMode,
    payoff_log: Callable[[np.ndarray, np.ndarray], float] | None = None,
    alpha: WeightPath | None = None,
    extra_atoms: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> VariationalProblem:
    """Two-channel variational problem on the same discrete functional.

    ``payoff_log`` maps (phi_dot, psi) on the knots to log payoff (call form is
    derived from ``spec`` when omitted). ``extra_atoms`` appends exact channel
    profiles to the basis, so the oracle's search space contains any candidate
    drift it is asked to check.
    """
    if payoff_log is None:
        if spec is None or alpha is None:
            raise OptimError("need either a call spec with weight or an explicit functional")
        F, _, _ = call_curve(spec, params, shift=0.0)
        alpha_k = alpha.on_grid(grid)

        def payoff_log(phi_dot, psi):
            return F(float((alpha_k[:-1] * phi_dot[:-1]).sum() * grid.dt))

    dt = grid.dt
    rho, rho_bar = params.rho, params.rho_bar

    def objective(xdot1, xdot2):
        psi = integrate_psi_controlled(xdot1, params, grid, mode)
        if psi is None:
            return NEG_SENTINEL
        sqp = np.sqrt(psi)
        drift_term = -0.5 * psi if mode is LdpMode.SMALL_NOISE else 0.0
        phi_dot = drift_term + sqp * (rho * xdot1 + rho_bar * xdot2)
        val = payoff_log(phi_dot, psi)
        pen = 0.5 * float(((xdot1[:-1] ** 2) + (xdot2[:-1] ** 2)).sum() * dt)
        return val - pen

    shape = np.sqrt(psi_deterministic(params, grid))
    if alpha is not None:
        shape = shape * alpha.on_grid(grid)
    own = [shape, np.ones(grid.n_steps + 1)]
    return reduced_basis_problem(objective, grid, [own, own], extra_atoms,
                                 label=f"ldp_{mode.value}")


def atom_coefficients(problem: VariationalProblem, atom_index_per_channel: int) -> np.ndarray:
    """Unit coefficients on the same basis row of every channel."""
    rows = np.cumsum([0] + [b.shape[0] for b in problem.basis[:-1]]) + atom_index_per_channel
    c = np.zeros(problem.n_coeffs)
    c[rows] = 1.0
    return c
