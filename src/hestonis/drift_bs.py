"""Deterministic-volatility drift optimizer and its fully adaptive variant.

With a deterministic volatility sigma(t) the log-price small-noise problem for
a weighted call payoff collapses to a scalar: search x_dot = beta alpha sigma
and maximize phi(beta) = F(beta v) - beta^2 v / 2 with v = sum (alpha sigma)^2 dt.
For F(x) = log(e^x - e^c)^+ the stationarity condition is exactly

    v beta + log(beta - 1) - log(beta) - c = 0,

with a unique root on (1, inf). The two-channel embedding puts the optimal
drift on B = rho W + rho_bar W_perp: (h1, h2) = beta alpha sigma (rho, rho_bar).

The fully adaptive variant re-solves the scalar root on the remaining horizon
at every step, with sigma frozen at the running sqrt(V_i) and the payoff
threshold shifted by the accumulated weighted return.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OptimError
from .measure import DriftMode, DriftSchedule
from .model import HestonParams, TimeGrid
from .payoff import PayoffSpec, WeightPath, log_forward
from .varopt import VariationalProblem, reduced_basis_problem

BETA_BRACKET_HI = 1.0e6
BETA_BRACKET_LO = 1.0 + 1.0e-12

# The root is solved in u = log(beta - 1) on [U_LO, U_HI]. At U_LO, exp(u) is
# the smallest subnormal, so 1 + exp(u) rounds to 1 and g(U_LO) = v - 745 - c.
U_LO = -745.0
U_HI = float(np.log(BETA_BRACKET_HI))
_B_HI = 1.0 + float(np.exp(U_HI))
_LOG_B_HI = float(np.log(_B_HI))
ROOT_PASSES = 16  # Newton passes per exact solve; the tested regimes converge within 5
ROOT_UTOL = 1e-12  # a path is done when its step is below ROOT_UTOL * (1 + |u|)
# BS_A2's per-step solve stops after 2 passes. The kernel's Girsanov weight
# reads the drift that is applied, so any root gives an unbiased estimator and
# only the variance depends on how near the optimum it is (Glasserman, Monte
# Carlo Methods in Financial Engineering, 2004, 4.6). Newton converges
# quadratically from the cold start: on every state of a 25k-path x 252-step
# K = 30 chunk, which needs up to 4 passes to converge, 2 passes leave a
# relative error in beta of at most 1.4e-8 and cut the root's time from 0.71
# to 0.31 s (3 passes: 7e-15 in 0.55 s; 2-core Xeon, best of 3).
A2_ROOT_PASSES = 2


@dataclass(frozen=True)
class BsReduction:
    """Scalar reduction of the deterministic-volatility problem."""

    alpha: np.ndarray
    beta_star: float


def call_curve(spec: PayoffSpec, params: HestonParams, shift: float = 0.0):
    """F, F' and the vanishing threshold for a call payoff on the aggregated return.

    ``shift`` moves the argument (log-price conventions subtract half the
    integrated weighted variance). Returns (F, Fp, c) with F(y) = -inf for
    y <= c, where c = log K - m + shift.
    """
    m = log_forward(spec, params) - shift
    strike = spec.strike

    def F(y):
        y = np.asarray(y, dtype=float)
        gap = np.exp(m + y) - strike
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(gap > 0.0, np.log(np.maximum(gap, 1e-300)), -np.inf)
        return out if out.ndim else float(out)

    def Fp(y):
        y = np.asarray(y, dtype=float)
        ey = np.exp(m + y)
        gap = ey - strike
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(gap > 0.0, ey / np.where(gap > 0.0, gap, 1.0), np.inf)
        return out if out.ndim else float(out)

    c = np.log(strike) - m if strike > 0.0 else -np.inf
    return F, Fp, c


def bs_root(v: float, c: float) -> float:
    """Unique root of v b + log(b - 1) - log(b) - c = 0 on (1, inf): one path of the vector solve."""
    beta = float(_vector_bs_root(np.array([v], dtype=float), np.array([c], dtype=float))[0])
    if np.isnan(beta):
        raise OptimError(f"payoff unreachable: no root below beta = {_B_HI!r}")
    return beta


def bs_scale(s1: float, s2: float, c: float) -> float:
    """argmax over beta of F(beta s1) - beta^2 s2 / 2 for the call curve F with threshold c.

    Stationarity s1 F'(beta s1) = beta s2 is the root equation in
    b = beta s2 / s1 with v = s1^2 / s2, so every scalar call reduction is
    one ``bs_root`` (Guasoni & Robertson, Finance Stoch. 12, 2008).
    """
    if s1 <= 0.0 or s2 <= 0.0:
        raise OptimError("scalar reduction needs positive moments")
    return s1 / s2 * bs_root(s1 * s1 / s2, c)


def bs_beta(
    spec: PayoffSpec,
    sigma: np.ndarray,
    alpha: WeightPath,
    grid: TimeGrid,
    params: HestonParams,
) -> BsReduction:
    """Optimal scalar beta for the deterministic-volatility weighted call."""
    a = alpha.on_grid(grid)
    sig = np.asarray(sigma, dtype=float)
    v_quad = float(((a[:-1] * sig[:-1]) ** 2).sum() * grid.dt)
    shift = 0.5 * float((a[:-1] * sig[:-1] ** 2).sum() * grid.dt)
    _, _, c = call_curve(spec, params, shift)
    if v_quad <= 0.0:
        raise OptimError("degenerate quadratic weight: v_quad = 0")
    beta = bs_root(v_quad, c)
    return BsReduction(alpha=a, beta_star=beta)


def bs_drift(
    beta_star: float,
    sigma: np.ndarray,
    alpha: np.ndarray,
    rho: float,
    provenance: str = "bs",
) -> DriftSchedule:
    """Embed the scalar solution in the two channels: rho h1 + rho_bar h2 = beta alpha sigma.

    rho = 1 gives the loading (1, 0) of a one-channel (constant-vol) model.
    """
    rho_bar = float(np.sqrt(1.0 - rho * rho))
    profile = beta_star * np.asarray(alpha) * np.asarray(sigma)
    return DriftSchedule(
        mode=DriftMode.DETERMINISTIC,
        h1_dot=rho * profile,
        h2_dot=rho_bar * profile,
        provenance=provenance,
    )


def _root_bracket(v: np.ndarray, c: np.ndarray):
    """(pinned, unreachable): g(U_LO) >= 0 and g(U_HI) < 0, in closed form."""
    pinned = v + U_LO - c >= 0.0
    unreachable = v * _B_HI + U_HI - _LOG_B_HI - c < 0.0
    return pinned, unreachable


def _cold_start(v: np.ndarray, c: np.ndarray) -> np.ndarray:
    """A start just above the root: u0 = h^-1(c - v b0) with h(u) = u - log(1 + e^u).

    b0 solves v b - 1/b = c, and log(1 - 1/b) < -1/b puts beta >= b0, so
    h(u) = c - v beta <= c - v b0 at the root. The bound is tight both for
    beta -> 1 (v beta ~ v b0 ~ v) and for large beta (b0 ~ beta).
    """
    s = np.sqrt(c * c + 4.0 * v)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        b0 = np.where(c > 0.0, (c + s) / (2.0 * v), 2.0 / (s - c))
        y = c - v * b0
        u0 = np.where(y < 0.0, -np.log(np.expm1(-y)), U_HI)
    return np.clip(u0, U_LO, U_HI)


def _vector_bs_root(v: np.ndarray, c: np.ndarray, passes: int = ROOT_PASSES) -> np.ndarray:
    """Vectorized root of v b + log(b-1) - log(b) = c over paths, in at most ``passes`` passes.

    Solved in u = log(b - 1), where g(u) = v (1 + e^u) + u - log(1 + e^u) - c
    is increasing, by Newton steps kept inside the bisection bracket
    (Numerical Recipes, 3rd ed., 9.4 rtsafe). A step goes to the bracket
    midpoint only when it lands strictly outside (lo, hi): a converged path
    sits on its own bracket end, and a closed test would bisect it back out.
    Converged paths leave the working arrays on the pass they converge.
    Every root is clamped at BETA_BRACKET_LO, the value of the roots pinned
    below U_LO, so beta does not fall as c rises across the pin; v <= 0 and
    roots beyond the beta bracket return nan for the caller to zero out.
    A path still live when the passes run out returns its last iterate.

    Each pass writes into work vectors allocated once per call (two threads
    solving at once share none), so a path's arithmetic is the same
    operations in the same order whatever else is live.
    """
    v, c = np.broadcast_arrays(np.asarray(v, dtype=float), np.asarray(c, dtype=float))
    shape = v.shape
    pinned, unreachable = _root_bracket(v, c)
    ok = v > 0.0
    solvable = ok & ~pinned & ~unreachable
    every = bool(solvable.all())
    if every:
        v, c = v.ravel(), c.ravel()
    else:
        idx = np.flatnonzero(solvable)
        v, c = v.ravel()[idx], c.ravel()[idx]
    n = v.size
    u = _cold_start(v, c)
    lo = np.full(n, U_LO)
    hi = np.full(n, U_HI)
    u_next, e, b, g, t = (np.empty(n) for _ in range(5))
    below, flag = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    live = None  # indices of the live paths; None while every path is live
    root = None
    for _ in range(passes if n else 0):
        m = u.size
        un, e, b, g, t, below, flag = (a[:m] for a in (u_next, e, b, g, t, below, flag))
        # g = v b + u - log b - c with b = 1 + e^u
        np.exp(u, out=e)
        np.add(e, 1.0, out=b)
        np.multiply(v, b, out=g)
        g += u
        np.log(b, out=t)
        g -= t
        g -= c
        np.less(g, 0.0, out=below)
        np.copyto(lo, u, where=below)
        np.logical_not(below, out=flag)
        np.copyto(hi, u, where=flag)
        # the Newton step u - g / (v e + 1 / b), bisected where it leaves (lo, hi)
        e *= v
        np.divide(1.0, b, out=b)
        e += b
        g /= e
        np.subtract(u, g, out=un)
        np.less(un, lo, out=flag)
        np.greater(un, hi, out=below)
        flag |= below
        if flag.any():
            np.add(lo, hi, out=t)
            t *= 0.5
            np.copyto(un, t, where=flag)
        # done where |u_new - u| <= ROOT_UTOL (1 + |u|)
        np.subtract(un, u, out=t)
        np.abs(t, out=t)
        np.abs(u, out=g)
        g += 1.0
        g *= ROOT_UTOL
        np.less_equal(t, g, out=flag)
        u_next, u = u, un
        n_done = int(np.count_nonzero(flag))
        if n_done == m:
            break
        if n_done:
            if live is None:
                live, root = np.arange(n), np.empty(n)
            root[live[flag]] = u[flag]
            np.logical_not(flag, out=below)
            live, u, v, c, lo, hi = (a[below] for a in (live, u, v, c, lo, hi))
    if live is None:
        root = u
    else:
        root[live] = u
    np.exp(root, out=root)
    root += 1.0
    np.maximum(root, BETA_BRACKET_LO, out=root)
    if every:
        return root.reshape(shape)
    beta = np.where(pinned & ok, BETA_BRACKET_LO, np.nan)
    beta.flat[idx] = root
    return beta


def bs_fully_adaptive_step(
    i: int,
    y_acc: np.ndarray,
    v_i: np.ndarray,
    ctx: dict,
):
    """Per-step modulation: re-solve the scalar problem on [t_i, T] per path.

    sigma is frozen at sqrt(V_i) and the call threshold shifted by the weighted
    return accumulated so far. Paths whose remaining payoff is unreachable in
    the beta bracket get zero drift for the step.
    """
    a2 = ctx["alpha2_rem"][i]  # sum_{j>=i} alpha_j^2 dt
    a1 = ctx["alpha1_rem"][i]  # sum_{j>=i} alpha_j dt
    alpha_i = ctx["alpha"][i]
    # c = c_base - y_acc + 0.5 v_i a1
    c = np.subtract(ctx["c_base"], y_acc)
    half = np.multiply(v_i, 0.5)
    half *= a1
    c += half
    beta = _vector_bs_root(np.multiply(v_i, a2), c, passes=A2_ROOT_PASSES)
    # amp = beta alpha_i sqrt(v_i), 0 where beta is nan
    np.copyto(beta, 0.0, where=np.isnan(beta))
    beta *= alpha_i
    beta *= np.sqrt(v_i, out=half)
    return np.multiply(beta, ctx["rho"]), np.multiply(beta, ctx["rho_bar"], out=c)


def bs_fully_adaptive(
    spec: PayoffSpec, params: HestonParams, grid: TimeGrid
) -> DriftSchedule:
    """Per-step adaptive schedule built on the scalar re-solve."""
    a = spec.weight.on_grid(grid)
    a2 = np.concatenate([np.cumsum((a[:-1] ** 2)[::-1])[::-1] * grid.dt, [0.0]])
    a1 = np.concatenate([np.cumsum(a[:-1][::-1])[::-1] * grid.dt, [0.0]])
    _, _, c_base = call_curve(spec, params, 0.0)
    ctx = {
        "alpha": a,
        "alpha2_rem": a2,
        "alpha1_rem": a1,
        "c_base": c_base,
        "rho": params.rho,
        "rho_bar": params.rho_bar,
    }

    def step_fn(i, y_acc, v_i):
        return bs_fully_adaptive_step(i, y_acc, v_i, ctx)

    return DriftSchedule(
        mode=DriftMode.PER_STEP_ADAPTIVE,
        step_fn=step_fn,
        alpha_knots=a,
        provenance="bs_a2",
    )


def bs_problem(
    spec: PayoffSpec,
    params: HestonParams,
    grid: TimeGrid,
    sigma: np.ndarray,
    rich_basis: bool = True,
) -> VariationalProblem:
    """Single-channel variational form sup F(sum alpha sigma x dt) - ||x||^2/2.

    With ``rich_basis`` False the basis is the lone alpha*sigma atom, so the
    optimal coefficient is directly comparable to the scalar beta.
    """
    a = spec.weight.on_grid(grid)
    sig = np.asarray(sigma, dtype=float)
    shift = 0.5 * float((a[:-1] * sig[:-1] ** 2).sum() * grid.dt)
    F, _, _ = call_curve(spec, params, shift)
    asig = a * sig
    dt = grid.dt

    def objective(xdot):
        y = float((asig[:-1] * xdot[:-1]).sum() * dt)
        val = F(y)
        return val - 0.5 * float((xdot[:-1] ** 2).sum() * dt)

    return reduced_basis_problem(objective, grid, [[asig]], n_hats=9 if rich_basis else 0,
                                 label="bs")
