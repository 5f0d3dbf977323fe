"""Reduced-basis optimizer for drift variational problems.

Problems have the shape sup_x { F(paths induced by x) - penalty(x) } over one
or two channels of square-integrable derivatives. The search space is a small
basis per channel (problem-aware atoms plus piecewise-linear hats); Nelder-Mead
runs from deterministic starts, by default zero and +/- once and twice the
seed, or the caller's own. This is the independent check
applied to every closed-form drift pipeline and the fallback optimizer for
payoffs without a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import optimize

from .errors import DomainError, OptimError
from .model import TimeGrid

#: Objective sentinel standing in for -inf (unreachable payoff, rejected path).
NEG_SENTINEL = -1e18

MAX_BASIS_PER_CHANNEL = 64


@dataclass
class VariationalProblem:
    """Objective over channel derivative paths, with a reduced basis per channel.

    ``objective`` receives one array per channel (values on the grid knots) and
    returns the full objective value, penalty included; NEG_SENTINEL or any
    non-finite value marks an inadmissible point. ``basis`` holds one
    (m_ch, n_knots) matrix per channel.
    ``seed_coeffs`` is the coefficient vector the deterministic multi-starts
    scale (unit weight on the first basis row when None); by convention the
    first rows of each basis are the problem-aware atoms, so unit vectors
    there are meaningful starts.
    ``extra_index`` is the row where each channel's extra atoms begin (see
    ``reduced_basis_problem``).
    """

    objective: Callable[..., float]
    basis: list[np.ndarray]
    grid: TimeGrid
    seed_coeffs: np.ndarray | None = None
    label: str = ""
    extra_index: int = 0

    def __post_init__(self):
        for b in self.basis:
            if b.shape[0] > MAX_BASIS_PER_CHANNEL:
                raise DomainError("at most 64 basis functions per channel")
            if b.shape[1] != self.grid.n_steps + 1:
                raise DomainError("basis rows must be sampled on the grid knots")

    @property
    def n_coeffs(self) -> int:
        return sum(b.shape[0] for b in self.basis)

    def expand(self, coeffs: np.ndarray) -> list[np.ndarray]:
        coeffs = np.asarray(coeffs, dtype=float)
        out, k = [], 0
        for b in self.basis:
            m = b.shape[0]
            out.append(coeffs[k : k + m] @ b)
            k += m
        return out

    def value(self, coeffs: np.ndarray) -> float:
        val = self.objective(*self.expand(coeffs))
        if not np.isfinite(val):
            return NEG_SENTINEL
        return float(val)


def hat_basis(grid: TimeGrid, m: int) -> np.ndarray:
    """m piecewise-linear hats with uniform nodes spanning [0, t_end], sampled on knots."""
    nodes = np.linspace(0.0, grid.t_end, m)
    t = grid.knots
    rows = np.empty((m, t.size))
    width = nodes[1] - nodes[0] if m > 1 else grid.t_end
    for j, c in enumerate(nodes):
        rows[j] = np.clip(1.0 - np.abs(t - c) / width, 0.0, None)
    return rows


def reduced_basis_problem(
    objective: Callable[..., float],
    grid: TimeGrid,
    atoms: Sequence[Sequence[np.ndarray]],
    extra_atoms: Sequence[Sequence[np.ndarray]] | None = None,
    n_hats: int = 9,
    start: Sequence[float] | None = None,
    label: str = "",
) -> VariationalProblem:
    """The one problem builder: each channel's basis is [problem atoms, extra
    atoms, ``n_hats`` hats].

    ``atoms`` holds each channel's problem atoms (the same count in every
    channel); each entry of ``extra_atoms`` holds one profile per channel, and
    ``extra_index`` records the row where they begin. The start puts
    ``start[ch]`` (default 1) on atom 0 of each channel.
    """
    hats = [hat_basis(grid, n_hats)] if n_hats else []
    basis = [np.vstack([*own, *(e[ch] for e in extra_atoms or ()), *hats], dtype=float)
             for ch, own in enumerate(atoms)]
    seed = np.zeros(sum(b.shape[0] for b in basis))
    seed[np.cumsum([0] + [b.shape[0] for b in basis[:-1]])] = 1.0 if start is None else start
    return VariationalProblem(objective=objective, basis=basis, grid=grid,
                              seed_coeffs=seed, label=label,
                              extra_index=len(atoms[0]))


def _default_starts(problem: VariationalProblem) -> list[np.ndarray]:
    """Zero, then +/- the seed and +/- twice the seed."""
    seed = problem.seed_coeffs
    if seed is None:
        seed = np.zeros(problem.n_coeffs)
        seed[0] = 1.0
    s0 = np.asarray(seed, dtype=float)
    return [np.zeros(problem.n_coeffs), s0, -s0, 2.0 * s0, -2.0 * s0]


def solve(
    problem: VariationalProblem,
    init: np.ndarray | None = None,
    budget: int = 4000,
    starts: Sequence[np.ndarray] | None = None,
) -> tuple[np.ndarray, float]:
    """Maximize over the basis coefficients; deterministic given (init, budget, starts).

    Runs Nelder-Mead from each of ``starts`` in order (by default zero, +/-
    the seed and +/- twice the seed), then from the optional ``init``; the
    ``budget`` of evaluations is split evenly over them. Returns the best
    point seen, the earlier one on equal values, which is never below the
    objective at any start. Raises OptimError when every start is
    inadmissible and no admissible point was found.
    """
    if starts is None:
        starts = _default_starts(problem)
    else:
        starts = [np.asarray(x0, dtype=float) for x0 in starts]
    if init is not None:
        starts.append(np.asarray(init, dtype=float))
    per_start = max(50, budget // len(starts))

    best_c, best_v = None, NEG_SENTINEL
    for x0 in starts:
        v0 = problem.value(x0)
        if v0 > best_v:
            best_c, best_v = np.array(x0), v0
        res = optimize.minimize(
            lambda c: -problem.value(c),
            x0,
            method="Nelder-Mead",
            options={
                "maxfev": per_start,
                "xatol": 1e-8,
                "fatol": 1e-10,
                "adaptive": True,
            },
        )
        if -res.fun > best_v:
            best_c, best_v = res.x, -res.fun
    if best_v <= NEG_SENTINEL / 2:
        raise OptimError(f"no admissible point found for problem {problem.label!r}")
    return best_c, best_v
