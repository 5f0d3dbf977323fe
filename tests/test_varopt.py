import numpy as np
import pytest

from hestonis import varopt
from hestonis.errors import DomainError, OptimError
from hestonis.varopt import (
    NEG_SENTINEL,
    VariationalProblem,
    hat_basis,
    solve,
)


def _quadratic_problem(grid, c=1.7, m=6):
    """objective = c - ||x||^2/2: pure penalty, optimum at zero coefficients."""
    dt = grid.dt

    def objective(xdot):
        return c - 0.5 * float((xdot[:-1] ** 2).sum() * dt)

    basis = hat_basis(grid, m)
    seed = np.zeros(m)
    seed[0] = 1.0
    return VariationalProblem(objective, [basis], grid, seed_coeffs=seed)


def test_constant_payoff_optimum_is_zero_path(coarse_grid):
    problem = _quadratic_problem(coarse_grid, c=1.7)
    coeffs, value = solve(problem, budget=1500)
    assert value == pytest.approx(1.7, abs=1e-6)
    assert np.abs(coeffs).max() < 1e-2


def test_solve_never_below_zero_start_value(coarse_grid):
    problem = _quadratic_problem(coarse_grid, c=-3.0)
    _, value = solve(problem, budget=400)
    assert value >= problem.value(np.zeros(problem.n_coeffs)) - 1e-12


def test_solve_raises_when_everything_inadmissible(coarse_grid):
    basis = hat_basis(coarse_grid, 4)

    def objective(xdot):
        return NEG_SENTINEL

    problem = VariationalProblem(objective, [basis], coarse_grid)
    with pytest.raises(OptimError):
        solve(problem, budget=200)


def test_given_starts_run_in_order_with_init_last(coarse_grid, monkeypatch):
    problem = _quadratic_problem(coarse_grid)
    starts = [np.full(problem.n_coeffs, 0.3), np.full(problem.n_coeffs, -0.7)]
    init = np.arange(problem.n_coeffs, dtype=float)
    calls = []
    minimize = varopt.optimize.minimize

    def recorded(fun, x0, **kwargs):
        calls.append((np.array(x0), kwargs["options"]["maxfev"]))
        return minimize(fun, x0, **kwargs)

    monkeypatch.setattr(varopt.optimize, "minimize", recorded)
    solve(problem, init=init, budget=600, starts=starts)
    assert len(calls) == 3
    for (x0, maxfev), want in zip(calls, [*starts, init]):
        assert np.array_equal(x0, want)
        assert maxfev == 200


def _double_well_problem(grid):
    """objective = -(c^2 - 1)^2 on one constant coefficient: equal maxima at c = -1 and +1."""

    def objective(xdot):
        return -((xdot[0] ** 2 - 1.0) ** 2)

    return VariationalProblem(objective, [np.ones((1, grid.n_steps + 1))], grid)


@pytest.mark.parametrize("first", [-1.0, 1.0])
def test_equal_values_keep_the_earlier_start(coarse_grid, first):
    problem = _double_well_problem(coarse_grid)
    coeffs, value = solve(problem, budget=200, starts=[np.array([first]), np.array([-first])])
    assert value == 0.0
    assert np.array_equal(coeffs, [first])


def test_given_starts_all_inadmissible_raise_naming_the_problem(coarse_grid):
    # admissible only far from where the starts sit, so no search reaches it
    def objective(xdot):
        return 0.0 if xdot[0] < -10.0 else np.nan

    problem = VariationalProblem(objective, [hat_basis(coarse_grid, 4)], coarse_grid,
                                 label="far_support")
    starts = [np.ones(4), 2.0 * np.ones(4)]
    with pytest.raises(OptimError, match="no admissible point found for problem 'far_support'"):
        solve(problem, budget=200, starts=starts)


def test_basis_must_match_grid(coarse_grid):
    with pytest.raises(DomainError):
        VariationalProblem(lambda x: 0.0, [np.ones((2, 5))], coarse_grid)


def test_basis_size_cap(coarse_grid):
    big = np.ones((65, coarse_grid.n_steps + 1))
    with pytest.raises(DomainError):
        VariationalProblem(lambda x: 0.0, [big], coarse_grid)


def test_hats_form_partition_of_unity(coarse_grid):
    hats = hat_basis(coarse_grid, 9)
    np.testing.assert_allclose(hats.sum(axis=0), 1.0, atol=1e-12)


def test_refinement_monotonicity(coarse_grid):
    # nested hat grids: seeding the finer solve with the coarse optimum keeps
    # the objective from dropping by more than round-off
    dt = coarse_grid.dt
    t = coarse_grid.knots
    target = np.sin(2.0 * np.pi * t)

    def objective(xdot):
        return -0.5 * float(((xdot - target)[:-1] ** 2).sum() * dt)

    values = {}
    coarse_coeffs = None
    for m in (5, 9):
        problem = VariationalProblem(objective, [hat_basis(coarse_grid, m)], coarse_grid)
        init = None
        if coarse_coeffs is not None:
            # the 5 hat nodes are nodes of the 9 hats: the coarse profile's
            # values at the fine nodes are its exact fine coefficients
            nodes = np.linspace(0.0, coarse_grid.t_end, m)
            init = np.interp(nodes, nodes[::2], coarse_coeffs)
        coeffs, value = solve(problem, init=init, budget=4000)
        values[m] = value
        if m == 5:
            coarse_coeffs = coeffs
    assert values[9] >= values[5] - 1e-9
