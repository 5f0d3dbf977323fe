import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from hestonis.errors import DomainError
from hestonis.model import (
    EQUITY_PARAMS,
    TimeGrid,
    heston_coefficients,
    psi_deterministic,
    validate,
)


def test_validate_benchmark_params_and_feller_flag(params):
    out = validate(params)
    assert out == params
    assert 2.0 * out.kappa * out.theta >= out.xi**2  # Feller: 0.36 >= 0.04


def test_validate_is_idempotent(params):
    assert validate(validate(params)) == params


@pytest.mark.parametrize(
    "bad",
    [
        dict(rho=1.0),
        dict(rho=-1.0),
        dict(rho=1.5),
        dict(v0=0.0),
        dict(kappa=-2.0),
        dict(theta=0.0),
        dict(xi=0.0),
        dict(s0=0.0),
        dict(t_end=0.0),
    ],
)
def test_validate_rejects_bad_params(params, bad):
    with pytest.raises(DomainError):
        validate(replace(params, **bad))


def test_feller_flag_false_when_violated(params):
    weak = replace(params, xi=1.0)  # 2*kappa*theta = 0.36 < 1: not enforced
    assert validate(weak) == weak


def test_grid_knots(grid):
    assert grid.knots[0] == 0.0
    assert grid.knots[-1] == grid.t_end
    assert grid.dt == pytest.approx(1.0 / 252.0)
    assert np.allclose(np.diff(grid.knots), grid.dt)


def test_grid_rejects_bad_args():
    with pytest.raises(DomainError):
        TimeGrid(0, 1.0)
    with pytest.raises(DomainError):
        TimeGrid(10, -1.0)


def test_psi_closed_form_values(params, grid):
    psi = psi_deterministic(params, grid)
    assert psi[0] == pytest.approx(0.04)
    assert psi[-1] == pytest.approx(0.09 - 0.05 * np.exp(-2.0), abs=1e-12)
    assert psi[-1] == pytest.approx(0.0832332, abs=5e-7)


def test_psi_fixed_point_at_theta(params, grid):
    fixed = replace(params, v0=params.theta)
    assert_allclose(psi_deterministic(fixed, grid), params.theta)


def test_psi_rk4_matches_closed_form(params, grid):
    coeffs = heston_coefficients(params)
    err = np.abs(
        psi_deterministic(params, grid, coeffs) - psi_deterministic(params, grid)
    ).max()
    assert err <= 1e-10


@given(
    kappa=st.floats(0.2, 5.0),
    theta=st.floats(0.01, 0.3),
    v0=st.floats(0.01, 0.3),
)
@settings(max_examples=40, deadline=None)
def test_psi_positive_and_monotone_toward_theta(kappa, theta, v0):
    p = replace(EQUITY_PARAMS, kappa=kappa, theta=theta, v0=v0)
    psi = psi_deterministic(p, TimeGrid(128, 1.0))
    assert np.all(psi > 0.0)
    gaps = np.abs(psi - theta)
    assert np.all(np.diff(gaps) <= 1e-12)
