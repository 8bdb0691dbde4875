"""Fixed-point solver under normal noise (qualitative robustness checks)."""

import numpy as np
import pytest

import kylepen as kp
from kylepen.errors import DomainError
from kylepen.gaussian import (
    GaussianGrid,
    expected_price_gaussian,
    gaussian_best_response,
    gaussian_price_update,
)

SMALL = GaussianGrid(L=5.0, n=201)


def test_grid_validation():
    with pytest.raises(DomainError):
        GaussianGrid(L=5.0, n=200)  # even
    with pytest.raises(DomainError):
        GaussianGrid(L=-1.0, n=201)


@pytest.mark.parametrize("L", [0.5, 38.5, 1e300, 1e-300, float("nan"), float("inf")])
def test_grid_span_outside_one_to_38_sd_rejected(L):
    # below 1 sd the grid drops most of the normal mass; past 38.5 sd the
    # density underflows, and 1e300 overflows the quadratures
    with pytest.raises(DomainError):
        GaussianGrid(L=L, n=11)


def test_grid_span_ends_accepted():
    assert GaussianGrid(L=1.0, n=11).h == pytest.approx(0.2)
    assert GaussianGrid(L=38.0, n=11).h == pytest.approx(7.6)


def test_price_update_no_information():
    P = gaussian_price_update(np.zeros(SMALL.n), SMALL)
    assert np.max(np.abs(P)) < 1e-12


def test_price_update_linear_demand():
    v = SMALL.points
    P = gaussian_price_update(v.copy(), SMALL)
    assert np.max(np.abs(P - v / 2.0)) < 1e-3


def test_price_update_step_demand_flattens_near_zero():
    v = SMALL.points
    X = np.where(np.abs(v) > 1.0, v, 0.0)
    P = gaussian_price_update(X, SMALL)
    assert np.all(np.diff(P) >= -1e-12)
    # small flows carry little information when the schedule kills small
    # orders, so the price there is much flatter than the fully revealing d/2
    slope = np.diff(P) / SMALL.h
    near_zero = np.abs(v[:-1]) < 0.3
    assert slope[near_zero].max() < 0.35


# best responses take the price on the extended quadrature grid, exactly as
# the fixed-point iteration supplies it; a base-grid price would be continued
# flat and distort the incentives of extreme types
LINEAR_P_EXT = SMALL.extended_points / 2.0


def test_best_response_zero_penalty():
    v = SMALL.points
    X = gaussian_best_response(LINEAR_P_EXT, kp.ZeroPenalty(), SMALL)
    interior = np.abs(v) < 4.0
    assert np.max(np.abs(X[interior] - v[interior])) < 1e-5


def test_best_response_quadratic_penalty():
    v = SMALL.points
    alpha = 0.5
    X = gaussian_best_response(LINEAR_P_EXT, kp.QuadraticPenalty(alpha), SMALL)
    interior = np.abs(v) < 4.0
    assert np.max(np.abs(X[interior] - v[interior] / (1.0 + 2.0 * alpha))) < 1e-5


def test_best_response_constant_above_has_flat_band():
    v = SMALL.points
    X = gaussian_best_response(LINEAR_P_EXT, kp.ConstantAbovePenalty(1.0, 0.5), SMALL)
    # blocked at the threshold over a band, then an upward jump
    band = (v > 0.6) & (v < 1.5)
    assert np.allclose(X[band], 0.5, atol=1e-6)
    assert np.max(np.diff(X)) > 0.5


def test_expected_price_linear():
    v = SMALL.points
    phat = expected_price_gaussian(LINEAR_P_EXT, SMALL)
    assert np.max(np.abs(phat - v / 2.0)) < 2e-3


def test_fixed_point_zero_penalty_small_grid():
    sol = kp.gaussian_fixed_point(kp.ZeroPenalty(), grid=SMALL)
    assert sol.converged
    assert np.max(np.abs(sol.X - SMALL.points)) < 5e-3


def test_fixed_point_oddness_and_monotonicity():
    # the coarse grid resolves the jump only to ~1e-3, so relax the stopping
    # tolerance; the fine-grid run lives in the acceptance suite
    sol = kp.gaussian_fixed_point(
        kp.ConstantAbovePenalty(1.0, 0.5), grid=SMALL, tol=2e-3
    )
    assert sol.converged
    assert np.allclose(sol.X, -sol.X[::-1], atol=1e-12)
    assert sol.flags["monotone"]


def test_damping_validation():
    with pytest.raises(DomainError):
        kp.gaussian_fixed_point(kp.ZeroPenalty(), grid=SMALL, damping=0.0)


def test_non_convergence_flag():
    sol = kp.gaussian_fixed_point(
        kp.ConstantAbovePenalty(1.0, 0.5), grid=SMALL, tol=1e-12, max_iter=2
    )
    assert not sol.converged
    assert sol.iterations == 2
