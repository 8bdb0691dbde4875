"""Equilibrium solvers, pricing and verification."""

import numpy as np
import pytest

import kylepen as kp
from kylepen.equilibrium import (
    psi,
    solve_demand_analytic,
    solve_demand_numeric,
)

from conftest import random_schedule


def brute_force_demand(penalty, v, n_x=100_001, tie_tol=1e-12):
    """Independent argmax oracle: dense grid, ties to the smaller order."""
    xg = np.linspace(0.0, 1.0, n_x)
    vals = xg * (v - 0.5 * xg) - penalty.value(xg)
    top = vals.max()
    return float(xg[np.nonzero(vals >= top - tie_tol)[0][0]])


# ----------------------------------------------------------------------
# analytic schedules
# ----------------------------------------------------------------------
def test_quadratic_analytic():
    X = solve_demand_analytic(kp.QuadraticPenalty(0.125))
    assert X.x_max == pytest.approx(0.8)
    assert X.evaluate(0.5) == pytest.approx(0.4)


def test_linear_analytic_no_trade_band():
    X = solve_demand_analytic(kp.LinearPenalty(0.3))
    for v in (0.0, 0.1, 0.3):
        assert X.evaluate(v) == 0.0
    assert X.evaluate(0.8) == pytest.approx(0.5)


def test_constant_nonzero_analytic_cutoff():
    X = solve_demand_analytic(kp.ConstantNonzeroPenalty(0.2))
    c = np.sqrt(0.4)
    assert X.evaluate(0.5) == 0.0
    assert X.evaluate(c) == 0.0  # indifference resolved toward no trade
    assert X.evaluate(0.99 * c) == 0.0
    assert X.evaluate(1.01 * c) == pytest.approx(1.01 * c)


def test_constant_above_analytic_matches_brute_force():
    pen = kp.ConstantAbovePenalty(0.2, 0.1)
    X = solve_demand_analytic(pen)
    v_star = 0.1 + np.sqrt(0.4)
    assert X.evaluate(v_star) == pytest.approx(0.1)  # blocked at the threshold
    assert X.evaluate(v_star + 1e-9) == pytest.approx(v_star, abs=1e-6)
    for v in np.linspace(0, 1, 101):
        assert X.evaluate(v) == pytest.approx(brute_force_demand(pen, v), abs=2e-5)


def test_surface_analytic():
    X = solve_demand_analytic(kp.SurfaceOptimalPenalty(0.5, 0.75))
    assert X.evaluate(0.6) == pytest.approx(0.3)
    assert X.evaluate(0.75) == pytest.approx(0.75)


def test_tabulated_has_no_closed_form():
    pen = kp.TabulatedPenalty([[0.0, 0.0, False], [1.0, 0.3, False]])
    assert solve_demand_analytic(pen) is None


# ----------------------------------------------------------------------
# numeric solver
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "penalty",
    [
        kp.ZeroPenalty(),
        kp.ConstantNonzeroPenalty(0.2),
        kp.QuadraticPenalty(0.125),
        kp.LinearPenalty(0.3),
        kp.ConstantAbovePenalty(0.2, 0.1),
        kp.SurfaceOptimalPenalty(0.5, 0.75),
        kp.OptimalCanonicalPenalty(0.2),
    ],
)
def test_numeric_matches_analytic(penalty):
    num = solve_demand_numeric(penalty, n_v=2001, n_x=2001)
    ana = solve_demand_analytic(penalty)
    vs = np.linspace(0, 1, 777)
    assert np.max(np.abs(num.evaluate(vs) - ana.evaluate(vs))) < 1e-6


def test_numeric_tabulated_linear():
    xs = np.linspace(0, 1, 101)
    tab = kp.TabulatedPenalty([[float(x), float(0.3 * x), False] for x in xs])
    num = solve_demand_numeric(tab, n_v=2001, n_x=2001)
    ana = solve_demand_analytic(kp.LinearPenalty(0.3))
    vs = np.linspace(0, 1, 1000)
    assert np.max(np.abs(num.evaluate(vs) - ana.evaluate(vs))) < 1e-4


# ----------------------------------------------------------------------
# pricing
# ----------------------------------------------------------------------
def test_identity_price():
    P = kp.price_function(kp.DemandSchedule.identity())
    assert P.evaluate(0.5) == pytest.approx(0.25)
    assert P.evaluate(0.0) == 0.0
    assert P.evaluate(2.5) == 1.0  # saturated outside the flow range


def test_threshold_price_at_jump_flow():
    X = kp.DemandSchedule.step_mimic(np.sqrt(0.4))
    P = kp.price_function(X)
    # at d = 1.05 the left inverse lands on the cutoff, the right end caps at 1
    expected = 0.5 * (np.sqrt(0.4) + 1.0)
    assert P.evaluate(1.05) == pytest.approx(expected)


def test_price_is_odd_and_monotone(rng):
    for _ in range(20):
        X = random_schedule(rng)
        P = kp.price_function(X)
        d = np.linspace(-(1 + X.x_max) - 0.5, (1 + X.x_max) + 0.5, 301)
        vals = P.evaluate(d)
        assert np.allclose(vals, -P.evaluate(-d), atol=1e-14)
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)


def test_expected_price_examples():
    P = kp.price_function(kp.DemandSchedule.step_mimic(np.sqrt(0.4)))
    assert P.expected_price(0.0) == pytest.approx(0.0, abs=1e-14)
    assert P.expected_price(0.5) == pytest.approx(0.25, abs=1e-12)
    Pid = kp.price_function(kp.DemandSchedule.identity())
    assert Pid.expected_price(1.0) == pytest.approx(0.5, abs=1e-12)


def test_expected_price_linear_on_random_schedules(rng):
    # the linear expected-price law holds for every admissible schedule
    for _ in range(30):
        X = random_schedule(rng)
        P = kp.price_function(X)
        xm = X.x_max
        for x in rng.uniform(-xm, xm, 10) if xm > 0 else [0.0]:
            assert abs(P.expected_price(x) - 0.5 * x) < 1e-10


def test_price_jump_where_demand_is_flat():
    # a flat section of X at level c makes P jump at d = c - 1 and c + 1
    c = np.sqrt(0.4)
    P = kp.price_function(kp.DemandSchedule.step_mimic(c))
    jumps = P.jump_points()
    assert any(abs(j - 1.0) < 1e-12 for j in jumps)
    lo = P.evaluate_limit(1.0, "-")
    hi = P.evaluate_limit(1.0, "+")
    assert hi - lo > 0.1


# ----------------------------------------------------------------------
# orchestration and verification
# ----------------------------------------------------------------------
def test_solve_equilibrium_auto_prefers_analytic():
    sol = kp.solve_equilibrium(kp.QuadraticPenalty(0.125))
    assert sol.meta["method"] == "analytic"


def test_solve_equilibrium_numeric_fallback():
    tab = kp.TabulatedPenalty([[0.0, 0.0, False], [1.0, 0.3, False]])
    sol = kp.solve_equilibrium(tab, n_v=501, n_x=501)
    assert sol.meta["method"] == "numeric"


def test_verify_zero_penalty_passes():
    sol = kp.solve_equilibrium(kp.ZeroPenalty())
    report = kp.verify_equilibrium(sol, seed=3)
    assert report.all_pass


def test_verify_surface_passes():
    sol = kp.solve_equilibrium(kp.SurfaceOptimalPenalty(0.5, 0.75))
    report = kp.verify_equilibrium(sol, seed=3)
    assert report.all_pass


def test_verify_detects_perturbed_schedule():
    # push the demand up on a band; the optimality probe must fail
    bad = kp.DemandSchedule(
        [0.0, 0.4, 0.6, 1.0],
        [0.0, 0.4, 0.7, 1.0],
        [0.0, 0.5, 0.7, 1.0],
    )
    sol_bad = kp.EquilibriumSolution(
        kp.ZeroPenalty(), bad, kp.price_function(bad), {}
    )
    report = kp.verify_equilibrium(sol_bad, seed=3)
    assert not report.optimality


def test_psi_zero_at_zero_order(rng):
    pen = kp.QuadraticPenalty(0.5)
    for v in rng.uniform(-1, 1, 10):
        assert psi(pen, 0.0, v) == 0.0


# ----------------------------------------------------------------------
# pricing on large schedules
# ----------------------------------------------------------------------
def reference_price_rows(P, n):
    """Rows built point by point with scalar evaluate."""
    xm = P.x_max
    rows = [(d, P.evaluate(d)) for d in np.linspace(-(1.0 + xm) - 0.25, 1.0 + xm + 0.25, n)]
    for d in P.jump_points():
        rows += [(d, P.evaluate_limit(d, "-")), (d, P.evaluate_limit(d, "+"))]
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def test_price_sample_rows_match_scalar_reference(rng, large_schedules):
    schedules = [random_schedule(rng) for _ in range(30)] + list(large_schedules)
    for X in schedules:
        P = kp.PriceFunction(X)
        assert P.sample_rows(1001) == reference_price_rows(P, 1001)


def test_expected_price_linear_on_large_schedules(rng, large_schedules):
    for X in large_schedules:
        P = kp.PriceFunction(X)
        for x in rng.uniform(-1.0, 1.0, 64):
            assert abs(P.expected_price(x) - 0.5 * x) < 1e-10
