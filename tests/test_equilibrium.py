"""Equilibrium solvers, pricing and verification."""

import numpy as np
import pytest

import kylepen as kp
from kylepen.equilibrium import psi, solve_demand
from kylepen.metrics import SQRT3

from conftest import (
    random_schedule,
    random_tabulated_penalty,
    reference_evaluate_limit,
    reference_jump_points,
)


def brute_force_demand(penalty, v, n_x=100_001, tie_tol=1e-12):
    """Independent argmax oracle: dense grid, ties to the smaller order."""
    xg = np.linspace(0.0, 1.0, n_x)
    vals = xg * (v - 0.5 * xg) - penalty.value(xg)
    top = vals.max()
    return float(xg[np.nonzero(vals >= top - tie_tol)[0][0]])


def closed_form_schedule(penalty):
    """Equilibrium schedules of the closed-form kinds, written out by hand;
    None for tabulated penalties."""
    S = kp.DemandSchedule
    if isinstance(penalty, kp.ZeroPenalty):
        return S.identity()
    if isinstance(penalty, kp.QuadraticPenalty):
        return S.proportional(1.0 / (1.0 + 2.0 * penalty.alpha))
    if isinstance(penalty, kp.LinearPenalty):
        a = penalty.alpha
        if a >= 1.0:
            return S.zero()
        if a == 0.0:
            return S.identity()
        return S([0.0, a, 1.0], [0.0, 0.0, 1.0 - a], [0.0, 0.0, 1.0 - a])
    if isinstance(penalty, (kp.ConstantNonzeroPenalty, kp.OptimalCanonicalPenalty)):
        return S.step_mimic(np.sqrt(2.0 * penalty.K))
    if isinstance(penalty, kp.SurfaceOptimalPenalty):
        v1, v2 = penalty.v1, penalty.v2
        if v1 == 0.0:
            return S.identity()
        if v1 == v2:
            return S.step_mimic(v1)
        if v2 == 1.0:
            return S([0.0, v1, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
        return S([0.0, v1, v2, 1.0], [0.0, 0.0, v2, 1.0], [0.0, 0.0, v2, 1.0])
    if isinstance(penalty, kp.ConstantAbovePenalty):
        K, x0 = penalty.K, penalty.x0
        v_star = x0 + np.sqrt(2.0 * K)
        if x0 >= 1.0:
            return S.identity()
        if x0 == 0.0:
            return S.step_mimic(v_star)
        if v_star >= 1.0:
            return S([0.0, x0, 1.0], [0.0, x0, x0], [0.0, x0, x0])
        return S([0.0, x0, v_star, 1.0], [0.0, x0, x0, 1.0], [0.0, x0, v_star, 1.0])
    return None


def closed_form_gs(penalty):
    """(|G|, S) of the closed-form equilibria, integrated by hand."""
    if isinstance(penalty, kp.QuadraticPenalty):
        beta = 1.0 / (1.0 + 2.0 * penalty.alpha)
        return beta * (1.0 - 0.5 * beta) / 3.0, (1.0 - beta / 3.0) / SQRT3
    if isinstance(penalty, kp.LinearPenalty):
        a = min(penalty.alpha, 1.0)
        abs_g = 0.5 * ((1.0 - a**3) / 3.0 - a * a * (1.0 - a))
        return abs_g, (1.0 - ((1.0 - a**3) / 3.0 - 0.5 * a * (1.0 - a * a))) / SQRT3
    if isinstance(penalty, (kp.ConstantNonzeroPenalty, kp.OptimalCanonicalPenalty)):
        p = kp.frontier_point(penalty.K)
        return -p.G, p.S
    if isinstance(penalty, kp.SurfaceOptimalPenalty):
        p = kp.surface_point(penalty.v1, penalty.v2)
        return -p.G, p.S
    if isinstance(penalty, kp.ConstantAbovePenalty):
        x0 = penalty.x0
        w = min(x0 + np.sqrt(2.0 * penalty.K), 1.0)  # mimic below x0 and above w, x0 between
        abs_g = x0**3 / 6.0 + x0 * (0.5 * (w * w - x0 * x0) - 0.5 * x0 * (w - x0)) + (1.0 - w**3) / 6.0
        vx = x0**3 / 3.0 + 0.5 * x0 * (w * w - x0 * x0) + (1.0 - w**3) / 3.0
        return abs_g, (1.0 - vx) / SQRT3
    raise ValueError(penalty)


def expected_fine(penalty, X):
    """F = integral of C(X(v)) over [0, 1], exact: X is linear on each schedule
    segment and C polynomial on each of its pieces, so two Gauss points per
    sub-interval integrate C(X) exactly without touching a jump."""
    cuts = np.asarray([a for a, *_ in penalty.pieces()][1:])
    g = 0.5 / np.sqrt(3.0)
    total = 0.0
    for v0, v1, xa, xb in zip(*X.segment_arrays()):
        vs = [v0, v1]
        if xb > xa:
            inside = cuts[(cuts > xa) & (cuts < xb)]
            vs += list(v0 + (inside - xa) * (v1 - v0) / (xb - xa))
        vs = np.sort(vs)
        mid, width = 0.5 * (vs[1:] + vs[:-1]), vs[1:] - vs[:-1]
        x = X.evaluate(np.concatenate([mid - g * width, mid + g * width]))
        total += float(np.sum(np.concatenate([width, width]) * 0.5 * penalty.value(x)))
    return total


# ----------------------------------------------------------------------
# closed-form kinds
# ----------------------------------------------------------------------
def test_quadratic_analytic():
    X = solve_demand(kp.QuadraticPenalty(0.125))
    assert X.x_max == pytest.approx(0.8)
    assert X.evaluate(0.5) == pytest.approx(0.4)


def test_linear_analytic_no_trade_band():
    X = solve_demand(kp.LinearPenalty(0.3))
    for v in (0.0, 0.1, 0.3):
        assert X.evaluate(v) == 0.0
    assert X.evaluate(0.8) == pytest.approx(0.5)


def test_constant_nonzero_analytic_cutoff():
    X = solve_demand(kp.ConstantNonzeroPenalty(0.2))
    c = np.sqrt(0.4)
    assert X.evaluate(0.5) == 0.0
    assert X.evaluate(c) == 0.0  # indifference resolved toward no trade
    assert X.evaluate(0.99 * c) == 0.0
    assert X.evaluate(1.01 * c) == pytest.approx(1.01 * c)


def test_constant_above_analytic_matches_brute_force():
    pen = kp.ConstantAbovePenalty(0.2, 0.1)
    X = solve_demand(pen)
    v_star = 0.1 + np.sqrt(0.4)
    assert X.evaluate(v_star) == pytest.approx(0.1)  # blocked at the threshold
    assert X.evaluate(v_star + 1e-9) == pytest.approx(v_star, abs=1e-6)
    for v in np.linspace(0, 1, 101):
        assert X.evaluate(v) == pytest.approx(brute_force_demand(pen, v), abs=2e-5)


def test_surface_analytic():
    X = solve_demand(kp.SurfaceOptimalPenalty(0.5, 0.75))
    assert X.evaluate(0.6) == pytest.approx(0.3)
    assert X.evaluate(0.75) == pytest.approx(0.75)


def test_tabulated_solves_like_its_closed_form_twin():
    # no closed form of its own: the tabulated line is the linear penalty 0.3 x
    pen = kp.TabulatedPenalty([[0.0, 0.0, False], [1.0, 0.3, False]])
    assert closed_form_schedule(pen) is None
    X, twin = solve_demand(pen), closed_form_schedule(kp.LinearPenalty(0.3))
    for a, b in ((X.nodes, twin.nodes), (X.left, twin.left), (X.right, twin.right)):
        assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# exact solver against the closed forms
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
    num = solve_demand(penalty)
    ana = closed_form_schedule(penalty)
    vs = np.linspace(0, 1, 777)
    assert len(num.nodes) == len(ana.nodes)
    assert np.max(np.abs(num.evaluate(vs) - ana.evaluate(vs))) < 1e-15


def test_numeric_tabulated_linear():
    xs = np.linspace(0, 1, 101)
    tab = kp.TabulatedPenalty([[float(x), float(0.3 * x), False] for x in xs])
    num = solve_demand(tab)
    ana = closed_form_schedule(kp.LinearPenalty(0.3))
    vs = np.linspace(0, 1, 1000)
    assert np.max(np.abs(num.evaluate(vs) - ana.evaluate(vs))) < 1e-12


def _closed_form_sweeps():
    """The four penalty families of the figures' locus, plus threshold fines
    above x0 and the surface generators."""
    yield from (kp.QuadraticPenalty(a) for a in np.linspace(0.0, 4.0, 81))
    yield from (kp.LinearPenalty(a) for a in np.linspace(0.0, 1.0, 81))
    yield from (kp.ConstantNonzeroPenalty(k) for k in np.linspace(0.0, 0.5, 81))
    yield from (kp.OptimalCanonicalPenalty(k) for k in np.linspace(0.0, 0.5, 81))
    for K in np.linspace(0.01, 0.5, 20):
        yield from (kp.ConstantAbovePenalty(K, x0) for x0 in np.linspace(0.0, 1.0, 21))
    v1s, v2s, *_ = kp.sample_surface(30)
    yield from (kp.SurfaceOptimalPenalty(v1, v2) for v1, v2 in zip(v1s.tolist(), v2s.tolist()) if v2 > 0.0)


def test_exact_solver_matches_closed_forms_over_sweeps():
    for pen in _closed_form_sweeps():
        X = solve_demand(pen)
        m = kp.compute_metrics(X)
        abs_g, s = closed_form_gs(pen)
        assert abs(m.abs_G - abs_g) < 1e-12 and abs(m.S - s) < 1e-12, pen
        assert len(X.nodes) == len(closed_form_schedule(pen).nodes), pen


def test_exact_solver_on_random_tabulated_penalties(rng):
    xg = np.linspace(0.0, 1.0, 20_001)
    for _ in range(200):
        pen = random_tabulated_penalty(rng)
        assert kp.validate(pen).ok
        X = solve_demand(pen)
        # no order on a dense grid (plus every breakpoint) earns more
        grid = np.union1d(xg, pen.breakpoints())
        vs = rng.uniform(0.0, 1.0, 16)
        best = np.max(grid * (vs[:, None] - 0.5 * grid) - pen.value(grid), axis=1)
        achieved = psi(pen, X.evaluate(vs), vs)
        assert np.max(best - achieved) < 1e-12
        # envelope theorem: the insider's profit at v is the integral of X
        for v, p in zip(vs, achieved):
            assert abs(p - X.integral_upto(v)) < 1e-12
        m = kp.compute_metrics(X)
        assert abs(m.abs_G - (m.Pi_N + expected_fine(pen, X))) < 1e-12
        P = kp.PriceFunction(X)
        for x in rng.uniform(-1.0, 1.0, 8):
            assert abs(P.expected_price(x) - 0.5 * x) < 1e-10


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
def test_solve_equilibrium_every_method_is_exact():
    oracle = closed_form_schedule(kp.QuadraticPenalty(0.125))
    for method in ("auto", "analytic", "numeric"):
        sol = kp.solve_equilibrium(kp.QuadraticPenalty(0.125), method=method)
        assert sol.meta == {"method": "exact"}
        assert np.array_equal(sol.schedule.left, oracle.left)
    with pytest.raises(kp.DomainError):
        kp.solve_equilibrium(kp.QuadraticPenalty(0.125), method="grid")


def test_solve_equilibrium_tabulated_is_exact():
    tab = kp.TabulatedPenalty([[0.0, 0.0, False], [0.5, 0.0, True, 0.1], [1.0, 0.1, False]])
    sol = kp.solve_equilibrium(tab)
    assert sol.meta["method"] == "exact"
    oracle = closed_form_schedule(kp.ConstantAbovePenalty(0.1, 0.5))
    vs = np.linspace(0, 1, 777)
    assert np.max(np.abs(sol.schedule.evaluate(vs) - oracle.evaluate(vs))) < 1e-15


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


def test_price_limits_and_jumps_match_scalar_reference(rng, large_schedules):
    """Jump levels are bit-identical; a limit is too unless d - 1 or d + 1
    is a node of the inverse, where the scalar walk adds the two roundings
    of vlo + 1 * (vhi - vlo) in place of the stored vhi.  At the support
    edges d = +-(1 + x_max) the price saturates on the outer side and takes
    the inverse's value at +-x_max on the inner one, whichever way d -+ 1
    rounds."""
    schedules = [random_schedule(rng) for _ in range(30)] + list(large_schedules)
    schedules.append(kp.DemandSchedule.zero())
    eps = np.finfo(float).eps
    for X in schedules:
        P = kp.PriceFunction(X)
        jumps = P.jump_points()
        assert np.array_equal(jumps, reference_jump_points(P))
        xm = P.x_max
        ds = np.concatenate([jumps[:: max(1, len(jumps) // 80)], rng.uniform(-2.5, 2.5, 60)])
        nodes = X.inverse.nodes
        at_node = np.isin(np.abs(ds - 1.0), nodes) | np.isin(np.abs(ds + 1.0), nodes)
        for side in ("-", "+"):
            new = P.evaluate_limit(ds, side)
            ref = np.array([reference_evaluate_limit(P, d, side) for d in ds])
            edge = np.abs(ds) == 1.0 + xm
            assert np.all((new == ref) | (at_node & (np.abs(new - ref) <= 2.0 * eps)) | edge)
        top = X.inverse_left(xm)
        assert P.evaluate_limit([1.0 + xm, -1.0 - xm], "+").tolist() == [1.0, -0.5 * (top + 1.0)]
        assert P.evaluate_limit([1.0 + xm, -1.0 - xm], "-").tolist() == [0.5 * (top + 1.0), -1.0]
        assert P.evaluate([1.0 + xm, -1.0 - xm]).tolist() == [0.5 * (top + 1.0), -0.5 * (top + 1.0)]
        assert P.evaluate([np.inf, -np.inf]).tolist() == [1.0, -1.0]


def test_expected_price_linear_on_large_schedules(rng, large_schedules):
    for X in large_schedules:
        P = kp.PriceFunction(X)
        for x in rng.uniform(-1.0, 1.0, 64):
            assert abs(P.expected_price(x) - 0.5 * x) < 1e-10
