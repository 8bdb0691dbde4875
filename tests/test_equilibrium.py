"""Equilibrium solvers, pricing and verification."""

import numpy as np
import pytest

import kylepen as kp
from kylepen.equilibrium import psi, solve_demand
from kylepen.metrics import SQRT3

from conftest import (
    random_schedule,
    random_tabulated_penalty,
    reference_break_even,
    reference_expected_price,
    reference_inverse_pieces,
    reference_jump_points,
    reference_one_sided_price,
)


def brute_force_demand(penalty, v, n_x=100_001):
    """Independent argmax oracle: dense grid, ties (within 1e-12) to the
    smaller order."""
    xg = np.linspace(0.0, 1.0, n_x)
    vals = xg * (v - 0.5 * xg) - penalty.value(xg)
    top = vals.max()
    return float(xg[np.nonzero(vals >= top - 1e-12)[0][0]])


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


class RowPenalty(kp.Penalty):
    """A penalty given by its rows directly, for shapes no JSON kind has."""

    kind = "rows"

    def __init__(self, rows):
        self.rows = rows

    def _rows(self):
        return self.rows


def random_concave_rows(rng):
    """Admissible rows on [0, 1] with random cuts, non-decreasing pieces and
    upward jumps at some joints; the first piece, and about half the others,
    has c2 < -1/2, so that x^2/2 + C is concave there."""
    edges = [0.0, *np.sort(rng.uniform(0.0, 1.0, rng.integers(1, 4))).tolist(), 1.0]
    rows, end = [], 0.0
    for k, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        c2 = -rng.uniform(0.5, 3.0) if k == 0 or rng.uniform() < 0.5 else rng.uniform(-0.5, 1.0)
        c1 = rng.uniform(0.0, 1.0) - 2.0 * c2 * (b if c2 < 0.0 else a)  # C' >= 0 on [a, b]
        jump = rng.uniform(0.0, 0.2) if rng.uniform() < 0.5 else 0.0
        c0 = end + jump - a * (c1 + a * c2)  # C(a+) = C(a) + jump
        rows.append((a, b, c0, c1, c2, jump > 0.0))
        end = c0 + b * (c1 + b * c2)
    return rows + [(1.0, np.inf, end, 0.0, 0.0, False)]


def test_exact_solver_on_concave_pieces(rng):
    """Where x^2/2 + C is concave on a piece, only the piece's ends can be
    best; the solved demand earns what a dense grid's best order earns."""
    example = [(0.0, 0.5, 0.0, 1.0, -1.0, False), (0.5, np.inf, 0.25, 0.0, 0.0, False)]  # C = x - x^2, then flat
    xg = np.linspace(0.0, 1.0, 20_001)
    for rows in [example] + [random_concave_rows(rng) for _ in range(300)]:
        pen = RowPenalty(rows)
        assert kp.validate(pen).ok
        X = solve_demand(pen)
        grid = np.union1d(xg, pen.breakpoints())
        vs = np.concatenate((rng.uniform(0.0, 1.0, 16), [1.0]))
        best = np.max(grid * (vs[:, None] - 0.5 * grid) - pen.value(grid), axis=1)
        achieved = psi(pen, X.evaluate(vs), vs)
        assert np.max(best - achieved) < 1e-12, rows


# ----------------------------------------------------------------------
# pricing
# ----------------------------------------------------------------------
def test_identity_price():
    P = kp.PriceFunction(kp.DemandSchedule.identity())
    assert P.evaluate(0.5) == pytest.approx(0.25)
    assert P.evaluate(0.0) == 0.0
    assert P.evaluate(2.5) == 1.0  # saturated outside the flow range


def test_threshold_price_at_jump_flow():
    X = kp.DemandSchedule.step_mimic(np.sqrt(0.4))
    P = kp.PriceFunction(X)
    # at d = 1.05 the left inverse lands on the cutoff, the right end caps at 1
    expected = 0.5 * (np.sqrt(0.4) + 1.0)
    assert P.evaluate(1.05) == pytest.approx(expected)


def test_price_is_odd_and_monotone(rng):
    for _ in range(20):
        X = random_schedule(rng)
        P = kp.PriceFunction(X)
        d = np.linspace(-(1 + X.x_max) - 0.5, (1 + X.x_max) + 0.5, 301)
        vals = P.evaluate(d)
        assert np.allclose(vals, -P.evaluate(-d), atol=1e-14)
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)


def test_expected_price_examples():
    P = kp.PriceFunction(kp.DemandSchedule.step_mimic(np.sqrt(0.4)))
    assert P.expected_price(0.0) == pytest.approx(0.0, abs=1e-14)
    assert P.expected_price(0.5) == pytest.approx(0.25, abs=1e-12)
    Pid = kp.PriceFunction(kp.DemandSchedule.identity())
    assert Pid.expected_price(1.0) == pytest.approx(0.5, abs=1e-12)


def test_expected_price_linear_on_random_schedules(rng):
    # the linear expected-price law holds for every admissible schedule
    for _ in range(30):
        X = random_schedule(rng)
        P = kp.PriceFunction(X)
        xm = X.x_max
        for x in rng.uniform(-xm, xm, 10) if xm > 0 else [0.0]:
            assert abs(P.expected_price(x) - 0.5 * x) < 1e-10


def test_price_jump_where_demand_is_flat():
    # a flat section of X at level c makes P jump at d = c - 1 and c + 1
    c = np.sqrt(0.4)
    P = kp.PriceFunction(kp.DemandSchedule.step_mimic(c))
    jumps = P.jump_points()
    assert any(abs(j - 1.0) < 1e-12 for j in jumps)
    lo = P.evaluate(1.0, "-")
    hi = P.evaluate(1.0, "+")
    assert hi - lo > 0.1


def test_price_limits_jump_by_half_the_inverse_jump(large_schedules):
    # a jump of the inverse at level x (a flat of the demand) moves one of
    # the two terms of the price at each d = +-x +- 1; the other term is
    # saturated there, so the price jumps by half the inverse's jump
    eps = np.finfo(float).eps
    schedules = [solve_demand(kp.ConstantAbovePenalty(0.2, 0.1)), *large_schedules]
    for X in schedules:
        P = kp.PriceFunction(X)
        xlo, xhi, vlo, vhi = reference_inverse_pieces(X)
        levels, sizes = [0.0], [2.0 * vlo[0]]  # the inverse jumps from -vlo[0] to vlo[0] at 0
        for k in range(len(xlo) - 1):
            if vhi[k] < vlo[k + 1]:
                levels.append(xhi[k])
                sizes.append(vlo[k + 1] - vhi[k])
        levels.append(xhi[-1])
        sizes.append(1.0 - vhi[-1])  # past x_max the inverse is 1
        levels, sizes = np.array(levels), np.array(sizes)
        d = P.jump_points()
        k = np.abs(levels[None, :] - np.abs(np.abs(d) - 1.0)[:, None]).argmin(axis=1)
        gap = P.evaluate(d, "+") - P.evaluate(d, "-")
        assert np.all(sizes[k] > 0.0)
        assert np.all(np.abs(gap - 0.5 * sizes[k]) <= 2.0 * eps)
    P = kp.PriceFunction(schedules[0])
    d = P.jump_points()
    assert d.tolist() == [-1.1, -0.9, 0.9, 1.1]
    assert np.allclose(P.evaluate(d, "-"), [-0.8662277660168379, -0.45, 0.1337722339831621, 0.55])
    assert np.allclose(P.evaluate(d, "+"), [-0.55, -0.1337722339831621, 0.45, 0.8662277660168379])

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
        kp.ZeroPenalty(), bad, kp.PriceFunction(bad), {}
    )
    report = kp.verify_equilibrium(sol_bad, seed=3)
    assert not report.optimality


def test_verify_optimality_is_exact_between_grid_points():
    """A quadratic schedule scaled 3e-4 too steep loses (3e-4 v)^2 at v: at
    the one probe of seed 35 (v = 0.4585) that is 1.9e-8, above the 1e-8
    tolerance, yet less than a 2,001-point grid's best order loses, since
    the true argmax falls 2.5e-4 from the nearest grid point."""
    pen = kp.QuadraticPenalty(0.5)  # X = v/2
    X = kp.DemandSchedule.proportional(0.5 + 3e-4)
    sol = kp.EquilibriumSolution(pen, X, kp.PriceFunction(X), {})
    report = kp.verify_equilibrium(sol, probes=1, seed=35, mc_samples=20_000)
    rng = np.random.default_rng(35)
    rng.uniform(-1.0, 1.0, 1)
    v = float(rng.uniform(0.0, 1.0, 1)[0])
    grid = np.linspace(0.0, 1.0, 2001)
    assert np.max(psi(pen, grid, v)) - psi(pen, X.evaluate(v), v) <= 1e-8  # the grid probe passes
    assert not report.optimality
    assert report.details["optimality_gap"] == pytest.approx((3e-4 * v) ** 2, rel=1e-6)


def test_psi_zero_at_zero_order(rng):
    pen = kp.QuadraticPenalty(0.5)
    for v in rng.uniform(-1, 1, 10):
        assert psi(pen, 0.0, v) == 0.0


# ----------------------------------------------------------------------
# pricing on large schedules
# ----------------------------------------------------------------------
def reference_price_rows(P, n):
    """Rows built point by point with scalar evaluate."""
    xm = P.schedule.x_max
    rows = [(d, P.evaluate(d)) for d in np.linspace(-(1.0 + xm) - 0.25, 1.0 + xm + 0.25, n)]
    for d in P.jump_points():
        rows += [(d, P.evaluate(d, "-")), (d, P.evaluate(d, "+"))]
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def test_price_sample_rows_match_scalar_reference(rng, large_schedules):
    schedules = [random_schedule(rng) for _ in range(30)] + list(large_schedules)
    for X in schedules:
        P = kp.PriceFunction(X)
        assert P.sample_rows(1001) == reference_price_rows(P, 1001)


def test_price_limits_and_jumps_match_scalar_reference(rng, large_schedules):
    """Jump levels are bit-identical; a limit is too unless it reads the
    inverse at one of its nodes (d - 1 or d + 1 is one, or d is a jump
    point, which reads its node exactly), where the scalar walk adds the two
    roundings of vlo + 1 * (vhi - vlo) in place of the stored vhi.  At the
    support edges d = +-(1 + x_max) the price saturates on the outer side
    and takes the inverse's value at +-x_max on the inner one, whichever way
    d -+ 1 rounds."""
    schedules = [random_schedule(rng) for _ in range(30)] + list(large_schedules)
    schedules.append(kp.DemandSchedule.zero())
    eps = np.finfo(float).eps
    for X in schedules:
        P = kp.PriceFunction(X)
        jumps = P.jump_points()
        assert np.array_equal(jumps, reference_jump_points(P))
        xm = P.schedule.x_max
        ds = np.concatenate([jumps[:: max(1, len(jumps) // 80)], rng.uniform(-2.5, 2.5, 60)])
        nodes = X.inverse.nodes
        at_node = np.isin(np.abs(ds - 1.0), nodes) | np.isin(np.abs(ds + 1.0), nodes) | np.isin(ds, jumps)
        for side in ("-", "+"):
            new = P.evaluate(ds, side)
            ref = np.array([reference_one_sided_price(P, d, side) for d in ds])
            edge = np.abs(ds) == 1.0 + xm
            assert np.all((new == ref) | (at_node & (np.abs(new - ref) <= 2.0 * eps)) | edge)
        top = X.inverse_left(xm)
        assert P.evaluate([1.0 + xm, -1.0 - xm], "+").tolist() == [1.0, -0.5 * (top + 1.0)]
        assert P.evaluate([1.0 + xm, -1.0 - xm], "-").tolist() == [0.5 * (top + 1.0), -1.0]
        assert P.evaluate([1.0 + xm, -1.0 - xm]).tolist() == [0.5 * (top + 1.0), -0.5 * (top + 1.0)]
        assert P.evaluate([np.inf, -np.inf]).tolist() == [1.0, -1.0]


def test_expected_price_linear_on_large_schedules(rng, large_schedules):
    for X in large_schedules:
        P = kp.PriceFunction(X)
        for x in rng.uniform(-1.0, 1.0, 64):
            assert abs(P.expected_price(x) - 0.5 * x) < 1e-10


def test_expected_price_takes_arrays_and_matches_the_case_list(rng, large_schedules):
    """One antiderivative difference in place of the saturated-tail case
    list: the same value up to rounding, on arrays as on scalars."""
    schedules = [random_schedule(rng) for _ in range(100)] + list(large_schedules)
    schedules += [kp.DemandSchedule.zero(), kp.DemandSchedule.identity()]
    for X in schedules:
        P = kp.PriceFunction(X)
        xs = np.concatenate([rng.uniform(-1.0, 1.0, 40), [-1.0, -0.0, 0.0, 1.0, X.x_max, -X.x_max]])
        new = P.expected_price(xs)
        assert new.shape == xs.shape
        assert [P.expected_price(x) for x in xs.tolist()] == new.tolist()
        ref = np.array([reference_expected_price(P, x) for x in xs.tolist()])
        assert np.max(np.abs(new - ref)) <= 4.0 * np.finfo(float).eps
    with pytest.raises(kp.DomainError):
        P.expected_price(np.array([0.5, 1.5]))


def test_interval_is_the_two_inverse_reads_of_the_price(rng, large_schedules):
    """On every achievable order flow |d| <= 1 + x_max the interval's
    midpoint is the price, and its ends are the left inverse at d - 1 and
    the right inverse at d + 1 taken on [-x_max, x_max], bit for bit.  At
    d = +-(1 + x_max) the inner end is read at +-x_max itself, where d -+ 1
    may round to just inside it."""
    schedules = [random_schedule(rng) for _ in range(30)] + list(large_schedules)
    schedules.append(kp.DemandSchedule.zero())
    for X in schedules:
        P = kp.PriceFunction(X)
        xm = X.x_max
        edges = [1.0 + xm, -1.0 - xm, 0.0, -0.0]
        ds = np.concatenate([rng.uniform(-1.0 - xm, 1.0 + xm, 500), edges, P.jump_points()])
        lo, hi = P.interval(ds)
        assert np.array_equal(0.5 * (lo + hi), P.evaluate(ds))
        ref_lo = X.inverse_left(np.clip(ds - 1.0, -xm, xm))
        ref_hi = X.inverse_right(np.clip(ds + 1.0, -xm, xm))
        ref_lo[ds == 1.0 + xm] = X.inverse_left(xm)
        ref_hi[ds == -1.0 - xm] = X.inverse_right(-xm)
        assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)
        for k, d in enumerate(edges, start=500):
            assert P.interval(d) == (lo[k], hi[k])


def test_break_even_bins_match_the_mask_loop(rng, large_schedules):
    """The one-pass bins give the flag and the largest z of one boolean mask
    per bin bit for bit, with every bin full (200,000 draws) and with some
    under the 200-draw minimum (3,000 draws)."""
    pens = (
        kp.QuadraticPenalty(0.3),
        kp.LinearPenalty(0.2),
        kp.ConstantAbovePenalty(0.2, 0.1),
        kp.SurfaceOptimalPenalty(0.5, 0.75),
        random_tabulated_penalty(rng),
    )
    sols = [kp.solve_equilibrium(p) for p in pens]
    for X in (random_schedule(rng), *large_schedules):
        sols.append(kp.EquilibriumSolution(kp.ZeroPenalty(), X, kp.PriceFunction(X), {}))
    # the price of the zero schedule on the identity's order flow: the
    # market maker does not break even
    X = kp.DemandSchedule.identity()
    wrong = kp.EquilibriumSolution(kp.ZeroPenalty(), X, kp.PriceFunction(kp.DemandSchedule.zero()), {})
    for sol in [*sols, wrong]:
        for seed, n in ((0, 200_000), (7, 3_000)):
            report = kp.verify_equilibrium(sol, seed=seed, mc_samples=n)
            assert (report.break_even, report.details["break_even_max_z"]) == reference_break_even(
                sol, seed=seed, mc_samples=n
            )
        assert report.break_even is (sol is not wrong)
