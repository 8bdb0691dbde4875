"""Efficient frontiers, the fine-bearing surface and Pareto filtering."""

import numpy as np
import pytest

import kylepen as kp
from kylepen.errors import DomainError, InfeasibleError
from kylepen.frontier import (
    MAX_EXPECTED_FINE,
    efficient_generators,
    in_generator_region,
    surface_schedule,
    surface_values,
)
from kylepen.metrics import SQRT3
from kylepen.schedules import EDGE_TOL

from conftest import random_tabulated_penalty


# ----------------------------------------------------------------------
# unconstrained frontier
# ----------------------------------------------------------------------
def test_frontier_endpoints():
    p0 = kp.frontier_point(0.0)
    assert p0.G == pytest.approx(-1.0 / 6.0, abs=1e-15)
    assert p0.S == pytest.approx(2.0 / (3.0 * SQRT3), abs=1e-15)
    p1 = kp.frontier_point(0.5)
    assert p1.G == pytest.approx(0.0, abs=1e-15)
    assert p1.S == pytest.approx(1.0 / SQRT3, abs=1e-15)


def test_frontier_matches_metrics():
    p = kp.frontier_point(0.2)
    m = kp.compute_metrics(kp.DemandSchedule.step_mimic(np.sqrt(0.4)))
    assert p.G == pytest.approx(m.G, abs=1e-14)
    assert p.S == pytest.approx(m.S, abs=1e-14)


def test_frontier_domain_error():
    with pytest.raises(DomainError):
        kp.frontier_point(0.6)


def test_gmin_values():
    assert kp.gmin_nonpecuniary(0.5) == pytest.approx(0.0)
    assert kp.gmin_nonpecuniary(0.0) == pytest.approx(1.0 / 6.0)
    assert kp.gmin_nonpecuniary(0.08) == pytest.approx((1.0 / 6.0) * (1.0 - 0.16**1.5))


def test_gmin_attained_by_banded_schedules():
    m = kp.compute_metrics(kp.x_alpha_schedule(0.08, 0.3))
    assert m.abs_G == pytest.approx(kp.gmin_nonpecuniary(0.08), abs=1e-14)


# ----------------------------------------------------------------------
# banded schedules
# ----------------------------------------------------------------------
def test_x_alpha_zero_is_threshold():
    a = kp.x_alpha_schedule(0.2, 0.0)
    b = kp.DemandSchedule.step_mimic(np.sqrt(0.4))
    vs = np.linspace(-1, 1, 301)
    assert np.allclose(a.evaluate(vs), b.evaluate(vs))


def test_x_alpha_same_losses_different_uncertainty():
    m1 = kp.compute_metrics(kp.x_alpha_schedule(0.2, 0.1))
    m2 = kp.compute_metrics(kp.x_alpha_schedule(0.2, 0.3))
    assert m1.abs_G == pytest.approx(m2.abs_G, abs=1e-14)
    assert abs(m1.S - m2.S) > 1e-3


def test_x_alpha_range_check():
    with pytest.raises(DomainError):
        kp.x_alpha_schedule(0.2, 0.5)  # above 1 - sqrt(0.4)


# ----------------------------------------------------------------------
# surface
# ----------------------------------------------------------------------
def test_surface_corner_and_anchors():
    corner = kp.surface_point(1.0, 1.0)
    assert corner.G == pytest.approx(0.0)
    assert corner.S == pytest.approx(1.0 / SQRT3)
    assert corner.F == pytest.approx(0.0)
    assert kp.surface_point(0.5, 1.0).F == pytest.approx(1.0 / 12.0)
    mid = kp.surface_point(2.0 / 3.0, 2.0 / 3.0)
    assert mid.F == pytest.approx(2.0 / 27.0)


def test_surface_membership():
    assert in_generator_region(0.5, 0.75)
    assert not in_generator_region(0.2, 0.75)  # below v2/(1+v2)
    with pytest.raises(DomainError):
        kp.surface_point(0.2, 0.75)


def test_surface_point_matches_metrics_spot():
    for v1, v2 in ((0.5, 0.75), (0.6, 0.8), (1.0, 1.0), (0.5, 1.0)):
        sp = kp.surface_point(v1, v2)
        m = kp.compute_metrics(surface_schedule(v1, v2))
        assert sp.G == pytest.approx(m.G, abs=1e-14)
        assert sp.S == pytest.approx(m.S, abs=1e-14)
        assert sp.F == pytest.approx(m.F, abs=1e-14)


def test_surface_penalty_solves_to_surface_schedule():
    sol = kp.solve_equilibrium(kp.SurfaceOptimalPenalty(0.5, 0.75))
    vs = np.linspace(-1, 1, 301)
    assert np.allclose(
        sol.schedule.evaluate(vs), surface_schedule(0.5, 0.75).evaluate(vs)
    )


def test_max_fine_closed_form_and_grid():
    K, F = kp.max_fine_over_optimal_class()
    assert K == pytest.approx(2.0 / 9.0)
    assert F == pytest.approx(2.0 / 27.0)
    ks = np.arange(0.0, 0.5 + 1e-9, 1e-6)
    fs = ks * (1.0 - np.sqrt(2.0 * ks))
    i = np.argmax(fs)
    assert abs(ks[i] - K) < 1e-5
    assert abs(fs[i] - F) < 1e-5


# ----------------------------------------------------------------------
# constrained frontiers
# ----------------------------------------------------------------------
def test_fmin_zero_recovers_line():
    pts = kp.fmin_efficient_frontier(0.0, grid=200)
    spacing = 1.0 / 199
    for g, s, v1, v2, f in pts:
        assert abs(s - (1.0 / SQRT3) * (1.0 + 2.0 * g)) < 5e-3
        assert abs(v1 - v2) < 3 * spacing


def test_fmin_output_is_non_dominated():
    pts = kp.fmin_efficient_frontier(0.05, grid=120)
    for i, (g1, s1, *_rest) in enumerate(pts):
        for j, (g2, s2, *_rest2) in enumerate(pts):
            if i == j:
                continue
            dominated = g2 >= g1 and s2 <= s1 and (g2 > g1 or s2 < s1)
            assert not dominated


def reference_frontier(f_min, grid):
    """Pareto filter as a loop: keep a point whose S beats the last kept S."""
    v1, v2, g, s, f = kp.sample_surface(grid)
    keep = f >= f_min - 1e-15
    v1, v2, g, s, f = (a[keep] for a in (v1, v2, g, s, f))
    out = []
    best_s = np.inf
    for i in np.lexsort((s, -g)):
        if s[i] < best_s - 1e-15:
            out.append((float(g[i]), float(s[i]), float(v1[i]), float(v2[i]), float(f[i])))
            best_s = s[i]
    return out


@pytest.mark.parametrize("grid", [37, 400])
@pytest.mark.parametrize("f_min", [0.0, 0.02, 0.05, 0.07])
def test_fmin_matches_loop_reference(f_min, grid):
    # every point the grid filter keeps is feasible for the exact curve, which
    # is never above it
    ref = np.array(reference_frontier(f_min, grid))
    v1, v2 = efficient_generators(-ref[:, 0], f_min)
    assert not np.any(np.isnan(v1))
    assert np.all(surface_values(v1, v2)[1] <= ref[:, 1] + 1e-15)


@pytest.mark.parametrize("f_min", [0.0, 0.02, 0.05, 0.07, 0.076, MAX_EXPECTED_FINE])
def test_fmin_rows_sit_on_the_diagonal_or_the_floor(f_min):
    # the least v2 at a given |G| is where v1 = v2, unless the floor binds there
    g, s, v1, v2, f = np.array(kp.fmin_efficient_frontier(f_min, grid=400)).T
    assert np.all(in_generator_region(v1, v2))
    assert np.all(f >= f_min - 1e-15)
    assert np.all((np.abs(f - f_min) <= 1e-15) | (np.abs(v1 - v2) <= 1e-12))


def test_fmin_infeasible():
    with pytest.raises(InfeasibleError):
        kp.fmin_efficient_frontier(MAX_EXPECTED_FINE + 0.01)


@pytest.mark.parametrize("f_min", [MAX_EXPECTED_FINE, MAX_EXPECTED_FINE + EDGE_TOL / 2])
def test_fmin_boundary_feasible(f_min):
    pts = kp.fmin_efficient_frontier(f_min, grid=201)
    assert len(pts) == 1
    # the feasible set collapses near the generator (1/2, 1)
    g, s, v1, v2, f = pts[0]
    assert abs(v1 - 0.5) < 0.05 and abs(v2 - 1.0) < 0.05


@pytest.mark.parametrize("grid", [37, 400])
@pytest.mark.parametrize("f_min", [0.02, 0.05, 0.07, 0.076])
def test_fmin_frontier_runs_to_its_end(f_min, grid):
    # the last row is the largest |G| any generator reaches under the floor,
    # bisected between the least |G| (feasible) and 1/6 (not)
    pts = kp.fmin_efficient_frontier(f_min, grid=grid)
    assert len(pts) == grid
    lo, hi = -pts[0][0], 1.0 / 6.0
    assert np.isnan(efficient_generators(hi, f_min)[0])
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if np.isnan(efficient_generators(mid, f_min)[0]) else (mid, hi)
    assert abs(-pts[-1][0] - lo) <= 1e-12


def test_fmin_high_floor_leaves_the_line():
    # with a floor above the best fine of the threshold family, no returned
    # generator sits near the diagonal
    pts = kp.fmin_efficient_frontier(0.076, grid=300)
    assert all(v2 - v1 > 0.05 for _, _, v1, v2, _ in pts)


def least_floor_s(abs_g, f_min):
    """Least S of the exact fine-floor frontier at the |G'| <= abs_g, where it
    ends first if it ends before abs_g."""
    rows = kp.fmin_efficient_frontier(f_min, grid=2)
    lo, end = -rows[0][0], -rows[-1][0]  # the least |G| the floor allows, and the frontier's end
    assert lo <= abs_g + 1e-12
    return surface_values(*efficient_generators(min(max(abs_g, lo), end), f_min))[1]


def test_random_penalties_respect_the_frontiers():
    # the paper's optimality theorems: no equilibrium beats the unconstrained
    # frontier or the non-pecuniary budget bound, and each is dominated by a
    # point of the exact frontier under a floor at its own expected fine, the
    # one at its own |G| when the frontier reaches that far
    rng = np.random.default_rng(1)
    gaps = []
    for _ in range(2000):
        pen = random_tabulated_penalty(rng)
        m = kp.compute_metrics(kp.solve_equilibrium(pen).schedule)
        gaps += [
            m.S - (1.0 - 2.0 * m.abs_G) / SQRT3,
            m.abs_G - kp.gmin_nonpecuniary(min(float(pen.value(1.0)), 0.5)),
            m.S - least_floor_s(m.abs_G, max(m.F, 0.0)),
        ]
    assert min(gaps) >= -1e-12


# ----------------------------------------------------------------------
# proportional-schedule boundary
# ----------------------------------------------------------------------
def test_quadratic_boundary_endpoints():
    assert kp.quadratic_upper_boundary(1.0 / SQRT3) == pytest.approx(0.0, abs=1e-14)
    assert kp.quadratic_upper_boundary(2.0 / (3.0 * SQRT3)) == pytest.approx(
        -1.0 / 6.0, abs=1e-14
    )


def test_proportional_schedules_sit_on_boundary():
    for beta in np.arange(0.1, 1.01, 0.1):
        m = kp.compute_metrics(kp.DemandSchedule.proportional(beta))
        assert m.G == pytest.approx(kp.quadratic_upper_boundary(m.S), abs=1e-12)


def test_kinked_schedules_are_strictly_inside():
    kinked = [
        kp.DemandSchedule([0.0, 0.5, 1.0], [0.0, 0.1, 0.8], [0.0, 0.1, 0.8]),
        kp.DemandSchedule([0.0, 0.3, 1.0], [0.0, 0.25, 0.5], [0.0, 0.25, 0.5]),
        kp.DemandSchedule.step_mimic(0.4),
    ]
    for X in kinked:
        m = kp.compute_metrics(X)
        assert m.G > kp.quadratic_upper_boundary(m.S) + 1e-9
