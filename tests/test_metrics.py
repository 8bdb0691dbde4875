"""Regulator metrics: closed forms, Monte Carlo and the repartition transform."""

import numpy as np
import pytest

import kylepen as kp
from kylepen.equilibrium import psi
from kylepen.metrics import SQRT3

from conftest import random_shaded_schedule


def reference_phi(X, z):
    """The repartition transform at each z, summed segment by segment."""
    v0, v1, a, b = X.segment_arrays()
    out = np.zeros_like(z)
    for length, g0, g1 in zip(v1 - v0, v0 - a, v1 - b):
        lo, hi = min(g0, g1), max(g0, g1)
        if hi == lo:
            out += np.where(lo >= z, length, 0.0)
        else:
            out += length * np.clip((hi - z) / (hi - lo), 0.0, 1.0)
    return out


# ----------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------
def test_identity_metrics():
    m = kp.compute_metrics(kp.DemandSchedule.identity())
    assert m.abs_G == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert m.S == pytest.approx(2.0 / (3.0 * SQRT3), abs=1e-15)
    assert m.F == pytest.approx(0.0, abs=1e-15)


def test_zero_schedule_metrics():
    m = kp.compute_metrics(kp.DemandSchedule.zero())
    assert m.G == 0.0
    assert m.S == pytest.approx(1.0 / SQRT3, abs=1e-15)
    assert m.Pi_N == 0.0
    assert m.F == 0.0


def test_threshold_metrics():
    m = kp.compute_metrics(kp.DemandSchedule.step_mimic(np.sqrt(0.4)))
    assert m.abs_G == pytest.approx((1.0 / 6.0) * (1.0 - 0.4**1.5), abs=1e-14)


def test_identity_decomposition(rng):
    # |G| = Pi_N + F holds by construction; sanity check across solutions
    for pen in (kp.QuadraticPenalty(0.125), kp.LinearPenalty(0.3), kp.ConstantNonzeroPenalty(0.2)):
        m = kp.compute_metrics(kp.solve_equilibrium(pen).schedule)
        assert m.abs_G == pytest.approx(m.Pi_N + m.F, abs=1e-15)


# ----------------------------------------------------------------------
# pointwise net profit
# ----------------------------------------------------------------------
def test_pointwise_net_profit():
    X = kp.DemandSchedule.identity()
    assert kp.pointwise_net_profit(X, 1.0) == pytest.approx(0.5)
    XK = kp.DemandSchedule.step_mimic(np.sqrt(0.4))
    assert kp.pointwise_net_profit(XK, np.sqrt(0.4)) == 0.0
    assert kp.pointwise_net_profit(XK, 1.0) == pytest.approx(0.3)


def test_envelope_consistency():
    # net profit equals the average of the reduced profit along the schedule
    for pen in (
        kp.QuadraticPenalty(0.125),
        kp.LinearPenalty(0.3),
        kp.ConstantNonzeroPenalty(0.2),
        kp.SurfaceOptimalPenalty(0.5, 0.75),
    ):
        sol = kp.solve_equilibrium(pen)
        m = kp.compute_metrics(sol.schedule)
        grid = np.linspace(-1, 1, 200_001)
        direct = np.trapezoid(psi(pen, sol.schedule.evaluate(grid), grid), grid) / 2.0
        assert m.Pi_N == pytest.approx(direct, abs=1e-8)


# ----------------------------------------------------------------------
# Monte Carlo
# ----------------------------------------------------------------------
def test_monte_carlo_deterministic_given_seed():
    sol = kp.solve_equilibrium(kp.QuadraticPenalty(0.125))
    a = kp.monte_carlo_metrics(sol, n=20_000, seed=11)
    b = kp.monte_carlo_metrics(sol, n=20_000, seed=11)
    assert a.G.value == b.G.value
    assert a.S.ci_lo == b.S.ci_lo


def test_monte_carlo_covers_closed_form():
    for pen in (kp.ZeroPenalty(), kp.ConstantNonzeroPenalty(0.2)):
        sol = kp.solve_equilibrium(pen)
        m = kp.compute_metrics(sol.schedule)
        est = kp.monte_carlo_metrics(sol, n=200_000, seed=5)
        assert est.G.contains(m.G)
        assert est.S.contains(m.S)
        assert est.F.contains(m.F)


def test_monte_carlo_zero_schedule_prior_std():
    sol = kp.solve_equilibrium(kp.ConstantNonzeroPenalty(0.5))  # no trade
    assert sol.schedule.x_max == 0.0
    est = kp.monte_carlo_metrics(sol, n=50_000, seed=1)
    assert est.S.value == pytest.approx(1.0 / SQRT3, abs=1e-12)


# ----------------------------------------------------------------------
# repartition transform
# ----------------------------------------------------------------------
def test_identity_transform_vanishes():
    rt = kp.repartition_transform(kp.DemandSchedule.identity())
    zs = np.linspace(0.01, 1.0, 25)
    assert np.allclose(rt.evaluate(zs), 0.0)


def test_threshold_family_shares_one_transform():
    K = 0.2
    width = np.sqrt(2 * K)
    zs = np.linspace(1e-6, 1.0, 100)
    expected = np.maximum(width - zs, 0.0)
    for alpha in (0.0, 0.1, 0.2, 0.3):
        rt = kp.repartition_transform(kp.x_alpha_schedule(K, alpha))
        assert np.max(np.abs(rt.evaluate(zs) - expected)) < 1e-14


def test_moment_identities_on_random_schedules(rng):
    for _ in range(40):
        X = random_shaded_schedule(rng)
        rt = kp.repartition_transform(X)
        m1, m2 = kp.shading_moments(X)
        assert rt.integral() == pytest.approx(m1, abs=1e-12)
        assert 2.0 * rt.first_moment() == pytest.approx(m2, abs=1e-12)


def test_moment_identities_on_solved_schedules(large_schedules):
    # flat shading g = v - X makes phi jump; a 1-ulp interval between
    # z-nodes (1 - 0.7 next to 0.3 for the linear penalty) must add nothing
    pens = (kp.LinearPenalty(0.3), kp.ConstantAbovePenalty(0.2, 0.1))
    for X in [kp.solve_equilibrium(p).schedule for p in pens] + list(large_schedules):
        rt = kp.repartition_transform(X)
        m1, m2 = kp.shading_moments(X)
        assert rt.integral() == pytest.approx(m1, abs=1e-12)
        assert 2.0 * rt.first_moment() == pytest.approx(m2, abs=1e-12)


def test_transform_matches_segment_sum(rng, large_schedules):
    schedules = [random_shaded_schedule(rng) for _ in range(30)] + list(large_schedules)
    for X in schedules:
        rt = kp.repartition_transform(X)
        nodes = rt.z_nodes[:: max(1, len(rt.z_nodes) // 50)]
        zs = np.concatenate([rng.uniform(0.0, rt.z_nodes[-1] * 1.1, 100), nodes])
        assert np.allclose(rt.evaluate(zs), reference_phi(X, zs), rtol=0.0, atol=1e-13)


def test_slope_bound_on_solved_schedules(rng):
    # difference quotients of v - X(v) never exceed 1, so those of the
    # transform are at most -1 where it is positive
    for pen in (kp.ConstantNonzeroPenalty(0.2), kp.LinearPenalty(0.3)):
        X = kp.solve_equilibrium(pen).schedule
        vs = np.sort(rng.uniform(0, 1, 200))
        g = vs - X.evaluate(vs)
        dq = np.diff(g) / np.diff(vs)
        assert np.all(dq <= 1.0 + 1e-9)
        rt = kp.repartition_transform(X)
        zs = np.linspace(1e-6, X.x_max or 1.0, 50)
        phi = rt.evaluate(zs)
        pos = (phi[:-1] > 1e-12) & (phi[1:] > 1e-12)
        dphi = np.diff(phi) / np.diff(zs)
        assert np.all(dphi[pos] <= -1.0 + 1e-9)
