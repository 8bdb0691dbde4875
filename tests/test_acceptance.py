"""Acceptance gate: one test per numbered criterion, each printing a
single PASS/FAIL line."""

import sys
import time

import numpy as np

import kylepen as kp
from kylepen.frontier import surface_schedule
from kylepen.gaussian import gaussian_best_response, gaussian_price_update
from kylepen.metrics import SQRT3

from conftest import random_schedule


def _finish(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}".rstrip()
    # bypass pytest's capture so the line is visible even for passing tests
    print(line, file=sys.__stdout__)
    assert ok, f"acceptance criterion {num} ({name}) failed {detail}"


def test_acceptance_1_mimicking_benchmark():
    t0 = time.perf_counter()
    sol = kp.solve_equilibrium(kp.ZeroPenalty(), method="analytic")
    vs = np.linspace(-1, 1, 1001)
    ok = bool(np.all(sol.schedule.evaluate(vs) == vs))
    d = np.linspace(-2, 2, 1001)
    ok &= bool(np.max(np.abs(sol.price.evaluate(d) - d / 2.0)) == 0.0)
    num = kp.solve_equilibrium(kp.ZeroPenalty(), method="numeric").schedule
    ok &= bool(np.max(np.abs(num.evaluate(vs) - vs)) < 1e-6)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _finish(1, "mimicking benchmark", ok, f"[{elapsed:.2f}s]")


def test_acceptance_2_expected_price_halving():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        X = random_schedule(rng)
        P = kp.PriceFunction(X)
        xm = X.x_max
        probes = rng.uniform(-xm, xm, 50) if xm > 0 else np.zeros(50)
        for x in probes:
            worst = max(worst, abs(P.expected_price(float(x)) - 0.5 * x))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    _finish(2, "expected price is half the order", ok, f"[max err {worst:.2e}, {elapsed:.1f}s]")


def test_acceptance_3_closed_form_equilibria():
    X = kp.solve_equilibrium(kp.QuadraticPenalty(0.125)).schedule
    ok = X.x_max == 0.8
    Xl = kp.solve_equilibrium(kp.LinearPenalty(0.3)).schedule
    band = np.linspace(-0.3, 0.3, 101)
    ok &= bool(np.all(Xl.evaluate(band) == 0.0))
    ok &= Xl.evaluate(0.3 + 1e-12) > 0.0

    pen = kp.ConstantAbovePenalty(0.2, 0.1)
    Xc = kp.solve_equilibrium(pen).schedule
    xg = np.linspace(0.0, 1.0, 100_001)
    worst = 0.0
    for v in np.linspace(0.0, 1.0, 1000):
        vals = xg * (v - 0.5 * xg) - pen.value(xg)
        best = xg[np.nonzero(vals >= vals.max() - 1e-12)[0][0]]
        worst = max(worst, abs(Xc.evaluate(v) - best))
    ok &= worst < 1e-4
    _finish(3, "closed-form equilibria", ok, f"[argmax err {worst:.2e}]")


def test_acceptance_4_frontier_endpoints_and_identity():
    p0 = kp.frontier_point(0.0)
    p1 = kp.frontier_point(0.5)
    ok = abs(-p0.G - 1.0 / 6.0) < 1e-12 and abs(p0.S - 2.0 / (3.0 * SQRT3)) < 1e-12
    ok &= abs(p1.G) < 1e-12 and abs(p1.S - 1.0 / SQRT3) < 1e-12
    for K in np.linspace(0.0, 0.5, 50):
        p = kp.frontier_point(float(K))
        ok &= abs(p.S - (1.0 / SQRT3) * (1.0 + 2.0 * p.G)) < 1e-12
    _finish(4, "frontier endpoints and line identity", ok)


def test_acceptance_5_monte_carlo_oracle():
    t0 = time.perf_counter()
    ok = True
    for pen in (
        kp.ZeroPenalty(),
        kp.QuadraticPenalty(0.125),
        kp.LinearPenalty(0.3),
        kp.ConstantNonzeroPenalty(0.2),
        kp.SurfaceOptimalPenalty(0.5, 0.75),
    ):
        sol = kp.solve_equilibrium(pen)
        m = kp.compute_metrics(sol.schedule)
        est = kp.monte_carlo_metrics(sol, n=1_000_000, seed=20240817)
        ok &= est.G.contains(m.G) and est.S.contains(m.S) and est.F.contains(m.F)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _finish(5, "Monte Carlo confirms closed forms", ok, f"[{elapsed:.1f}s]")


def test_acceptance_6_same_losses_different_uncertainty():
    K = 0.2
    target = (1.0 / 6.0) * (1.0 - 0.4**1.5)
    width = np.sqrt(2 * K)
    zs = np.linspace(1e-9, 1.0, 200)
    phi_K = np.maximum(width - zs, 0.0)
    ok = True
    svals = []
    for alpha in (0.0, 0.1, 0.2, 0.3):
        X = kp.x_alpha_schedule(K, alpha)
        m = kp.compute_metrics(X)
        ok &= abs(m.abs_G - target) < 1e-12
        svals.append(m.S)
        rt = kp.repartition_transform(X)
        ok &= bool(np.max(np.abs(rt.evaluate(zs) - phi_K)) < 1e-14)
        m1, m2 = kp.shading_moments(X)
        ok &= abs(rt.integral() - m1) < 1e-12
        ok &= abs(2.0 * rt.first_moment() - m2) < 1e-12
    ok &= all(abs(a - b) > 1e-6 for i, a in enumerate(svals) for b in svals[i + 1 :])
    _finish(6, "equal losses, distinct uncertainty, shared transform", ok)


def test_acceptance_7_surface_anchors():
    t0 = time.perf_counter()
    ok = abs(kp.surface_point(0.5, 1.0).F - 1.0 / 12.0) < 1e-14
    K, F = kp.max_fine_over_optimal_class()
    ok &= abs(K - 2.0 / 9.0) < 1e-14 and abs(F - 2.0 / 27.0) < 1e-14
    ks = np.arange(0.0, 0.5 + 1e-9, 1e-6)
    fs = ks * (1.0 - np.sqrt(2.0 * ks))
    i = int(np.argmax(fs))
    ok &= abs(ks[i] - K) < 1e-5 and abs(fs[i] - F) < 1e-5

    # parametric values come from the vectorized sampler; surface_point is
    # spot-checked against it so the whole chain is covered
    v1s, v2s, gs, ss, fs = kp.sample_surface(400)
    rng = np.random.default_rng(3)
    for i in rng.integers(0, len(v1s), 500):
        sp = kp.surface_point(float(v1s[i]), float(v2s[i]))
        ok &= max(abs(sp.G - gs[i]), abs(sp.S - ss[i]), abs(sp.F - fs[i])) < 1e-15
    worst = 0.0
    for v1, v2, g, s, f in zip(v1s, v2s, gs, ss, fs):
        m = kp.compute_metrics(surface_schedule(float(v1), float(v2)))
        worst = max(worst, abs(g - m.G), abs(s - m.S), abs(f - m.F))
    ok &= worst < 1e-12
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 20.0
    _finish(7, "fine-bearing surface anchors", ok, f"[grid err {worst:.1e}, {elapsed:.1f}s]")


def test_acceptance_8_constrained_frontiers():
    grid = 400
    pts = kp.fmin_efficient_frontier(0.07, grid=grid)
    ok = any(abs(v1 - 0.48) < 0.02 and abs(v2 - 0.61) < 0.02 for _, _, v1, v2, _ in pts)

    pts_low = kp.fmin_efficient_frontier(0.05, grid=grid)
    # the part of the threshold-family line whose fine clears the floor must
    # be contained (to grid resolution) in the output
    spacing = 3.0 / grid
    for w in np.linspace(0.05, 0.95, 50):
        if (w * w / 2.0) * (1.0 - w) < 0.05 + 2e-3:
            continue
        g_line = -(1.0 - w**3) / 6.0
        s_line = (1.0 / SQRT3) * (1.0 + 2.0 * g_line)
        near = min(
            max(abs(g - g_line), abs(s - s_line)) for g, s, *_ in pts_low
        )
        ok &= near < spacing

    for sample in (pts, pts_low):
        arr = np.array([(g, s) for g, s, *_ in sample])
        g, s = arr[:, 0], arr[:, 1]
        better_eq = (g[:, None] >= g[None, :]) & (s[:, None] <= s[None, :])
        strict = (g[:, None] > g[None, :]) | (s[:, None] < s[None, :])
        dominated = (better_eq & strict).any(axis=0)
        ok &= not bool(dominated.any())
    _finish(8, "fine-floor frontiers", ok)


def test_acceptance_9_proportional_boundary():
    ok = True
    for beta in np.arange(0.1, 1.01, 0.1):
        m = kp.compute_metrics(kp.DemandSchedule.proportional(float(beta)))
        ok &= abs(m.G - kp.quadratic_upper_boundary(m.S)) < 1e-12
    rng = np.random.default_rng(7)
    for _ in range(10):
        v_mid = float(rng.uniform(0.2, 0.8))
        x_mid = float(rng.uniform(0.05, v_mid - 0.02))
        x_top = float(rng.uniform(x_mid + 0.05, 1.0))
        X = kp.DemandSchedule([0.0, v_mid, 1.0], [0.0, x_mid, x_top], [0.0, x_mid, x_top])
        m = kp.compute_metrics(X)
        ok &= m.G > kp.quadratic_upper_boundary(m.S) + 1e-12
    _finish(9, "proportional schedules trace the upper boundary", ok)


def test_acceptance_10_gaussian_fixed_point():
    t0 = time.perf_counter()
    grid = kp.GaussianGrid(L=5.0, n=801)
    sol0 = kp.gaussian_fixed_point(kp.ZeroPenalty(), grid=grid)
    ok = sol0.converged
    ok &= bool(np.max(np.abs(sol0.X - grid.points)) < 1e-3)

    tol = 1e-5
    pen = kp.ConstantAbovePenalty(1.0, 0.5)
    sol = kp.gaussian_fixed_point(pen, grid=grid, tol=tol)
    v = grid.points
    ok &= bool(np.allclose(sol.X, -sol.X[::-1], atol=1e-12))
    ok &= bool(np.all(np.diff(sol.X) >= -1e-4))
    band = (v > 0.6) & (v < 1.6)
    ok &= bool(np.allclose(sol.X[band], 0.5, atol=1e-3))
    ok &= bool(np.max(np.diff(sol.X)) > 0.5)

    P2 = gaussian_price_update(sol.X, grid, extended=True)
    X2 = gaussian_best_response(P2, pen, grid)
    resid = float(np.max(np.abs(X2 - sol.X)))
    ok &= resid < 2.0 * tol
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _finish(10, "normal-noise fixed point", ok, f"[resid {resid:.1e}, {elapsed:.1f}s]")


def test_acceptance_11_support_round_trip():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(10):
        a = float(rng.uniform(0.5, 3.0))
        b = float(rng.uniform(-3.0, 1.0))
        c = b + float(rng.uniform(0.5, 4.0))
        spec = kp.SupportSpec(a, b, c)
        K = float(rng.uniform(0.02, 0.22)) * (a * spec.sigma)
        den = kp.DenormalizedSolution(
            spec,
            kp.solve_equilibrium(kp.normalize_penalty(kp.ConstantNonzeroPenalty(K), spec)),
        )
        lo_f, hi_f = kp.threshold_cutoffs(K, spec)
        # locate the trade cutoff of the mapped schedule by bisection
        lo, hi = spec.m, c
        for _i in range(80):
            mid = 0.5 * (lo + hi)
            if den.demand(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        ok &= abs(hi - hi_f) < 1e-10
        ok &= abs((spec.m - (hi_f - spec.m)) - lo_f) < 1e-12

    spec = kp.SupportSpec(2.0, -1.0, 3.0)
    for _ in range(20):
        pens = (
            kp.QuadraticPenalty(float(rng.uniform(0.0, 2.0))),
            kp.LinearPenalty(float(rng.uniform(0.0, 1.5))),
        )
        normalized, original = [], []
        for p in pens:
            sol = kp.solve_equilibrium(kp.normalize_penalty(p, spec))
            normalized.append(kp.compute_metrics(sol.schedule))
            original.append(kp.DenormalizedSolution(spec, sol).metrics())
        for attr in ("G", "S", "F"):
            dn = getattr(normalized[0], attr) - getattr(normalized[1], attr)
            do = getattr(original[0], attr) - getattr(original[1], attr)
            ok &= dn * do >= -1e-15
    _finish(11, "support transform round trip", ok)
