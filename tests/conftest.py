"""Shared helpers for the test suite."""

import tracemalloc

import numpy as np
import pytest

from kylepen import DemandSchedule, TabulatedPenalty


def random_schedule(rng) -> DemandSchedule:
    """Random odd non-decreasing schedule with flats and jumps."""
    m = int(rng.integers(1, 6))
    nodes = np.unique(np.concatenate([[0.0], np.sort(rng.uniform(0, 1, m)), [1.0]]))
    k = len(nodes)
    vals = np.sort(rng.uniform(0, 1, 2 * k - 1))
    left = np.empty(k)
    right = np.empty(k)
    left[0] = 0.0
    right[0] = vals[0] if rng.random() < 0.5 else 0.0
    j = 1
    for i in range(1, k):
        left[i] = max(vals[j], right[i - 1])
        j += 1
        if i < k - 1 and rng.random() < 0.5:
            right[i] = max(vals[j], left[i])
            j += 1
        else:
            right[i] = left[i]
    right[-1] = left[-1]
    return DemandSchedule(nodes, left, right)


def random_shaded_schedule(rng) -> DemandSchedule:
    """Random schedule staying below the identity, so v - X(v) >= 0."""
    m = int(rng.integers(1, 5))
    nodes = np.unique(np.concatenate([[0.0], np.sort(rng.uniform(0, 1, m)), [1.0]]))
    k = len(nodes)
    left = np.empty(k)
    right = np.empty(k)
    left[0] = right[0] = 0.0
    for i in range(1, k):
        lo = right[i - 1]
        left[i] = rng.uniform(lo, nodes[i])
        if i < k - 1 and rng.random() < 0.4:
            right[i] = rng.uniform(left[i], nodes[i])
        else:
            right[i] = left[i]
    right[-1] = left[-1]
    return DemandSchedule(nodes, left, right)


def random_tabulated_penalty(rng):
    """Random admissible tabulated penalty: 1 to 8 points with slopes that
    rise and fall (convex and concave kinks) and upward jumps, sometimes at
    the origin."""
    m = int(rng.integers(1, 9))
    xs = np.unique(np.concatenate([[0.0], rng.uniform(0.0, 1.0, m - 1)]))
    points, c = [], 0.0
    for i, x in enumerate(xs.tolist()):
        if i:
            c += rng.choice([0.1, 0.5, 2.0]) * rng.uniform(0.0, 1.0) * (x - xs[i - 1])
        if rng.random() < 0.3:
            points.append([x, c, True, c + rng.uniform(0.0, 0.15)])
            c = points[-1][3]
        else:
            points.append([x, c, False])
    return TabulatedPenalty(points)


def reference_formula(pen, x):
    """C(|x|) by the per-kind formulas the penalties used before every kind
    described itself by rows, without any clamp: closed forms continue past
    1, and a table is read in its own units, flat past its last point."""
    x = np.abs(np.asarray(x, dtype=float))
    if pen.kind == "zero":
        return np.zeros_like(x)
    if pen.kind == "constant_nonzero":
        return np.where(x > 0, pen.K, 0.0)
    if pen.kind == "constant_above":
        return np.where(x > pen.x0, pen.K, 0.0)
    if pen.kind == "linear":
        return pen.alpha * x
    if pen.kind == "quadratic":
        return pen.alpha * x * x
    if pen.kind == "optimal_canonical":
        s = pen.cutoff
        return np.where(x <= s, x * (s - 0.5 * x), pen.K)
    if pen.kind == "surface":
        cap = 0.5 * pen.v1 * pen.v2
        inner = pen.v1 * x - (pen.v1 / (2.0 * pen.v2)) * x * x
        return np.where(x <= pen.v2, inner, cap)
    assert pen.kind == "tabulated"
    xs, left, right = pen.xs, pen.left, pen.right
    shape = np.shape(x)
    x = np.atleast_1d(x)
    # segment index: x in (xs[k], xs[k+1]] uses interpolation towards left[k+1]
    k = np.searchsorted(xs, x, side="left")
    out = np.empty_like(x)
    exact = (k < len(xs)) & (xs[np.minimum(k, len(xs) - 1)] == x)
    out[exact] = left[k[exact]]
    mid = ~exact
    km = np.clip(k[mid] - 1, 0, len(xs) - 1)
    beyond = k[mid] >= len(xs)
    x0, r0 = xs[km], right[km]
    x1 = np.where(beyond, 1.0, xs[np.minimum(km + 1, len(xs) - 1)])
    l1 = np.where(beyond, r0, left[np.minimum(km + 1, len(xs) - 1)])
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(x1 > x0, (x[mid] - x0) / np.where(x1 > x0, x1 - x0, 1.0), 0.0)
    out[mid] = r0 + t * (l1 - r0)
    return out.reshape(shape)


def value_extended(pen, x):
    """C(|x|) without the [-1, 1] restriction: the penalty's row table read
    past 1, its last row continued (closed forms keep their formula, a table
    stays flat at C(1))."""
    arr = np.abs(np.asarray(x, dtype=float))
    c0, c1, c2 = pen.coefficients(arr)
    out = c0 + arr * (c1 + arr * c2)
    return float(out) if arr.ndim == 0 else out


def reference_right_limit(pen, x):
    """lim_{t -> x+} C(t) for 0 <= x < 1: the polynomial of the piece (a, b]
    with a <= x < b, read at x."""
    c0, c1, c2 = next(row[2:5] for row in pen.pieces() if row[0] <= x < row[1])
    return c0 + x * (c1 + x * c2)


def reference_inverse_pieces(X):
    """(xlo, xhi, vlo, vhi) of the inverse, built node by node: increasing
    segments of X invert to linear pieces, jumps of X to constant ones."""
    xlo, xhi, vlo, vhi = [], [], [], []
    m = len(X.nodes) - 1
    if X.right[0] > 0.0:  # jump at the origin
        xlo.append(0.0)
        xhi.append(X.right[0])
        vlo.append(0.0)
        vhi.append(0.0)
    for k in range(m):
        a, b = X.right[k], X.left[k + 1]
        if b > a:
            xlo.append(a)
            xhi.append(b)
            vlo.append(X.nodes[k])
            vhi.append(X.nodes[k + 1])
        if k + 1 < m and X.right[k + 1] > X.left[k + 1]:
            xlo.append(X.left[k + 1])
            xhi.append(X.right[k + 1])
            vlo.append(X.nodes[k + 1])
            vhi.append(X.nodes[k + 1])
    return tuple(np.asarray(a) for a in (xlo, xhi, vlo, vhi))


def _reference_inv_pos(X, x, rule):
    """The inverse at x in [0, x_max] by its pieces; a piece end belongs to
    the piece on its ``rule`` side."""
    xlo, xhi, vlo, vhi = reference_inverse_pieces(X)
    if len(xlo) == 0:  # identically-zero schedule
        return 1.0 if rule == "right" else 0.0
    xs = np.append(xlo, xhi[-1])
    i = min(max(int(np.searchsorted(xs, x, side=rule)) - 1, 0), len(xlo) - 1)
    span = xhi[i] - xlo[i]
    t = (x - xlo[i]) / span if span > 0 else 0.0
    return float(vlo[i] + t * (vhi[i] - vlo[i]))


def reference_inverse_limit(X, x, side):
    """One-sided limit of the inverse at a scalar x in [-x_max, x_max]."""
    if x > 0 or (x == 0 and side == "+"):
        return _reference_inv_pos(X, min(x, X.x_max), "left" if side == "-" else "right")
    return -reference_inverse_limit(X, -x, "+" if side == "-" else "-")


def reference_integral_upto(X, v):
    """Integral of X over [0, |v|], walking the segments."""
    t = min(abs(v), 1.0)
    total = 0.0
    for p, q, xa, xb in zip(*X.segment_arrays()):
        if t <= p:
            break
        u = min(t, q)
        xu = xa + (xb - xa) * (u - p) / (q - p)
        total += (u - p) * 0.5 * (xa + xu)
    return total


def reference_one_sided_price(P, d, side):
    """One-sided limit of the price at a scalar d, saturating case by case.
    A jump point d = +-x +- 1 stands for a jump x of the inverse, and there
    the inverse is read at +-x itself, which d -+ 1 would round off."""
    xm = P.schedule.x_max
    if d > 1.0 + xm or (d == 1.0 + xm and side == "+"):
        return 1.0
    if d < -(1.0 + xm) or (d == -(1.0 + xm) and side == "-"):
        return -1.0
    args = (d - 1.0, d + 1.0)
    for x in _reference_jump_levels(P):
        for dj, exact in (
            (x + 1.0, (x, x + 2.0)),
            (x - 1.0, (x - 2.0, x)),
            (-x + 1.0, (-x, 2.0 - x)),
            (-x - 1.0, (-x - 2.0, -x)),
        ):
            if d == dj:
                args = exact
    terms = []
    for y in args:
        if y < -xm or (y == -xm and side == "-"):
            terms.append(-1.0)
        elif y > xm or (y == xm and side == "+"):
            terms.append(1.0)
        else:
            terms.append(reference_inverse_limit(P.schedule, y, side))
    return 0.5 * (terms[0] + terms[1])


def _reference_jump_levels(P):
    """Levels x >= 0 at which the inverse jumps, collected piece by piece."""
    xlo, xhi, vlo, vhi = reference_inverse_pieces(P.schedule)
    levels = set()
    for k in range(len(xlo) - 1):
        if vhi[k] < vlo[k + 1]:
            levels.add(float(xhi[k]))
    if len(xlo):
        if vlo[0] > 0.0:
            levels.add(0.0)  # no-trade band around the origin
        if vhi[-1] < 1.0:
            levels.add(float(xhi[-1]))  # flat at the top of the schedule
    else:
        levels.add(0.0)  # identically-zero schedule
    return sorted(levels)


def reference_jump_points(P):
    """Sorted order-flow levels of the price jumps."""
    levels = _reference_jump_levels(P)
    return sorted({d for x in levels for d in (x + 1.0, x - 1.0, -x + 1.0, -x - 1.0)})


def reference_inverse_integral(X, p, q):
    """Exact integral of the inverse of X over [p, q] within [-x_max, x_max],
    from the inverse's even antiderivative.  The left and right inverses
    agree outside a countable set, so the integral is unambiguous."""
    return X.inverse.integral(q) - X.inverse.integral(p)


def reference_expected_price(P, x):
    """E[P(x + u)] at a scalar x by the saturated-tail case list: the tails
    of P past +-(1 + x_max), then each inverse term clamped at +-x_max."""
    xm = P.schedule.x_max
    X = P.schedule
    a, b = x - 1.0, x + 1.0
    total = 0.0
    hi_cut = 1.0 + xm
    if b > hi_cut:
        total += b - max(a, hi_cut)
        b = hi_cut
    if a < -hi_cut:
        total -= min(b, -hi_cut) - a
        a = -hi_cut
    if b > a:
        ya, yb = a - 1.0, b - 1.0
        if ya < -xm:
            total -= 0.5 * (min(yb, -xm) - ya)
            ya = -xm
        if yb > ya:
            total += 0.5 * reference_inverse_integral(X, ya, yb)
        ya, yb = a + 1.0, b + 1.0
        if yb > xm:
            total += 0.5 * (yb - max(ya, xm))
            yb = xm
        if yb > ya:
            total += 0.5 * reference_inverse_integral(X, ya, yb)
    return 0.5 * total


def reference_break_even(sol, seed=0, probes=32, mc_samples=200_000):
    """(break_even, break_even_max_z) of verify_equilibrium by one boolean
    mask per order-flow bin, on the same draws: the generator first gives
    the 2 * probes draws of the other two checks."""
    rng = np.random.default_rng(seed)
    rng.uniform(-1.0, 1.0, probes)
    rng.uniform(0.0, 1.0, probes)
    v = rng.uniform(-1.0, 1.0, mc_samples)
    u = rng.uniform(-1.0, 1.0, mc_samples)
    d = sol.schedule.evaluate(v) + u
    resid = v - sol.price.evaluate(d)
    edges = np.linspace(d.min(), d.max() + 1e-12, 21)
    which = np.digitize(d, edges) - 1
    ok, worst = True, 0.0
    for k in range(20):
        sel = which == k
        if sel.sum() < 200:
            continue
        m = resid[sel].mean()
        se = resid[sel].std(ddof=1) / np.sqrt(sel.sum())
        z = abs(m) / max(se, 1e-15)
        worst = max(worst, z)
        if z > 4.5:
            ok = False
    return ok, float(worst)


def reference_monte_carlo(sol, n, seed):
    """(G, S, Pi_N, F) Estimates of monte_carlo_metrics with the price and
    the two ends of the posterior interval each read on their own: the
    price by evaluate, the ends by the clipped inverse_left and
    inverse_right."""
    from kylepen.metrics import SQRT3, _estimate

    rng = np.random.default_rng(seed)
    X, xm = sol.schedule, sol.schedule.x_max
    v = rng.uniform(-1.0, 1.0, n)
    u = rng.uniform(-1.0, 1.0, n)
    x = X.evaluate(v)
    d = x + u
    p = sol.price.evaluate(d)
    lo = X.inverse_left(np.clip(d - 1.0, -xm, xm))
    hi = X.inverse_right(np.clip(d + 1.0, -xm, xm))
    f = sol.penalty.value(x)
    samples = (u * (v - p), (hi - lo) / (2.0 * SQRT3), x * (v - p) - f, f)
    return tuple(_estimate(s) for s in samples)


def _reference_normal_pdf(t):
    return np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)


def reference_price_on(d_pts, X_ext, grid):
    """Dense Gaussian price update on every row of the d-grid, for any
    extended demand, and the number of rows filled after the posterior
    underflowed."""
    v_ext = grid.extended_points
    w = grid.trap_weights(v_ext)
    kern = _reference_normal_pdf(d_pts[:, None] - X_ext[None, :]) * (_reference_normal_pdf(v_ext) * w)[None, :]
    denom = kern.sum(axis=1)
    num = kern @ v_ext
    good = denom > 1e-290
    P = np.zeros_like(d_pts)
    P[good] = num[good] / denom[good]
    mid = len(d_pts) // 2
    for i in range(mid + 1, len(d_pts)):
        if not good[i]:
            P[i] = P[i - 1]
    for i in range(mid - 1, -1, -1):
        if not good[i]:
            P[i] = P[i + 1]
    return P, int(np.count_nonzero(~good))


def reference_expected_price_gaussian(P, grid):
    """Phat(x) = E_u[P(x + u)] by interpolating P at every x + u."""
    d = grid.points if len(P) == grid.n else grid.extended_points
    u = grid.points
    wphi = _reference_normal_pdf(u) * grid.trap_weights(u)
    return np.interp(grid.points[:, None] + u[None, :], d, P) @ wphi


def reference_gaussian_objective(P, penalty, grid):
    """x(v - Phat(x)) - C(x) with Phat interpolated from its x-grid values."""
    phat = reference_expected_price_gaussian(P, grid)
    return lambda xq, vq: xq * (vq - np.interp(xq, grid.points, phat)) - value_extended(penalty, xq)


def reference_gaussian_best_response(P, penalty, grid, bracket_tol=1e-9):
    """Gaussian best response on the full v-by-x grid: dense argmax, golden
    refinement, then the smallest |x| among candidates within 1e-9 of the
    best, the library's tie tolerance."""
    objective = reference_gaussian_objective(P, penalty, grid)
    phat = reference_expected_price_gaussian(P, grid)
    v = x = grid.points
    m = x[None, :] * (v[:, None] - phat[None, :]) - value_extended(penalty, x)[None, :]
    i = np.argmax(m, axis=1)
    lo = x[np.maximum(i - 1, 0)]
    hi = x[np.minimum(i + 1, grid.n - 1)]
    for _ in range(64):
        gap = hi - lo
        if gap.max() < bracket_tol:
            break
        x1 = hi - (np.sqrt(5.0) - 1.0) / 2.0 * gap
        x2 = lo + (np.sqrt(5.0) - 1.0) / 2.0 * gap
        better_left = objective(x1, v) >= objective(x2, v)
        hi = np.where(better_left, x2, hi)
        lo = np.where(better_left, lo, x1)
    cands = [0.5 * (lo + hi), np.zeros_like(v)]
    for b in penalty.breakpoints():
        cands += [np.full_like(v, b), np.full_like(v, -b)]
    xc = np.stack(cands)
    vals = np.stack([objective(c, v) for c in cands])
    eligible = vals >= vals.max(axis=0) - 1e-9
    pick = np.argmin(np.where(eligible, np.abs(xc), np.inf), axis=0)
    return xc[pick, np.arange(grid.n)]


def peak_bytes(f):
    """Peak traced allocation of one call of f, after one untraced warm-up call."""
    f()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def large_schedules():
    """Exactly solved schedules with more than 1,000 nodes: tabulated
    penalties with 2,001 and 1,501 points.  The first is concave, so the
    demand jumps over every kink; the second is convex, so the demand is flat
    at every kink, and it jumps at 0.3."""
    from kylepen import solve_demand

    xs = np.linspace(0.0, 1.0, 2001)
    concave = TabulatedPenalty([[x, 0.3 * x - 0.1 * x * x, False] for x in xs.tolist()])
    pts = [[x, 0.2 * x * x + (0.05 if x > 0.3 else 0.0), False] for x in np.linspace(0.0, 1.0, 1501).tolist()]
    assert pts[450][0] == 0.3
    pts[450] = [0.3, 0.018, True, 0.068]
    jump = TabulatedPenalty(pts)
    schedules = [solve_demand(p) for p in (concave, jump)]
    assert all(len(X.nodes) > 1000 for X in schedules)
    assert np.any(schedules[1].right > schedules[1].left)
    return schedules
