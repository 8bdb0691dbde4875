"""Shared helpers for the test suite."""

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
