"""Demand schedules and their generalized inverses."""

import numpy as np
import pytest

import kylepen as kp
from kylepen.errors import DomainError

from conftest import (
    random_schedule,
    reference_integral_upto,
    reference_inverse_integral,
    reference_inverse_limit,
    reference_inverse_pieces,
)

EPS = np.finfo(float).eps


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------
def test_identity_evaluation():
    X = kp.DemandSchedule.identity()
    assert X.evaluate(0.37) == pytest.approx(0.37)
    assert X.evaluate(-0.37) == pytest.approx(-0.37)
    assert X.x_max == 1.0


def test_threshold_schedule_evaluation():
    # flat at zero below the cutoff sqrt(0.4) ~ 0.632, mimicking above
    X = kp.DemandSchedule.step_mimic(np.sqrt(0.4))
    assert X.evaluate(0.5) == 0.0
    assert X.evaluate(np.sqrt(0.4)) == 0.0  # left value at the jump
    assert X.evaluate(0.7) == pytest.approx(0.7)
    assert X.evaluate(-0.7) == pytest.approx(-0.7)


def test_two_kink_schedule_evaluation():
    X = kp.surface_schedule(0.5, 0.75)
    assert X.evaluate(0.6) == pytest.approx(3.0 * (0.6 - 0.5))
    assert X.evaluate(0.4) == 0.0
    assert X.evaluate(0.9) == pytest.approx(0.9)


def test_domain_error():
    with pytest.raises(DomainError):
        kp.DemandSchedule.identity().evaluate(1.5)


def test_monotonicity_enforced_at_construction():
    with pytest.raises(DomainError):
        kp.DemandSchedule([0.0, 0.5, 1.0], [0.0, 0.6, 0.4], [0.0, 0.6, 0.4])


# ----------------------------------------------------------------------
# generalized inverses
# ----------------------------------------------------------------------
def test_identity_inverses():
    X = kp.DemandSchedule.identity()
    assert X.inverse_left(0.4) == pytest.approx(0.4)
    assert X.inverse_right(0.4) == pytest.approx(0.4)


def test_threshold_inverses_at_flat_level():
    X = kp.DemandSchedule.step_mimic(0.5)  # cutoff 0.5, i.e. level K = 0.125
    assert X.inverse_left(0.0) == pytest.approx(-0.5)
    assert X.inverse_right(0.0) == pytest.approx(0.5)
    assert X.inverse_left(0.7) == pytest.approx(0.7)
    assert X.inverse_right(0.7) == pytest.approx(0.7)


def test_inverse_domain_error():
    X = kp.DemandSchedule.proportional(0.8)
    with pytest.raises(DomainError):
        X.inverse_left(0.9)


def test_inverse_duality_on_random_schedules(rng):
    for _ in range(50):
        X = random_schedule(rng)
        xm = X.x_max
        xs = rng.uniform(-xm, xm, 20) if xm > 0 else np.zeros(5)
        assert np.allclose(X.inverse_left(-xs), -X.inverse_right(xs), atol=1e-14)
        assert np.all(X.inverse_left(xs) <= X.inverse_right(xs) + 1e-14)


def test_inverse_matches_bisection_for_strictly_increasing(rng):
    # continuous strictly-increasing schedule: both inverses equal the
    # bisection inverse to 1e-12
    X = kp.DemandSchedule(
        [0.0, 0.3, 1.0], [0.0, 0.12, 0.9], [0.0, 0.12, 0.9]
    )

    def bisect(x):
        lo, hi = -1.0, 1.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if X.evaluate(mid) < x:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    for x in rng.uniform(-0.9, 0.9, 25):
        ref = bisect(x)
        assert X.inverse_left(x) == pytest.approx(ref, abs=1e-12)
        assert X.inverse_right(x) == pytest.approx(ref, abs=1e-12)


def test_inverse_right_at_top_is_one():
    X = kp.DemandSchedule.proportional(0.6)
    assert X.inverse_right(0.6) == pytest.approx(1.0)


def test_zero_schedule_inverses():
    X = kp.DemandSchedule.zero()
    assert X.inverse_left(0.0) == pytest.approx(-1.0)
    assert X.inverse_right(0.0) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# exact integrals
# ----------------------------------------------------------------------
def test_integral_upto():
    X = kp.DemandSchedule.identity()
    assert X.integral_upto(1.0) == pytest.approx(0.5)
    assert X.integral_upto(-1.0) == pytest.approx(0.5)  # even in v
    X = kp.DemandSchedule.step_mimic(np.sqrt(0.4))
    assert X.integral_upto(np.sqrt(0.4)) == 0.0
    assert X.integral_upto(1.0) == pytest.approx(0.3)


def test_inverse_integral_is_even_antiderivative(rng):
    X = random_schedule(rng)
    xm = X.x_max
    if xm == 0:
        return
    # numerical cross-check of the inverse integral on a random window
    p, q = np.sort(rng.uniform(-xm, xm, 2))
    grid = np.linspace(p, q, 20001)
    vals = 0.5 * (X.inverse_left(grid) + X.inverse_right(grid))
    approx = np.trapezoid(vals, grid)
    assert reference_inverse_integral(X, p, q) == pytest.approx(approx, abs=5e-4)


# ----------------------------------------------------------------------
# emission
# ----------------------------------------------------------------------
def test_sample_rows_duplicate_jumps():
    X = kp.DemandSchedule.step_mimic(0.5)
    rows = X.sample_rows(101)
    at_jump = [r for r in rows if r[0] == 0.5]
    ys = sorted(y for _, y in at_jump)
    assert ys[0] == pytest.approx(0.0)
    assert ys[-1] == pytest.approx(0.5)
    vs = [r[0] for r in rows]
    assert vs == sorted(vs)


# ----------------------------------------------------------------------
# array paths against per-point reference loops
# ----------------------------------------------------------------------
def reference_sample_rows(X, n):
    """Rows built point by point with scalar evaluate."""
    rows = [(v, X.evaluate(v)) for v in np.linspace(-1.0, 1.0, n)]
    for k in range(len(X.nodes)):
        if X.right[k] > X.left[k]:
            v = X.nodes[k]
            if v > 0.0 or X.right[0] > 0.0:
                rows += [(v, float(X.left[k])), (v, float(X.right[k]))]
            if v > 0.0:
                rows += [(-v, -float(X.left[k])), (-v, -float(X.right[k]))]
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def piece_walk_inverse_integral(X, p, q):
    """Integral of the inverse, walking every inverse piece."""
    if q < p:
        return -piece_walk_inverse_integral(X, q, p)

    def anti(t):
        total = 0.0
        for a, b, va, vb in zip(*X.inverse.segment_arrays()):
            if t <= a:
                break
            u = min(t, b)
            frac = (u - a) / (b - a) if b > a else 0.0
            vu = va + frac * (vb - va)
            total += (u - a) * 0.5 * (va + vu)
        return total

    return anti(abs(q)) - anti(abs(p))


def _integral_limits(X, rng):
    """Random limits plus the piece ends, 0 and +-x_max, as (p, q) pairs."""
    xm = X.x_max
    ends = np.concatenate([X.inverse.segment_arrays()[0], [0.0, xm]])
    ends = ends[:: max(1, len(ends) // 40)]
    pts = np.concatenate([rng.uniform(-xm, xm, 60), ends, -ends])
    return list(zip(pts, rng.permutation(pts)))


def test_sample_rows_match_scalar_reference(rng, large_schedules):
    schedules = [random_schedule(rng) for _ in range(30)] + list(large_schedules)
    for X in schedules:
        assert X.sample_rows(1001) == reference_sample_rows(X, 1001)


def test_inverse_integral_matches_piece_walk(rng, large_schedules):
    schedules = [random_schedule(rng) for _ in range(30)] + list(large_schedules)
    for X in schedules:
        for p, q in _integral_limits(X, rng):
            assert reference_inverse_integral(X, p, q) == piece_walk_inverse_integral(X, p, q)


def test_inverse_pieces_match_node_loop(rng, large_schedules):
    schedules = [random_schedule(rng) for _ in range(30)] + list(large_schedules)
    schedules += [kp.DemandSchedule.zero(), kp.DemandSchedule.step_mimic(0.5)]
    for X in schedules:
        for new, ref in zip(X.inverse.segment_arrays(), reference_inverse_pieces(X)):
            assert np.array_equal(new, ref)


def test_inverse_limit_matches_scalar_reference(rng, large_schedules):
    """Same arithmetic off the inverse's nodes.  At a node the scalar walk
    interpolates to the end of a piece, vlo + 1 * (vhi - vlo), where the map
    reads vhi: two roundings of numbers in [0, 1] apart."""
    schedules = [random_schedule(rng) for _ in range(30)] + list(large_schedules)
    for X in schedules:
        xm = X.x_max
        nodes = X.inverse.nodes[:: max(1, len(X.inverse.nodes) // 50)]
        xs = np.concatenate([rng.uniform(-xm, xm, 60), nodes, -nodes, [0.0, -0.0]])
        at_node = np.isin(np.abs(xs), X.inverse.nodes)
        for side in ("-", "+"):
            outward = xs == (xm if side == "+" else -xm)
            new = X.inverse_limit(xs, side)
            ref = np.array([reference_inverse_limit(X, x, side) for x in xs])
            same = (new == ref) | (at_node & (np.abs(new - ref) <= 2.0 * EPS))
            assert np.all(same | outward)
            # the outward limit at +-x_max is the constant tail, +-1
            assert np.all(new[outward] == (1.0 if side == "+" else -1.0))
            inverse = X.inverse_left if side == "-" else X.inverse_right
            assert np.array_equal(inverse(xs), new)


def test_integral_upto_matches_segment_walk(rng, large_schedules):
    """The table interpolates as (x - x0) / (x1 - x0) * (b - a), the walk as
    (b - a) * (x - x0) / (x1 - x0): each term may move by a few roundings."""
    schedules = [random_schedule(rng) for _ in range(30)] + list(large_schedules)
    for X in schedules:
        tol = len(X.nodes) * EPS
        nodes = X.nodes[:: max(1, len(X.nodes) // 40)]
        vs = np.concatenate([rng.uniform(-1.0, 1.0, 40), nodes, -nodes])
        for v in vs:
            assert abs(X.integral_upto(v) - reference_integral_upto(X, v)) <= tol
