"""Shared helpers for the test suite."""

import numpy as np
import pytest

from kylepen import DemandSchedule


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def large_schedules():
    """Numerically solved schedules with more than 1,000 nodes: a convex
    tabulated penalty (a no-trade band, no jump) and one with a jump."""
    from kylepen import TabulatedPenalty, solve_demand_numeric

    penalties = [
        TabulatedPenalty([[0.0, 0.0, False], [0.25, 0.025, False], [0.5, 0.1, False], [1.0, 0.4, False]]),
        TabulatedPenalty([[0.0, 0.0, False], [0.3, 0.03, True, 0.08], [1.0, 0.15, False]]),
    ]
    schedules = [solve_demand_numeric(p) for p in penalties]
    assert all(len(X.nodes) > 1000 for X in schedules)
    return schedules
