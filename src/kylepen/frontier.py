"""Efficient frontiers and the fine-bearing efficient surface.

The unconstrained frontier is swept by the threshold schedules X_K; adding a
floor on the expected fine moves the problem onto a two-parameter surface
generated by schedules that are flat up to v1, linear up to v2 and mimicking
above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import solve_demand
from .errors import DomainError, InfeasibleError
from .metrics import SQRT3
from .penalties import ConstantAbovePenalty, SurfaceOptimalPenalty, ZeroPenalty
from .schedules import EDGE_TOL, ORDER_TOL, DemandSchedule

MAX_EXPECTED_FINE = 1.0 / 12.0  # global maximum of F over the surface


@dataclass
class FrontierPoint:
    G: float
    S: float
    K: float


@dataclass
class SurfacePoint:
    G: float
    S: float
    F: float
    v1: float
    v2: float


def frontier_point(K: float) -> FrontierPoint:
    """Point of the unconstrained efficient frontier generated by level K."""
    if not 0.0 <= K <= 0.5:
        raise DomainError("K must lie in [0, 1/2]")
    g = -(1.0 / 6.0) * (1.0 - (2.0 * K) ** 1.5)
    s = (1.0 / SQRT3) * (1.0 + 2.0 * g)
    return FrontierPoint(G=g, S=s, K=K)


def gmin_nonpecuniary(K: float) -> float:
    """Smallest attainable |G| when fines of level K may be levied."""
    if not 0.0 <= K <= 0.5:
        raise DomainError("K must lie in [0, 1/2]")
    return (1.0 / 6.0) * (1.0 - (2.0 * K) ** 1.5)


def x_alpha_schedule(K: float, alpha: float) -> DemandSchedule:
    """Mimic up to alpha, stay at alpha through the indifference band, then
    mimic again: the equilibrium of a fine K on trades above alpha.  All these
    schedules share the same |G| but differ in S."""
    if not 0.0 <= K <= 0.5:
        raise DomainError("K must lie in [0, 1/2]")
    if not 0.0 <= alpha <= 1.0 - np.sqrt(2.0 * K) + EDGE_TOL:
        raise DomainError("alpha must lie in [0, 1 - sqrt(2K)]")
    return solve_demand(ConstantAbovePenalty(K, alpha))


# ----------------------------------------------------------------------
# pecuniary surface
# ----------------------------------------------------------------------
def in_generator_region(v1: float, v2: float, tol: float = EDGE_TOL) -> bool:
    """Membership in J = {(v1, v2) : v2/(1+v2) <= v1 <= v2 <= 1}."""
    return (
        0.0 <= v1 <= v2 + tol
        and v2 <= 1.0 + tol
        and v1 + tol >= v2 / (1.0 + v2)
    )


def surface_point(v1: float, v2: float) -> SurfacePoint:
    if not in_generator_region(v1, v2):
        raise DomainError("(v1, v2) outside the generator region")
    g = (1.0 / 6.0) * (v1 * v1 * v2 - 1.0)
    s = (1.0 / SQRT3) * (2.0 / 3.0 + (1.0 / 6.0) * (v1 * v1 * v2 + v1 * v2 * v2))
    f = (v1 * v2 / 6.0) * (3.0 - 2.0 * v1 - v2)
    return SurfacePoint(G=g, S=s, F=f, v1=v1, v2=v2)


def surface_schedule(v1: float, v2: float) -> DemandSchedule:
    """The demand schedule generating the surface point (v1, v2): zero up to
    v1, linear up to (v2, v2), mimicking above."""
    if not in_generator_region(v1, v2):
        raise DomainError("(v1, v2) outside the generator region")
    # the region's corner (0, 0) is the zero penalty's mimicking schedule
    return solve_demand(SurfaceOptimalPenalty(v1, v2) if v2 > 0.0 else ZeroPenalty())


def max_fine_over_optimal_class():
    """Largest expected fine achievable with threshold penalties: the maximum
    of K(1 - sqrt(2K)), attained at K = 2/9 with value 2/27."""
    return 2.0 / 9.0, 2.0 / 27.0


def sample_surface(grid: int = 400):
    """(v1, v2, G, S, F) arrays over a mapped rectangular grid of J."""
    if grid < 2:
        raise DomainError("surface grid needs at least 2 points per side")
    t2 = np.linspace(0.0, 1.0, grid)
    rows_v1, rows_v2 = [], []
    for v2 in t2:
        lo = v2 / (1.0 + v2)
        v1s = np.linspace(lo, v2, grid)
        rows_v1.append(v1s)
        rows_v2.append(np.full(grid, v2))
    v1 = np.concatenate(rows_v1)
    v2 = np.concatenate(rows_v2)
    g = (v1 * v1 * v2 - 1.0) / 6.0
    s = (2.0 / 3.0 + (v1 * v1 * v2 + v1 * v2 * v2) / 6.0) / SQRT3
    f = (v1 * v2 / 6.0) * (3.0 - 2.0 * v1 - v2)
    return v1, v2, g, s, f


def fmin_efficient_frontier(f_min: float, grid: int = 400):
    """Non-dominated (G, S) points of the surface subject to F >= f_min.

    Returns a list of (G, S, v1, v2, F) sorted by decreasing G.  Domination
    means some other feasible point has G' >= G and S' <= S with one strict.
    """
    if not math.isfinite(f_min) or f_min < 0.0:
        raise DomainError("fine floor must be a finite non-negative number")
    if f_min > MAX_EXPECTED_FINE + EDGE_TOL:
        raise InfeasibleError(
            "fine floor exceeds the global maximum expected fine 1/12"
        )
    v1, v2, g, s, f = sample_surface(grid)
    keep = f >= f_min - ORDER_TOL
    if not np.any(keep):
        raise InfeasibleError("no surface point satisfies the fine floor")
    v1, v2, g, s, f = (a[keep] for a in (v1, v2, g, s, f))
    order = np.lexsort((s, -g))  # G descending, S ascending within ties
    # keep a point only if its S is below every S seen before it by more than ORDER_TOL
    s_sorted = s[order]
    best_before = np.concatenate(([np.inf], np.minimum.accumulate(s_sorted)[:-1]))
    kept = order[s_sorted < best_before - ORDER_TOL]
    return list(zip(*(a[kept].tolist() for a in (g, s, v1, v2, f))))


def quadratic_upper_boundary(S: float) -> float:
    """Worst attainable G at residual uncertainty S; reached by proportional
    schedules (the equilibria of quadratic penalties)."""
    lo = 2.0 / (3.0 * SQRT3)
    hi = 1.0 / SQRT3
    if not lo - EDGE_TOL <= S <= hi + EDGE_TOL:
        raise DomainError("S outside [2/(3 sqrt 3), 1/sqrt 3]")
    return SQRT3 * S - 1.0 + 1.5 * (1.0 - SQRT3 * S) ** 2
