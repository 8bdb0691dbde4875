"""Efficient frontiers and the fine-bearing efficient surface.

The unconstrained frontier is swept by the threshold schedules X_K; adding a
floor on the expected fine moves the problem onto a two-parameter surface
generated by schedules that are flat up to v1, linear up to v2 and mimicking
above; under the floor its efficient curve has a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import solve_demand
from .errors import DomainError, InfeasibleError
from .metrics import SQRT3
from .penalties import ConstantAbovePenalty, SurfaceOptimalPenalty, ZeroPenalty
from .schedules import EDGE_TOL, DemandSchedule

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
    g = -gmin_nonpecuniary(K)
    return FrontierPoint(G=g, S=(1.0 / SQRT3) * (1.0 + 2.0 * g), K=K)


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
def in_generator_region(v1, v2, tol: float = EDGE_TOL):
    """Membership in J = {(v1, v2) : v2/(1+v2) <= v1 <= v2 <= 1}, elementwise."""
    return (0.0 <= v1) & (v1 <= v2 + tol) & (v2 <= 1.0 + tol) & (v1 * (1.0 + v2) + tol >= v2)


def surface_values(v1, v2):
    """(G, S, F) of the surface at generators (v1, v2), elementwise."""
    g = (v1 * v1 * v2 - 1.0) / 6.0
    s = (2.0 / 3.0 + (v1 * v1 * v2 + v1 * v2 * v2) / 6.0) / SQRT3
    f = (v1 * v2 / 6.0) * (3.0 - 2.0 * v1 - v2)
    return g, s, f


def surface_point(v1: float, v2: float) -> SurfacePoint:
    if not in_generator_region(v1, v2):
        raise DomainError("(v1, v2) outside the generator region")
    return SurfacePoint(*surface_values(v1, v2), v1=v1, v2=v2)


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
    v1 = np.concatenate([np.linspace(v2 / (1.0 + v2), v2, grid) for v2 in t2])
    v2 = np.repeat(t2, grid)
    return (v1, v2, *surface_values(v1, v2))


def efficient_generators(abs_g, f_min: float):
    """Generators (v1, v2) of the least S at each |G| on the surface subject
    to F >= f_min; NaN where no generator of that |G| meets the floor.
    With c = v1^2 v2 = 1 - 6|G| fixed, S rises with v2.  v1 <= v2 gives
    v2 >= c^(1/3); with t = sqrt(v2), F >= f_min reads t^3 - 3t + k <= 0 for
    k = 2 sqrt(c) + 6 f_min / sqrt(c), whose root in [0, 1] is
    2 sin(arcsin(k/2) / 3) and which has none when k > 2."""
    root_c = np.sqrt(np.maximum(1.0 - 6.0 * np.asarray(abs_g, dtype=float), 0.0))
    with np.errstate(divide="ignore"):  # at c = 0 no positive floor is met
        k = 2.0 * root_c + (6.0 * f_min / root_c if f_min > 0.0 else 0.0)
    t = np.maximum(np.cbrt(root_c), 2.0 * np.sin(np.arcsin(np.minimum(0.5 * k, 1.0)) / 3.0))
    v1 = np.divide(root_c, t, out=np.zeros_like(t), where=t > 0.0)
    ok = (k <= 2.0 + EDGE_TOL) & in_generator_region(v1, t * t)
    return np.where(ok, v1, np.nan), np.where(ok, t * t, np.nan)


def fmin_efficient_frontier(f_min: float, grid: int = 400):
    """Efficient points of the surface under F >= f_min at ``grid`` values of
    |G| from the least the floor allows to the frontier's end, as (G, S, v1,
    v2, F) by decreasing G and S; a value no generator reaches in floating
    point is left out."""
    if not math.isfinite(f_min) or f_min < 0.0:
        raise DomainError("fine floor must be a finite non-negative number")
    if f_min > MAX_EXPECTED_FINE + EDGE_TOL:
        raise InfeasibleError("fine floor exceeds the global maximum expected fine 1/12")
    if grid < 2:
        raise DomainError("frontier grid needs at least 2 values of |G|")
    f_min = min(f_min, MAX_EXPECTED_FINE)  # a floor past 1/12 by at most EDGE_TOL is 1/12
    # the least |G| is reached at the generator (y, 1), the larger root of y^2 - y + 3 f_min
    y = 0.5 * (1.0 + math.sqrt(max(1.0 - 12.0 * f_min, 0.0)))
    # the largest |G| is on the edge v1 = v2/(1+v2), where F = v2^2 (3 - v2^2) / (6 (1+v2)^2) rises
    # on [0, 1]: bisect v2^4 - 3 v2^2 + 6 f_min (1+v2)^2 for its root there, on the side F >= f_min
    lo, v2 = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + v2)
        lo, v2 = (mid, v2) if mid**4 - 3.0 * mid**2 + 6.0 * f_min * (1.0 + mid) ** 2 > 0.0 else (lo, mid)
    abs_g = np.linspace((1.0 - y * y) / 6.0, (1.0 - v2**3 / (1.0 + v2) ** 2) / 6.0, grid)
    v1, v2 = (a[~np.isnan(a)] for a in efficient_generators(abs_g, f_min))
    g, s, f = surface_values(v1, v2)
    return list(zip(*(a.tolist() for a in (g, s, v1, v2, f))))


def quadratic_upper_boundary(S: float) -> float:
    """Worst attainable G at residual uncertainty S; reached by proportional
    schedules (the equilibria of quadratic penalties)."""
    lo = 2.0 / (3.0 * SQRT3)
    hi = 1.0 / SQRT3
    if not lo - EDGE_TOL <= S <= hi + EDGE_TOL:
        raise DomainError("S outside [2/(3 sqrt 3), 1/sqrt 3]")
    return SQRT3 * S - 1.0 + 1.5 * (1.0 - SQRT3 * S) ** 2
