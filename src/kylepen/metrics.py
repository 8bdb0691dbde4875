"""Regulator-side quantities of an equilibrium: uninformed losses, residual
uncertainty, insider net profit and expected fine.

All closed forms integrate polynomials piece by piece over the schedule's
representation, so the only error is floating-point arithmetic.  Monte Carlo
estimators are provided as independent cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .schedules import DemandSchedule, OddMap

SQRT3 = np.sqrt(3.0)


@dataclass
class Metrics:
    """(G, S, Pi_N, F) for one demand schedule.

    G is the expected profit of the noise traders (always <= 0), S the
    expected post-trade standard deviation of the fundamental, Pi_N the
    insider's net profit and F the expected fine; |G| = Pi_N + F.
    """

    G: float
    S: float
    Pi_N: float
    F: float

    @property
    def abs_G(self) -> float:
        return -self.G

    def as_dict(self) -> dict:
        return {"G": self.G, "S": self.S, "Pi_N": self.Pi_N, "F": self.F}


def compute_metrics(schedule: DemandSchedule) -> Metrics:
    # one Simpson pass per segment; every integrand is quadratic there, so
    # the quadrature is exact.  Scalar arithmetic summed in segment order
    # (about 1 µs a segment, under 2 ms on a 1,752-node schedule).
    v0s, v1s, as_, bs = schedule.segment_arrays()
    vx = abs_g = pi_n = 0.0
    for v0, v1, a, b in zip(v0s.tolist(), v1s.tolist(), as_.tolist(), bs.tolist()):
        vm = 0.5 * (v0 + v1)
        xm = 0.5 * (a + b)
        w = (v1 - v0) / 6.0
        vx += w * (v0 * a + 4.0 * vm * xm + v1 * b)
        abs_g += w * (
            a * (v0 - 0.5 * a) + 4.0 * xm * (vm - 0.5 * xm) + b * (v1 - 0.5 * b)
        )
        pi_n += w * ((1.0 - v0) * a + 4.0 * (1.0 - vm) * xm + (1.0 - v1) * b)
    s = (1.0 / SQRT3) * (1.0 - vx)
    return Metrics(G=-abs_g, S=s, Pi_N=pi_n, F=abs_g - pi_n)


# ----------------------------------------------------------------------
# Monte Carlo cross-checks
# ----------------------------------------------------------------------
@dataclass
class Estimate:
    value: float
    ci_lo: float
    ci_hi: float

    def contains(self, x: float) -> bool:
        return self.ci_lo <= x <= self.ci_hi


@dataclass
class MonteCarloMetrics:
    G: Estimate
    S: Estimate
    Pi_N: Estimate
    F: Estimate
    n: int
    seed: int


_Z99 = 2.5758293035489004  # two-sided 99% normal quantile
_BLOCK = 1 << 15  # Monte Carlo draws per block; one block's temporaries are 256 kB each


def _estimate(samples: np.ndarray) -> Estimate:
    m = float(samples.mean())
    half = _Z99 * float(samples.std(ddof=1)) / np.sqrt(len(samples))
    return Estimate(m, m - half, m + half)


def monte_carlo_metrics(sol, n: int, seed: int) -> MonteCarloMetrics:
    """Simulation-based (G, S, Pi_N, F) with 99% confidence intervals.

    Given the order flow the fundamental is uniform on the posterior
    interval of ``PriceFunction.interval``: the price is its midpoint and
    the conditional standard deviation behind S its length over 2*sqrt(3),
    so one interval read per draw serves both and no nested sampling layer
    is needed.  v is the first n uniforms of ``default_rng(seed)`` and u the
    next n, evaluated in cache-sized blocks of ``_BLOCK``; only the four
    per-draw samples are kept whole, so a 10^6-draw call peaks at about
    39 MiB and the estimates equal those of evaluating all draws at once.
    """
    if n < 2:
        raise DomainError("Monte Carlo metrics need at least 2 draws")
    g, s, pi, f = np.empty((4, n))
    v_rng = np.random.default_rng(seed)
    u_rng = np.random.default_rng(seed)
    u_rng.bit_generator.advance(n)  # one PCG64 output per uniform double
    for lo in range(0, n, _BLOCK):
        block = slice(lo, min(lo + _BLOCK, n))
        v = v_rng.uniform(-1.0, 1.0, block.stop - lo)
        u = u_rng.uniform(-1.0, 1.0, block.stop - lo)
        x = sol.schedule.evaluate(v)
        low, high = sol.price.interval(x + u)
        v -= 0.5 * (low + high)  # v - P
        np.multiply(u, v, out=g[block])
        np.divide(high - low, 2.0 * SQRT3, out=s[block])
        f[block] = sol.penalty.value(x)
        np.subtract(x * v, f[block], out=pi[block])

    return MonteCarloMetrics(
        G=_estimate(g),
        S=_estimate(s),
        Pi_N=_estimate(pi),
        F=_estimate(f),
        n=n,
        seed=seed,
    )


# ----------------------------------------------------------------------
# repartition transform of the shading function g(v) = v - X(v)
# ----------------------------------------------------------------------
class RepartitionTransform:
    """phi(z) = Lebesgue measure of {v in [0,1] : v - X(v) >= z}, for z >= 0.

    Piecewise linear and non-increasing in z, with downward jumps where the
    shading function is flat on a set of positive measure.  It is held as an
    :class:`OddMap` on its z-nodes (0 and every segment end g >= 0), so
    evaluation and the integral are those of the demand schedule.  Below 0
    it reads phi(0), which is 1 when the schedule shades (X(v) <= v).
    """

    def __init__(self, segments):
        # segments: rows (length, g0, g1), one linear piece of g over v each
        length, g0, g1 = np.asarray(segments, dtype=float).reshape(-1, 3).T
        lo, hi = np.minimum(g0, g1), np.maximum(g0, g1)
        z = np.unique(np.concatenate(([0.0], lo[lo >= 0.0], hi[hi >= 0.0])))
        self.z_nodes = z
        # phi(z) at a node: every segment with lo >= z counts whole ...
        order = np.argsort(lo, kind="stable")
        whole = np.concatenate((np.cumsum(length[order][::-1])[::-1], [0.0]))
        at = whole[np.searchsorted(lo[order], z, side="left")]
        # ... and a sloped one with lo < z < hi by its share above z
        first = np.searchsorted(z, lo, side="right")
        count = np.maximum(np.searchsorted(z, hi, side="left") - first, 0)
        s = np.repeat(np.arange(len(lo)), count)
        i = np.arange(len(s)) - np.repeat(np.cumsum(count) - count, count) + first[s]
        share = length[s] * ((hi[s] - z[i]) / (hi[s] - lo[s]))
        at += np.bincount(i, weights=share, minlength=len(z))
        # phi is left-continuous: just above a node it drops by the flats there
        flat = (lo == hi) & (lo >= 0.0)
        above = at - np.bincount(np.searchsorted(z, lo[flat]), weights=length[flat], minlength=len(z))
        self._phi = OddMap(z, at, above)

    def evaluate(self, z):
        return self._phi.value(np.maximum(z, 0.0))

    def integral(self) -> float:
        """Exact integral of phi over [0, max z]."""
        return self._phi.integral(self.z_nodes[-1])

    def first_moment(self) -> float:
        """Exact integral of y * phi(y) over [0, max z]: phi is linear from
        f0 to f1 on each interval (z0, z1) between nodes."""
        z0, z1, f0, f1 = self._phi.segment_arrays()
        return float(np.sum((z1 - z0) * (f0 * (2.0 * z0 + z1) + f1 * (z0 + 2.0 * z1))) / 6.0)


def repartition_transform(schedule: DemandSchedule) -> RepartitionTransform:
    v0, v1, a, b = schedule.segment_arrays()
    return RepartitionTransform(np.column_stack((v1 - v0, v0 - a, v1 - b)))


def shading_moments(schedule: DemandSchedule):
    """(integral of g, integral of g^2) over [0,1] for g(v) = v - X(v),
    computed directly from the schedule's pieces (independent of phi)."""
    v0, v1, a, b = schedule.segment_arrays()
    g0 = v0 - a
    g1 = v1 - b
    h = v1 - v0
    m1 = float(np.sum(h * 0.5 * (g0 + g1)))
    m2 = float(np.sum(h * (g0 * g0 + g0 * g1 + g1 * g1) / 3.0))
    return m1, m2
