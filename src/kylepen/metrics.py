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
from .penalties import Penalty
from .schedules import DemandSchedule

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
    # the quadrature is exact.  Scalar arithmetic: segment counts are tiny.
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


def pointwise_net_profit(schedule: DemandSchedule, v: float) -> float:
    """Insider's net profit at fundamental v, the integral of X from 0 to v."""
    return schedule.integral_upto(v)


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


def _estimate(samples: np.ndarray) -> Estimate:
    m = float(samples.mean())
    half = _Z99 * float(samples.std(ddof=1)) / np.sqrt(len(samples))
    return Estimate(m, m - half, m + half)


def monte_carlo_metrics(sol, n: int, seed: int) -> MonteCarloMetrics:
    """Simulation-based (G, S, Pi_N, F) with 99% confidence intervals.

    S uses the fact that the fundamental is uniform on an interval given the
    order flow, so its conditional standard deviation is the interval length
    over 2*sqrt(3); this removes a nested sampling layer.
    """
    if n < 2:
        raise DomainError("Monte Carlo metrics need at least 2 draws")
    rng = np.random.default_rng(seed)
    schedule: DemandSchedule = sol.schedule
    penalty: Penalty = sol.penalty
    price = sol.price
    xm = schedule.x_max

    v = rng.uniform(-1.0, 1.0, n)
    u = rng.uniform(-1.0, 1.0, n)
    x = schedule.evaluate(v)
    d = x + u
    p = price.evaluate(d)

    g_samples = u * (v - p)
    lo = schedule.inverse_left(np.clip(d - 1.0, -xm, xm))
    hi = schedule.inverse_right(np.clip(d + 1.0, -xm, xm))
    s_samples = (hi - lo) / (2.0 * SQRT3)
    f_samples = penalty.value(x)
    pi_samples = x * (v - p) - f_samples

    return MonteCarloMetrics(
        G=_estimate(g_samples),
        S=_estimate(s_samples),
        Pi_N=_estimate(pi_samples),
        F=_estimate(f_samples),
        n=n,
        seed=seed,
    )


# ----------------------------------------------------------------------
# repartition transform of the shading function g(v) = v - X(v)
# ----------------------------------------------------------------------
class RepartitionTransform:
    """phi(z) = Lebesgue measure of {v in [0,1] : v - X(v) >= z}.

    Piecewise linear and non-increasing in z, with downward jumps where the
    shading function is flat on a set of positive measure.
    """

    def __init__(self, segments):
        # segments: list of (length, g0, g1) linear pieces of g over v
        self.segments = [(float(l), float(a), float(b)) for l, a, b in segments]
        zs = {0.0}
        for _, a, b in self.segments:
            if a >= 0.0:
                zs.add(a)
            if b >= 0.0:
                zs.add(b)
        self.z_nodes = np.asarray(sorted(zs))

    def evaluate(self, z):
        shape = np.shape(z)
        z = np.atleast_1d(np.asarray(z, dtype=float))
        out = np.zeros_like(z)
        for length, a, b in self.segments:
            lo, hi = min(a, b), max(a, b)
            if hi == lo:
                out += np.where(lo >= z, length, 0.0)
            else:
                frac = np.clip((hi - z) / (hi - lo), 0.0, 1.0)
                out += length * frac
        return float(out[0]) if shape == () else out.reshape(shape)

    def __call__(self, z):
        return self.evaluate(z)

    def _interval_linear(self, z0, z1):
        # phi is linear on the open interval (z0, z1); recover slope/intercept
        # from two interior samples
        za = z0 + (z1 - z0) / 3.0
        zb = z0 + 2.0 * (z1 - z0) / 3.0
        fa = self.evaluate(za)
        fb = self.evaluate(zb)
        c1 = (fb - fa) / (zb - za)
        c0 = fa - c1 * za
        return c0, c1

    def integral(self) -> float:
        """Exact integral of phi over [0, max z]."""
        total = 0.0
        for z0, z1 in zip(self.z_nodes[:-1], self.z_nodes[1:]):
            c0, c1 = self._interval_linear(z0, z1)
            total += c0 * (z1 - z0) + 0.5 * c1 * (z1 * z1 - z0 * z0)
        return total

    def first_moment(self) -> float:
        """Exact integral of y * phi(y) over [0, max z]."""
        total = 0.0
        for z0, z1 in zip(self.z_nodes[:-1], self.z_nodes[1:]):
            c0, c1 = self._interval_linear(z0, z1)
            total += 0.5 * c0 * (z1**2 - z0**2) + c1 * (z1**3 - z0**3) / 3.0
        return total


def repartition_transform(schedule: DemandSchedule) -> RepartitionTransform:
    v0, v1, a, b = schedule.segment_arrays()
    segs = [(q - p, p - xa, q - xb) for p, q, xa, xb in zip(v0, v1, a, b)]
    return RepartitionTransform(segs)


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
