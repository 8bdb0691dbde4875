"""Equilibrium of the one-period insider game under uniform noise.

The insider's reduced objective is psi(x, v) = x(v - x/2) - C(x), because the
expected execution price of an order x is x/2 for every admissible demand
schedule.  The equilibrium demand is the pointwise argmax of psi, and the
price function follows from the market maker's break-even condition.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .penalties import Penalty, _extremes
from .schedules import EDGE_TOL, ORDER_TOL, DemandSchedule, rows_with_jumps


# ----------------------------------------------------------------------
# insider objective
# ----------------------------------------------------------------------
def psi(penalty: Penalty, x, v):
    """Reduced insider profit x(v - x/2) - C(x)."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return x * (v - 0.5 * x) - penalty.value(x)


# ----------------------------------------------------------------------
# exact demand solver
# ----------------------------------------------------------------------
_ROUNDING = 4.0 * sys.float_info.epsilon  # slopes this close differ by rounding only


class _Arc(NamedTuple):
    """One penalty piece as seen by the insider: h(x) = x^2/2 + C(x) is
    c0 + c1 x + q x^2 on [a, b], so the best order on the piece is a up to
    v = sa = h'(a), (v - c1) / 2q in between and b from v = sb = h'(b) on."""

    a: float
    b: float
    c0: float
    c1: float
    c2: float
    jump: bool
    q: float
    sa: float
    sb: float

    @classmethod
    def of(cls, a, b, c0, c1, c2, jump):
        q = c2 + 0.5
        if q < 0.0:  # h concave: only the ends can win, as on its chord
            c0, c1, c2, q = c0 - q * a * b, c1 + q * (a + b), -0.5, 0.0
        return cls(a, b, c0, c1, c2, jump, q, c1 + 2.0 * q * a, c1 + 2.0 * q * b)

    def C(self, x):
        return self.c0 + self.c1 * x + self.c2 * x * x

    def order(self, v, right=False):
        """Best order at v; at a jump inside the piece (q = 0), the left one
        unless ``right``."""
        if self.q == 0.0:
            return self.b if v > self.c1 or (right and v == self.c1) else self.a
        if v <= self.sa:
            return self.a
        if v >= self.sb:
            return self.b
        return min(max((v - self.c1) / (2.0 * self.q), self.a), self.b)

    def profit(self, v):
        x = self.order(v)
        return x * v - (self.C(x) + 0.5 * x * x)

    def fixed(self, v):
        """The order held constant around v, or None where it moves with v."""
        if self.q == 0.0:
            return self.a if v < self.c1 else self.b
        return self.a if v <= self.sa else self.b if v >= self.sb else None


def _crossing(j: _Arc, k: _Arc, u: float, w: float) -> float:
    """Where phi_k - phi_j, non-decreasing and changing sign on [u, w],
    reaches zero.  Each formula is the root with the positive slope, written
    about the fixed order where there is one so that it keeps full precision."""
    m = 0.5 * (u + w)
    ej, ek = j.fixed(m), k.fixed(m)
    if ej is not None and ek is not None:
        if ek == ej:  # a constant difference changes sign through rounding only
            return u
        t = (k.C(ek) - j.C(ej)) / (ek - ej) + 0.5 * (ek + ej)
    elif ej is not None:
        t = k.c1 + 2.0 * k.q * ej + math.sqrt(max(4.0 * k.q * (k.C(ej) - j.C(ej)), 0.0))
    elif ek is not None:
        t = j.c1 + 2.0 * j.q * ek - math.sqrt(max(4.0 * j.q * (j.C(ek) - k.C(ek)), 0.0))
    else:
        A = 0.25 / k.q - 0.25 / j.q
        B = 0.5 * j.c1 / j.q - 0.5 * k.c1 / k.q
        C = 0.25 * k.c1 * k.c1 / k.q - k.c0 - 0.25 * j.c1 * j.c1 / j.q + j.c0
        D = math.sqrt(max(B * B - 4.0 * A * C, 0.0))
        if B <= 0.0 < A:
            t = (D - B) / (2.0 * A)
        else:
            t = -2.0 * C / (B + D) if B + D > 0.0 else u  # B = D = 0: flat, as above
    return min(max(t, u), w)


def _takeover(j: _Arc, k: _Arc, lo: float, joined: bool):
    """First v in [lo, 1) from which k earns strictly more than j, or None.

    k lies right of j in x, so phi_k - phi_j is non-decreasing in v and k,
    once ahead, stays ahead.  ``joined``: k starts where j ends and C does
    not jump there.  If h's slope does not drop at that joint, the two tie
    on the whole band where both pick the joint, and k leaves it at h_k'(a);
    that end is read off the slopes, since the tie is a double root.
    """
    if joined and k.sa >= j.sb:
        t = k.sa
    else:
        vs = sorted({lo, 1.0, *(s for s in (j.sa, j.sb, k.sa, k.sb) if lo < s < 1.0)})
        i = next((i for i, v in enumerate(vs) if k.profit(v) > j.profit(v)), None)
        if i is None:
            return None
        t = lo if i == 0 else _crossing(j, k, vs[i - 1], vs[i])
    return t if t < 1.0 else None


def _line(arc: _Arc, u: float, w: float):
    """The affine map v -> X(v) that ``arc`` follows on (u, w)."""
    e = arc.fixed(0.5 * (u + w))
    return (e,) if e is not None else (arc.c1, arc.q)


def solve_demand(penalty: Penalty) -> DemandSchedule:
    """Exact equilibrium demand: the pointwise argmax of psi over [0, 1].

    Each penalty piece k yields a best profit phi_k(v) over its own x-range
    in closed form, and X(v) follows the piece whose phi_k is largest, ties
    going to the smaller order.  One stack sweep over the pieces (the
    convex-hull trick) finds where each winner takes over; the schedule's
    nodes are those take-over points plus the winners' own kinks.
    """
    arcs = [_Arc.of(*row) for row in penalty.pieces()]
    for n in range(1, len(arcs)):
        # h' computed from either side of a joint may differ in the last bits;
        # one value keeps the joint free of a flat or a jump only rounding made
        j, k = arcs[n - 1], arcs[n]
        if not k.jump and j.q > 0.0 and math.isclose(j.sb, k.sa, rel_tol=_ROUNDING, abs_tol=_ROUNDING):
            arcs[n - 1] = j._replace(sb=k.sa)
    if arcs[0].jump:  # C jumps at 0: the order x = 0 competes on its own
        arcs.insert(0, _Arc.of(0.0, 0.0, 0.0, 0.0, 0.0, False))
    reign = []  # (arc index, v from which it wins)
    for i, k in enumerate(arcs):
        while reign:
            j, lo = reign[-1]
            t = _takeover(arcs[j], k, lo, j == i - 1 and not k.jump)
            if t is None or t > lo:
                break
            reign.pop()
        else:
            t = 0.0
        if t is not None:
            reign.append((i, t))

    segments = []  # (u, w, arc): on (u, w), X follows one line of one arc
    for n, (i, lo) in enumerate(reign):
        arc = arcs[i]
        hi = reign[n + 1][1] if n + 1 < len(reign) else 1.0
        cuts = [lo, *sorted({s for s in (arc.sa, arc.sb) if lo < s < hi}), hi]
        segments += [(u, w, arc) for u, w in zip(cuts[:-1], cuts[1:])]
    first, last = segments[0][2], segments[-1][2]
    nodes, left, right = [0.0], [0.0], [first.order(0.0, right=True)]
    for (u, v, arc), (_, w, nxt) in zip(segments[:-1], segments[1:]):
        xl, xr = arc.order(v), nxt.order(v, right=True)
        if xl != xr or _line(arc, u, v) != _line(nxt, v, w):
            nodes.append(v)
            left.append(xl)
            right.append(xr)
    nodes.append(1.0)
    left.append(last.order(1.0))
    right.append(left[-1])
    return DemandSchedule(nodes, left, right)


# ----------------------------------------------------------------------
# pricing
# ----------------------------------------------------------------------
class PriceFunction:
    """Break-even price of the aggregate order flow.

    Every order has |X(v)| <= x_max <= 1, so a flow d > 0 never rules out
    v = 1: the fundamentals consistent with d are [X^-1_l(d - 1), 1], and
    their mirror [-1, X^-1_r(d + 1)] for d < 0.  The price is the midpoint;
    past +-(1 + x_max) it saturates at the support edges +-1.
    """

    def __init__(self, schedule: DemandSchedule):
        self.schedule = schedule

    def evaluate(self, d, side=None):
        """The price at d, elementwise; with ``side`` '-' or '+' its one-sided
        limit there (see ``interval``)."""
        lo, hi = self.interval(d, side)
        return 0.5 * (lo + hi)

    def interval(self, d, side=None):
        """(lo, hi) elementwise: the fundamentals consistent with the order
        flow d, whose midpoint is the price; (X^-1_l(d - 1), 1) for d > 0 and
        (-1, X^-1_r(d + 1)) otherwise, from one read of the inverse, which
        stays at +-1 past +-x_max.  With ``side`` '-' or '+' that read is the
        one-sided limit, '+' reads d = 0 as d > 0, and a jump point's is read
        at its exact inverse node.  d -+ 1 rounds, so at d = +-(1 + x_max)
        the argument that meets the edge is set to it."""
        if side not in (None, "-", "+"):
            raise DomainError("side must be '-' or '+'")
        shape = np.shape(d)
        d = np.atleast_1d(np.asarray(d, dtype=float))
        xm = self.schedule.x_max
        pos = d >= 0.0 if side == "+" else d > 0.0
        y = np.where(pos, d - 1.0, d + 1.0)
        y[d == 1.0 + xm] = xm
        y[d == -1.0 - xm] = -xm
        if side is not None:
            jd, j1, j2 = self._jumps
            k = np.searchsorted(jd, d)
            at = k < len(jd)
            at[at] = jd[k[at]] == d[at]
            y[at] = np.where(pos[at], j1[k[at]], j2[k[at]])
        # the left limit reads right values below 0, the right limit at and above
        left = pos if side is None else side == "-"
        end = self.schedule.inverse.value(y, (y < 0.0) == left)
        lo, hi = np.where(pos, end, -1.0), np.where(pos, 1.0, end)
        if shape == ():
            return float(lo[0]), float(hi[0])
        return lo.reshape(shape), hi.reshape(shape)

    @cached_property
    def _jumps(self):
        """(d, y1, y2): the jump points, sorted, and for each the exact
        arguments of the inverse, one of them a jump node +-x of it."""
        inv = self.schedule.inverse
        x = inv.nodes[inv.left < inv.right]
        d = np.concatenate((x + 1.0, x - 1.0, -x + 1.0, -x - 1.0))
        y1 = np.concatenate((x, x - 2.0, -x, -x - 2.0))
        y2 = np.concatenate((x + 2.0, x, 2.0 - x, -x))
        d, first = np.unique(d, return_index=True)
        return d, y1[first], y2[first]

    def jump_points(self):
        """Order-flow levels where the price may jump: d = +-x +- 1 at every
        jump x of the inverse (a flat of the demand, the no-trade band at 0
        included, or a flat at the top)."""
        return self._jumps[0].copy()

    def expected_price(self, x):
        """Average execution price of an order x against uniform noise,
        elementwise: half the integral of P over [x - 1, x + 1], which is the
        inverse's integral over [x - 2, x + 2] over 4.  The inverse stays at
        +-1 past +-x_max, so its even antiderivative saturates the tails;
        exact up to arithmetic."""
        if np.any(np.abs(x) > 1.0 + EDGE_TOL):
            raise DomainError("order outside [-1, 1]")
        x = np.asarray(x, dtype=float)
        A = self.schedule.inverse.integral
        return (A(x + 2.0) - A(x - 2.0)) / 4.0

    def sample_rows(self, n: int = 1001):
        """(d, P(d)) rows on a uniform grid over the full pricing domain,
        with duplicated rows at price jumps."""
        top = 1.0 + self.schedule.x_max + 0.25
        jumps = self.jump_points()
        return rows_with_jumps(self.evaluate, -top, top, n, jumps, self.evaluate(jumps, "-"), self.evaluate(jumps, "+"))


# ----------------------------------------------------------------------
# solution container and verification
# ----------------------------------------------------------------------
@dataclass
class EquilibriumSolution:
    penalty: Penalty
    schedule: DemandSchedule
    price: PriceFunction
    meta: dict = field(default_factory=dict)


def solve_equilibrium(penalty: Penalty, method: str = "auto") -> EquilibriumSolution:
    """Solve the game for an admissible penalty with the exact solver.

    ``method`` ("auto", "analytic" or "numeric") is kept so that existing
    callers run unchanged; every value runs the same solver.
    """
    if method not in ("auto", "analytic", "numeric"):
        raise DomainError(f"unknown method {method!r}")
    schedule = solve_demand(penalty)
    return EquilibriumSolution(penalty, schedule, PriceFunction(schedule), {"method": "exact"})


@dataclass
class VerificationReport:
    linear_expected_price: bool
    optimality: bool
    break_even: bool
    details: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return self.linear_expected_price and self.optimality and self.break_even


def verify_equilibrium(
    sol: EquilibriumSolution,
    tol: float = 1e-8,
    probes: int = 32,
    seed: int = 0,
    mc_samples: int = 200_000,
) -> VerificationReport:
    """Three independent equilibrium checks.

    (a) the expected price of an order x is x/2; (b) the schedule maximises
    the reduced profit at random fundamentals, against the exact best order
    read off the penalty's pieces; (c) the market maker breaks even on every
    slice of the order flow (Monte Carlo).
    """
    rng = np.random.default_rng(seed)

    xs = rng.uniform(-1.0, 1.0, probes)
    err = np.max(np.abs(sol.price.expected_price(xs) - 0.5 * xs))
    linear_ok = err <= tol

    vs = rng.uniform(0.0, 1.0, probes)
    # the best profit at each v, exactly: on a piece it is the quadratic
    # x(v - c1) - c0 - (c2 + 1/2) x^2, largest at an end or the clipped vertex
    a, b, c0, c1, c2, _ = np.asarray(sol.penalty.pieces(), dtype=float).T
    best = np.max(_extremes(a, b, -c0, vs[:, None] - c1, -0.5 - c2), axis=(0, 2))
    best = np.maximum(best, 0.0)  # the order x = 0 earns 0
    achieved = psi(sol.penalty, sol.schedule.evaluate(vs), vs)
    opt_gap = max(float(np.max(best - achieved)), 0.0)
    opt_ok = opt_gap <= tol

    v = rng.uniform(-1.0, 1.0, mc_samples)
    d = sol.schedule.evaluate(v) + rng.uniform(-1.0, 1.0, mc_samples)  # noise u, not kept
    resid = v - sol.price.evaluate(d)
    edges = np.linspace(d.min(), d.max() + EDGE_TOL, 21)
    which = (np.digitize(d, edges) - 1).astype(np.int8)
    del v, d
    # a stable sort by bin (a radix sort on int8) keeps each bin's draws in
    # draw order, so every slice below holds resid[which == k] as it was
    resid = resid[np.argsort(which, kind="stable")]
    counts = np.bincount(which, minlength=20)
    starts = np.cumsum(counts) - counts
    be_ok = True
    worst = 0.0
    for k in range(20):
        n = counts[k]
        if n < 200:
            continue
        r = resid[starts[k] : starts[k] + n]
        m = r.mean()
        se = r.std(ddof=1) / np.sqrt(n)
        z = abs(m) / max(se, ORDER_TOL)
        worst = max(worst, z)
        if z > 4.5:
            be_ok = False
    return VerificationReport(
        bool(linear_ok),
        bool(opt_ok),
        bool(be_ok),
        details={
            "expected_price_max_err": float(err),
            "optimality_gap": float(opt_gap),
            "break_even_max_z": float(worst),
        },
    )
