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
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .penalties import Penalty
from .schedules import EDGE_TOL, DemandSchedule


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

    On [-(1+x_max), 1+x_max] the price is the midpoint of the interval of
    fundamentals consistent with the observed flow; beyond, it saturates at
    the support edges +-1.
    """

    def __init__(self, schedule: DemandSchedule):
        self.schedule = schedule

    @property
    def x_max(self) -> float:
        return self.schedule.x_max

    def __call__(self, d):
        return self.evaluate(d)

    def evaluate(self, d):
        return self._midpoint(d, "-", "+")

    def evaluate_limit(self, d, side: str):
        """One-sided limit of the price at d, elementwise; ``side`` is '-' or '+'."""
        return self._midpoint(d, side, side)

    def _midpoint(self, d, side1: str, side2: str):
        """(X^-1(d - 1) + X^-1(d + 1)) / 2 with each inverse taken as its
        one-sided limit; past +-x_max the inverse stays at +-1, which
        saturates the price at the support edges.  d -+ 1 rounds, so at
        d = +-(1 + x_max) the argument that meets the edge is set to it."""
        shape = np.shape(d)
        d = np.atleast_1d(np.asarray(d, dtype=float))
        xm = self.x_max
        y1, y2 = d - 1.0, d + 1.0
        y1[d == 1.0 + xm] = xm
        y2[d == -1.0 - xm] = -xm
        inverse = self.schedule.inverse_limit
        out = 0.5 * (inverse(y1, side1) + inverse(y2, side2))
        return float(out[0]) if shape == () else out.reshape(shape)

    def jump_points(self):
        """Order-flow levels where the price may jump: d = +-x +- 1 at every
        jump x of the inverse (a flat of the demand, the no-trade band at 0
        included, or a flat at the top)."""
        inv = self.schedule.inverse
        x = inv.nodes[inv.left < inv.right]
        return np.unique(np.concatenate((x + 1.0, x - 1.0, -x + 1.0, -x - 1.0)))

    def expected_price(self, x: float) -> float:
        """Average execution price of an order x against uniform noise.

        Exact piecewise integration of (1/2) * integral of P over
        [x-1, x+1]; no quadrature error beyond arithmetic.
        """
        if abs(x) > 1.0 + EDGE_TOL:
            raise DomainError("order outside [-1, 1]")
        xm = self.x_max
        a = x - 1.0
        b = x + 1.0
        total = 0.0
        # saturated tails of P
        hi_cut = 1.0 + xm
        if b > hi_cut:
            total += 1.0 * (b - max(a, hi_cut))
            b = hi_cut
        if a < -hi_cut:
            total += -1.0 * (min(b, -hi_cut) - a)
            a = -hi_cut
        if b > a:
            # left-inverse term over y = z - 1 in [a-1, b-1], clamped below
            ya, yb = a - 1.0, b - 1.0
            if ya < -xm:
                total += 0.5 * (-1.0) * (min(yb, -xm) - ya)
                ya = -xm
            if yb > ya:
                total += 0.5 * self.schedule.inverse_integral(ya, yb)
            # right-inverse term over y = z + 1 in [a+1, b+1], clamped above
            ya, yb = a + 1.0, b + 1.0
            if yb > xm:
                total += 0.5 * 1.0 * (yb - max(ya, xm))
                yb = xm
            if yb > ya:
                total += 0.5 * self.schedule.inverse_integral(ya, yb)
        return 0.5 * total

    def sample_rows(self, n: int = 1001):
        """(d, P(d)) rows on a uniform grid over the full pricing domain,
        with duplicated rows at price jumps."""
        if n < 2:
            raise DomainError("need at least 2 sample points")
        xm = self.x_max
        lo, hi = -(1.0 + xm) - 0.25, 1.0 + xm + 0.25
        grid = np.linspace(lo, hi, n)
        jumps = self.jump_points()
        ds = np.concatenate((grid, jumps, jumps))
        ps = np.concatenate(
            (self.evaluate(grid), self.evaluate_limit(jumps, "-"), self.evaluate_limit(jumps, "+"))
        )
        rows = list(zip(ds.tolist(), ps.tolist()))
        rows.sort()
        return rows


def price_function(schedule: DemandSchedule) -> PriceFunction:
    return PriceFunction(schedule)


def expected_price(price: PriceFunction, x: float) -> float:
    return price.expected_price(x)


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
    the reduced profit pointwise; (c) the market maker breaks even on every
    slice of the order flow (Monte Carlo).
    """
    rng = np.random.default_rng(seed)

    xs = rng.uniform(-1.0, 1.0, probes)
    err = max(abs(sol.price.expected_price(x) - 0.5 * x) for x in xs)
    linear_ok = err <= tol

    vs = rng.uniform(0.0, 1.0, probes)
    grid = np.linspace(0.0, 1.0, 2001)
    extra = np.asarray([b for b in sol.penalty.breakpoints()], dtype=float)
    grid = np.unique(np.concatenate([grid, extra])) if len(extra) else grid
    opt_gap = 0.0
    for v in vs:
        achieved = psi(sol.penalty, sol.schedule.evaluate(v), v)
        best = float(np.max(psi(sol.penalty, grid, v)))
        opt_gap = max(opt_gap, best - achieved)
    opt_ok = opt_gap <= tol

    v = rng.uniform(-1.0, 1.0, mc_samples)
    u = rng.uniform(-1.0, 1.0, mc_samples)
    d = sol.schedule.evaluate(v) + u
    resid = v - sol.price.evaluate(d)
    edges = np.linspace(d.min(), d.max() + 1e-12, 21)
    which = np.digitize(d, edges) - 1
    be_ok = True
    worst = 0.0
    for k in range(20):
        sel = which == k
        if sel.sum() < 200:
            continue
        m = resid[sel].mean()
        se = resid[sel].std(ddof=1) / np.sqrt(sel.sum())
        z = abs(m) / max(se, 1e-15)
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
