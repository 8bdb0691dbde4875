"""Equilibrium of the one-period insider game under uniform noise.

The insider's reduced objective is psi(x, v) = x(v - x/2) - C(x), because the
expected execution price of an order x is x/2 for every admissible demand
schedule.  The equilibrium demand is the pointwise argmax of psi, and the
price function follows from the market maker's break-even condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SolverError
from .penalties import (
    ConstantAbovePenalty,
    ConstantNonzeroPenalty,
    LinearPenalty,
    OptimalCanonicalPenalty,
    Penalty,
    QuadraticPenalty,
    SurfaceOptimalPenalty,
    ZeroPenalty,
)
from .schedules import DemandSchedule

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


# ----------------------------------------------------------------------
# insider objective
# ----------------------------------------------------------------------
def psi(penalty: Penalty, x, v):
    """Reduced insider profit x(v - x/2) - C(x)."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return x * (v - 0.5 * x) - penalty.value(x)


# ----------------------------------------------------------------------
# closed-form demand schedules
# ----------------------------------------------------------------------
def solve_demand_analytic(penalty: Penalty):
    """Exact schedule for the closed-form families; None if unsupported."""
    if isinstance(penalty, ZeroPenalty):
        return DemandSchedule.identity()
    if isinstance(penalty, QuadraticPenalty):
        return DemandSchedule.proportional(1.0 / (1.0 + 2.0 * penalty.alpha))
    if isinstance(penalty, LinearPenalty):
        a = penalty.alpha
        if a >= 1.0:
            return DemandSchedule.zero()
        if a == 0.0:
            return DemandSchedule.identity()
        return DemandSchedule(
            [0.0, a, 1.0], [0.0, 0.0, 1.0 - a], [0.0, 0.0, 1.0 - a]
        )
    if isinstance(penalty, (ConstantNonzeroPenalty, OptimalCanonicalPenalty)):
        return DemandSchedule.step_mimic(np.sqrt(2.0 * penalty.K))
    if isinstance(penalty, SurfaceOptimalPenalty):
        v1, v2 = penalty.v1, penalty.v2
        if v1 == 0.0:
            return DemandSchedule.identity()
        if v1 == v2:
            return DemandSchedule.step_mimic(v1)
        if v2 == 1.0:
            return DemandSchedule(
                [0.0, v1, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]
            )
        return DemandSchedule(
            [0.0, v1, v2, 1.0],
            [0.0, 0.0, v2, 1.0],
            [0.0, 0.0, v2, 1.0],
        )
    if isinstance(penalty, ConstantAbovePenalty):
        K, x0 = penalty.K, penalty.x0
        v_star = x0 + np.sqrt(2.0 * K)
        if x0 >= 1.0:
            return DemandSchedule.identity()
        if v_star >= 1.0:
            return DemandSchedule(
                [0.0, x0, 1.0], [0.0, x0, x0], [0.0, x0, x0]
            )
        return DemandSchedule(
            [0.0, x0, v_star, 1.0],
            [0.0, x0, x0, 1.0],
            [0.0, x0, v_star, 1.0],
        )
    return None


# ----------------------------------------------------------------------
# numeric demand solver
# ----------------------------------------------------------------------
def _golden_max(f, lo, hi, tol):
    """Vectorized golden-section maximisation on per-element brackets."""
    lo = lo.copy()
    hi = hi.copy()
    n_iter = int(np.ceil(np.log(max(tol, 1e-15) / max(np.max(hi - lo), tol)) / np.log(_GOLDEN))) + 1
    for _ in range(max(n_iter, 1)):
        gap = hi - lo
        x1 = hi - _GOLDEN * gap
        x2 = lo + _GOLDEN * gap
        shrink_hi = f(x1) >= f(x2)
        hi = np.where(shrink_hi, x2, hi)
        lo = np.where(shrink_hi, lo, x1)
    return 0.5 * (lo + hi)


def solve_demand_numeric(
    penalty: Penalty,
    n_v: int = 4001,
    n_x: int = 4001,
    bracket_tol: float = 1e-10,
    tie_tol: float = 1e-12,
    jump_factor: float = 10.0,
) -> DemandSchedule:
    """Pointwise argmax of psi over x in [0, 1] on a uniform v-grid.

    The x-range is split at the penalty's breakpoints so that golden-section
    refinement only ever sees a continuous objective; both one-sided penalty
    values at each breakpoint enter as explicit candidates; ties go to the
    smaller order.
    """
    vs = np.linspace(0.0, 1.0, n_v)
    xg = np.linspace(0.0, 1.0, n_x)
    cg = penalty.value(xg)
    breaks = [b for b in penalty.breakpoints() if 0.0 < b < 1.0]
    edges = np.unique(np.concatenate([[0.0, 1.0], breaks]))

    cand_x = []  # each entry: array of shape (n_v,) or scalar broadcast
    cand_val = []

    def add_candidate(x_arr):
        x_arr = np.broadcast_to(np.asarray(x_arr, dtype=float), vs.shape)
        cand_x.append(x_arr)
        cand_val.append(x_arr * (vs - 0.5 * x_arr) - penalty.value(x_arr))

    add_candidate(0.0)
    add_candidate(1.0)
    for b in breaks:
        add_candidate(b)

    # refined interior candidate per penalty piece
    chunk = 512
    for lo_e, hi_e in zip(edges[:-1], edges[1:]):
        mask = (xg > lo_e) & (xg <= hi_e)
        if lo_e == 0.0:
            mask |= xg == 0.0
        idx = np.nonzero(mask)[0]
        if len(idx) == 0:
            continue
        xs_piece = xg[idx]
        cs_piece = cg[idx]
        x_ref = np.empty_like(vs)
        for s in range(0, n_v, chunk):
            vblk = vs[s : s + chunk]
            m = xs_piece[None, :] * (vblk[:, None] - 0.5 * xs_piece[None, :]) - cs_piece[None, :]
            i = np.argmax(m, axis=1)
            blo = np.maximum(xs_piece[np.maximum(i - 1, 0)], lo_e + 1e-14)
            bhi = np.minimum(xs_piece[np.minimum(i + 1, len(idx) - 1)], hi_e)
            blo = np.minimum(blo, bhi)

            def f(x, vblk=vblk):
                return x * (vblk - 0.5 * x) - penalty.value(x)

            x_ref[s : s + chunk] = _golden_max(f, blo, bhi, bracket_tol)
        add_candidate(x_ref)

    xc = np.stack(cand_x)
    vc = np.stack(cand_val)
    top = vc.max(axis=0)
    eligible = vc >= top - tie_tol
    x_star = np.where(eligible, xc, np.inf).min(axis=0)

    if np.any(np.diff(x_star) < -1e-8):
        raise SolverError("monotonicity violation")
    x_star = np.maximum.accumulate(x_star)
    dv = vs[1] - vs[0]
    return DemandSchedule.from_samples(vs, x_star, jump_tol=jump_factor * dv)


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
        shape = np.shape(d)
        d = np.atleast_1d(np.asarray(d, dtype=float))
        xm = self.x_max
        y1 = np.clip(d - 1.0, -xm, xm)
        y2 = np.clip(d + 1.0, -xm, xm)
        mid = 0.5 * (
            self.schedule.inverse_left(y1) + self.schedule.inverse_right(y2)
        )
        out = np.where(d > 1.0 + xm, 1.0, np.where(d < -(1.0 + xm), -1.0, mid))
        return float(out[0]) if shape == () else out.reshape(shape)

    def evaluate_limit(self, d: float, side: str) -> float:
        """One-sided limit of the price at d; ``side`` is '-' or '+'."""
        xm = self.x_max
        if d > 1.0 + xm or (d == 1.0 + xm and side == "+"):
            return 1.0
        if d < -(1.0 + xm) or (d == -(1.0 + xm) and side == "-"):
            return -1.0
        terms = []
        for y in (d - 1.0, d + 1.0):
            if y < -xm or (y == -xm and side == "-"):
                terms.append(-1.0)
            elif y > xm or (y == xm and side == "+"):
                terms.append(1.0)
            else:
                terms.append(self.schedule.inverse_limit(y, side))
        return 0.5 * (terms[0] + terms[1])

    def jump_points(self):
        """Order-flow levels where the price may jump (flats of the demand)."""
        xlo, xhi, vlo, vhi = self.schedule._inverse_pieces()
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
        ds = set()
        for x in levels:
            for d in (x + 1.0, x - 1.0, -x + 1.0, -x - 1.0):
                ds.add(d)
        return sorted(ds)

    def expected_price(self, x: float) -> float:
        """Average execution price of an order x against uniform noise.

        Exact piecewise integration of (1/2) * integral of P over
        [x-1, x+1]; no quadrature error beyond arithmetic.
        """
        if abs(x) > 1.0 + 1e-12:
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
        xm = self.x_max
        lo, hi = -(1.0 + xm) - 0.25, 1.0 + xm + 0.25
        ds = np.linspace(lo, hi, n)
        rows = list(zip(ds.tolist(), self.evaluate(ds).tolist()))
        for d in self.jump_points():
            rows.append((d, self.evaluate_limit(d, "-")))
            rows.append((d, self.evaluate_limit(d, "+")))
        rows.sort(key=lambda r: (r[0], r[1]))
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


def solve_equilibrium(penalty: Penalty, method: str = "auto", **grid) -> EquilibriumSolution:
    """Solve the game for an admissible penalty.

    ``method`` is "auto" (analytic when available), "analytic" or "numeric".
    """
    schedule = None
    used = "numeric"
    if method in ("auto", "analytic"):
        schedule = solve_demand_analytic(penalty)
        if schedule is not None:
            used = "analytic"
        elif method == "analytic":
            raise DomainError("no closed form for this penalty kind")
    if schedule is None:
        schedule = solve_demand_numeric(penalty, **grid)
    meta = {"method": used}
    meta.update({k: v for k, v in grid.items()})
    return EquilibriumSolution(penalty, schedule, PriceFunction(schedule), meta)


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
    # the schedule is resolved on a grid, so allow a resolution-scale slack
    opt_ok = opt_gap <= max(tol, 1e-6)

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
