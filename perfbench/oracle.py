"""Independent oracles for the benchmark's checks.

Nothing here imports kylepen: penalties are evaluated from their JSON
description, equilibria of the closed-form kinds are written out by hand,
and schedules are integrated segment by segment with numpy.  The game is
the normalized one (v and u uniform on [-1, 1]), where the expected
execution price of an order x is x/2 and the insider maximises
x(v - x/2) - C(x) pointwise.
"""

from __future__ import annotations

import math

import numpy as np

SQRT3 = math.sqrt(3.0)
Z99 = 2.5758293035489004  # two-sided 99% normal quantile used by the CI half-widths
ROUNDING = 1e-11  # relative error of a float written with 12 significant digits, with margin


class CheckError(Exception):
    """An output that disagrees with its oracle."""


def require(ok, what: str):
    if not ok:
        raise CheckError(what)


# ----------------------------------------------------------------------
# penalties from their JSON description
# ----------------------------------------------------------------------
def _tabulated_arrays(points):
    xs, left, right = [], [], []
    for i, p in enumerate(points):
        xs.append(float(p[0]))
        left.append(float(p[1]))
        if p[2]:
            right.append(float(p[3]) if len(p) > 3 else float(points[i + 1][1]))
        else:
            right.append(float(p[1]))
    return np.asarray(xs), np.asarray(left), np.asarray(right)


def penalty_value(spec: dict, x) -> np.ndarray:
    """Left-continuous C(|x|) for x of any magnitude (flat beyond the data)."""
    x = np.abs(np.asarray(x, dtype=float))
    kind = spec["kind"]
    if kind == "constant_nonzero":
        return np.where(x > 0.0, spec["K"], 0.0)
    if kind == "constant_above":
        return np.where(x > spec["x0"], spec["K"], 0.0)
    if kind == "linear":
        return spec["alpha"] * x
    if kind == "quadratic":
        return spec["alpha"] * x * x
    if kind == "optimal_canonical":
        c = math.sqrt(2.0 * spec["K"])
        return np.where(x <= c, x * (c - 0.5 * x), spec["K"])
    if kind == "surface":
        v1, v2 = spec["v1"], spec["v2"]
        return np.where(x <= v2, v1 * x - v1 / (2.0 * v2) * x * x, 0.5 * v1 * v2)
    if kind == "tabulated":
        xs, left, right = _tabulated_arrays(spec["points"])
        out = np.full_like(x, right[-1])
        for k in range(len(xs) - 1):
            inside = (x > xs[k]) & (x <= xs[k + 1])
            t = (x[inside] - xs[k]) / (xs[k + 1] - xs[k])
            out[inside] = right[k] + t * (left[k + 1] - right[k])
        for k in range(len(xs)):
            out[x == xs[k]] = left[k]
        return out
    raise ValueError(f"unknown penalty kind {kind!r}")


def breakpoints(spec: dict):
    """Abscissae where C may jump or kink."""
    kind = spec["kind"]
    if kind == "constant_above":
        pts = [spec["x0"]]
    elif kind == "optimal_canonical":
        pts = [math.sqrt(2.0 * spec["K"])]
    elif kind == "surface":
        pts = [spec["v2"]]
    elif kind == "tabulated":
        pts = [float(p[0]) for p in spec["points"]]
    else:
        pts = []
    return pts


def normalize(spec: dict, a: float, b: float, c: float) -> dict:
    """Penalty of the normalized game for supports u ~ U(-a, a), v ~ U(b, c):
    C0(x0) = C(a x0) / (a sigma) with sigma = (c - b)/2."""
    sigma = 0.5 * (c - b)
    scale = a * sigma
    kind = spec["kind"]
    if kind == "constant_above":
        return {"kind": kind, "K": spec["K"] / scale, "x0": spec["x0"] / a}
    if kind == "linear":
        return {"kind": kind, "alpha": spec["alpha"] * a / scale}
    if kind == "tabulated":
        pts = []
        for p in spec["points"]:
            row = [p[0] / a, p[1] / scale, p[2]]
            if len(p) > 3:
                row.append(p[3] / scale)
            pts.append(row)
        return {"kind": kind, "points": pts}
    raise ValueError(f"no normalization for {kind!r}")


# ----------------------------------------------------------------------
# closed-form equilibria: |G| = int_0^1 X (v - X/2) dv and
# S = (1 - int_0^1 v X dv) / sqrt(3)
# ----------------------------------------------------------------------
def _identity_tail(t):
    """(|G|, int vX) contributions of X(v) = v over [t, 1]."""
    return (1.0 - t**3) / 6.0, (1.0 - t**3) / 3.0


def closed_form_gs(spec: dict):
    """(|G|, S) of the exact equilibrium of a closed-form kind, or None."""
    kind = spec["kind"]
    if kind == "quadratic":
        beta = 1.0 / (1.0 + 2.0 * spec["alpha"])
        g, vx = beta / 3.0 - beta * beta / 6.0, beta / 3.0
    elif kind == "linear":
        al = spec["alpha"]
        if al >= 1.0:
            g, vx = 0.0, 0.0
        else:  # X = v - alpha above alpha
            g = (1.0 - al**3) / 6.0 - al * al * (1.0 - al) / 2.0
            vx = (1.0 - al**3) / 3.0 - al * (1.0 - al * al) / 2.0
    elif kind in ("constant_nonzero", "optimal_canonical"):
        cut = math.sqrt(2.0 * spec["K"])  # no trade below the cutoff, mimic above
        g, vx = _identity_tail(cut) if cut < 1.0 else (0.0, 0.0)
    elif kind == "constant_above":
        x0, v_star = spec["x0"], spec["x0"] + math.sqrt(2.0 * spec["K"])
        if x0 >= 1.0:
            g, vx = _identity_tail(0.0)
        else:  # mimic to x0, hold x0 until the indifference point, mimic again
            u = min(v_star, 1.0)
            g = x0**3 / 6.0 + x0 * ((u * u - x0 * x0) / 2.0 - x0 * (u - x0) / 2.0)
            vx = x0**3 / 3.0 + x0 * (u * u - x0 * x0) / 2.0
            if v_star < 1.0:
                tg, tvx = _identity_tail(v_star)
                g, vx = g + tg, vx + tvx
    elif kind == "surface":
        v1, v2 = spec["v1"], spec["v2"]
        # zero to v1, linear up to (v2, v2), mimic above
        if v1 == v2:
            g, vx = _identity_tail(v1)
        else:
            k = v2 / (v2 - v1)
            d = v2 - v1
            # int_v1^v2 of X(v - X/2) and vX with X = k (v - v1)
            g_mid = k * (d**3 / 3.0 + v1 * d * d / 2.0) - 0.5 * k * k * d**3 / 3.0
            vx_mid = k * (d**3 / 3.0 + v1 * d * d / 2.0)
            tg, tvx = _identity_tail(v2)
            g, vx = g_mid + tg, vx_mid + tvx
    else:
        return None
    return g, (1.0 - vx) / SQRT3


def surface_point(v1: float, v2: float):
    """(G, S, F) of the fine-bearing surface at generator (v1, v2)."""
    g = (v1 * v1 * v2 - 1.0) / 6.0
    s = (2.0 / 3.0 + (v1 * v1 * v2 + v1 * v2 * v2) / 6.0) / SQRT3
    f = v1 * v2 * (3.0 - 2.0 * v1 - v2) / 6.0
    return g, s, f


# ----------------------------------------------------------------------
# exact integrals of a piecewise-linear schedule given by its nodes
# ----------------------------------------------------------------------
def schedule_moments(nodes, left, right):
    """(|G|, S, Pi_N, F) of the schedule v -> X(v) that runs linearly from
    right[k] to left[k+1] on each [nodes[k], nodes[k+1]].

    Simpson's rule is exact here because every integrand is quadratic on a
    segment."""
    v0, v1 = np.asarray(nodes[:-1]), np.asarray(nodes[1:])
    a, b = np.asarray(right[:-1]), np.asarray(left[1:])
    vm, xm, w = 0.5 * (v0 + v1), 0.5 * (a + b), (v1 - v0) / 6.0

    def simpson(f):
        return float(np.sum(w * (f(v0, a) + 4.0 * f(vm, xm) + f(v1, b))))

    abs_g = simpson(lambda v, x: x * (v - 0.5 * x))
    vx = simpson(lambda v, x: v * x)
    pi_n = simpson(lambda v, x: (1.0 - v) * x)
    return abs_g, (1.0 - vx) / SQRT3, pi_n, abs_g - pi_n


# ----------------------------------------------------------------------
# brute-force best response
# ----------------------------------------------------------------------
def argmax_gap(spec: dict, v, x, *, slope: float = 0.5, x_hi: float = 1.0, n: int = 4001):
    """Largest shortfall of the written orders x at fundamentals v against a
    brute-force argmax of x (v - slope x) - C(x).

    The x-grid covers [-x_hi, x_hi] with n points per side plus every
    breakpoint of C; ``slope`` is the price impact of an order (1/2 in the
    normalized game).  A written order may be rounded past a jump of C, so
    it is also scored one rounding step closer to zero.  With 4001 points
    the grid's own shortfall is below 1e-7, well inside the 1e-6 the checks
    allow, while a jump misplaced by one solver grid step costs 1e-5."""
    kinks = [p for p in breakpoints(spec) if 0.0 <= p <= x_hi]
    side = np.union1d(np.linspace(0.0, x_hi, n), kinks)
    grid = np.concatenate([-side[::-1], side])
    cost = penalty_value(spec, grid)
    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    inward = x - np.sign(x) * ROUNDING * x_hi
    achieved = np.maximum(
        x * (v - slope * x) - penalty_value(spec, x),
        inward * (v - slope * inward) - penalty_value(spec, inward),
    )
    worst = -np.inf
    for s in range(0, len(v), 64):
        vb = v[s : s + 64, None]
        best = np.max(grid[None, :] * (vb - slope * grid[None, :]) - cost[None, :], axis=1)
        worst = max(worst, float(np.max(best - achieved[s : s + 64])))
    return worst
