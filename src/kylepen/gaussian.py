"""Fixed-point solver for the insider game under standard normal noise.

No closed form is available here: the price update (market maker's
conditional expectation) and the insider's best response are alternated with
damping until the demand stops moving.  Results are heuristic by nature and
used for qualitative robustness checks only.

The reported grids span [-L, L], but the price quadratures run on a domain
extended to [-2L, 2L] with the demand continued linearly at its edge slope.
A flat continuation would make large orders look artificially cheap (the
price would stop rising past the grid edge) and drive the best response to
the boundary; the linear continuation keeps the zero-penalty fixed point at
the exact linear equilibrium up to quadrature error.

Each kernel does only the work the game's symmetry leaves: the demand is
odd, so the price is odd and the penalty is even.
- ``gaussian_price_update`` prices the odd part (X(v) - X(-v)) / 2 of the
  demand it is given.  It integrates the order flows d > 0 in blocks of
  ``_BLOCK`` rows, each built in one reused buffer and multiplied into the
  posterior mass and mean, and mirrors them: P(-d) = -P(d), P(0) = 0.
- Phat(x) = E[P(x + u)] is a discrete correlation, since every x + u is a
  node of the extended grid.
- ``gaussian_best_response`` responds to the odd part of its price, on the
  rows v >= 0 and the orders x >= 0, and mirrors.  Phat is linear between
  x-nodes and C quadratic on each row, so it takes the exact maximum of each
  cell, at its vertex or its right end, in row blocks too.

A solution's ``flags`` hold ``monotone``, ``underflow_fills`` (how many
order flows of the final price had a posterior mass of at most 1e-290 and
took the price of the nearest well-conditioned flow toward 0) and
``true_residual``, max |BR(X) - X| at the returned X, which is also the
solution's ``residual`` and what the iteration stops on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .penalties import Penalty

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_BLOCK = 32  # kernel rows per block; one block of the default extended price kernel is 410 kB
_TIE_TOL = 1e-9  # best-response candidates this close to the best tie


def _normal_pdf(t):
    return _INV_SQRT_2PI * np.exp(-0.5 * t * t)


@dataclass(frozen=True)
class GaussianGrid:
    """Uniform grids for v, x and the order flow d, truncated at +-L standard
    deviations, each its nonnegative half mirrored, so exactly odd.  Below 1
    the grid drops more than a third of the normal mass; past 38 the normal
    density falls to subnormal doubles."""

    L: float = 5.0
    n: int = 801

    def __post_init__(self):
        if not 1.0 <= self.L <= 38.0 or self.n < 11 or self.n % 2 == 0:
            raise DomainError("need 1 <= L <= 38 and odd n >= 11")

    @property
    def points(self) -> np.ndarray:
        half = np.linspace(0.0, self.L, self.pad + 1)
        return np.concatenate((-half[:0:-1], half))

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.n - 1)

    @property
    def pad(self) -> int:
        """Extra points added on each side of the reported grid."""
        return (self.n - 1) // 2

    @property
    def extended_points(self) -> np.ndarray:
        """Quadrature grid spanning [-2L, 2L] at the same spacing."""
        half = np.linspace(0.0, 2.0 * self.L, self.n)
        return np.concatenate((-half[:0:-1], half))

    def trap_weights(self, pts: np.ndarray) -> np.ndarray:
        w = np.full(len(pts), self.h)
        w[0] = w[-1] = 0.5 * self.h
        return w


@dataclass
class GaussianSolution:
    grid: GaussianGrid
    X: np.ndarray
    P: np.ndarray
    Phat: np.ndarray
    iterations: int
    residual: float
    converged: bool
    flags: dict = field(default_factory=dict)


def _extend_demand(X: np.ndarray, grid: GaussianGrid) -> np.ndarray:
    """Continue X beyond [-L, L] linearly at its (clamped) edge slope."""
    pad = grid.pad
    slope = (X[-1] - X[-2]) / grid.h
    slope = min(max(slope, 0.0), 2.0)
    out = np.empty(grid.n + 2 * pad)
    out[pad : pad + grid.n] = X
    tail = grid.extended_points[pad + grid.n :] - grid.L
    out[pad + grid.n :] = X[-1] + slope * tail
    out[:pad] = -(X[-1] + slope * tail)[::-1]  # odd mirror of the upper tail
    return out


def _odd_part(a: np.ndarray) -> np.ndarray:
    """(a(t) - a(-t)) / 2 on a symmetric grid."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a - a[::-1])


def _row_blocks(n_rows: int, n_cols: int, k: int = 1):
    """Slices of at most _BLOCK rows, each with its k views into one buffer."""
    buf = np.empty((k, min(_BLOCK, n_rows), n_cols))
    for lo in range(0, n_rows, _BLOCK):
        yield slice(lo, lo + _BLOCK), buf[:, : min(_BLOCK, n_rows - lo)]


def _price_on(d_pts: np.ndarray, X: np.ndarray, grid: GaussianGrid) -> tuple[np.ndarray, int]:
    """P(d) = E[v | X(v) + u = d] on a symmetric d-grid for an odd X on the
    v-grid, and the number of order flows whose posterior underflowed.

    Trapezoid quadrature over the extended v-grid, on blocks of the rows
    d > 0 only: P(0) = 0 and P(-d) = -P(d).  A row whose posterior mass is at
    most 1e-290 takes the price of the nearest well-conditioned row toward 0.
    """
    v_ext = grid.extended_points
    # the weights carry the kernel's 1/sqrt(2 pi) too, so the kernel is a bare exp
    wphi = _normal_pdf(v_ext) * grid.trap_weights(v_ext) * _INV_SQRT_2PI
    weights = np.stack((wphi, wphi * v_ext), axis=1)
    d_pos, X_ext = d_pts[len(d_pts) // 2 + 1 :], _extend_demand(X, grid)
    mass = np.empty((len(d_pos), 2))  # the posterior mass and mean of each row d > 0
    for rows, (kern,) in _row_blocks(len(d_pos), len(X_ext)):
        np.subtract.outer(d_pos[rows], X_ext, out=kern)
        np.square(kern, out=kern)
        kern *= -0.5
        np.exp(kern, out=kern)
        np.matmul(kern, weights, out=mass[rows])
    denom, num = mass.T
    good = denom > 1e-290
    ratio = np.zeros(len(good) + 1)  # ratio[0] is P(0)
    np.divide(num, denom, out=ratio[1:], where=good)
    # each row reads the last well-conditioned row at or below it
    last = np.maximum.accumulate(np.where(good, np.arange(1, len(good) + 1), 0))
    P_pos = ratio[last]
    P = np.concatenate((-P_pos[::-1], [0.0], P_pos))
    return P, 2 * int(np.count_nonzero(~good))


def gaussian_price_update(X: np.ndarray, grid: GaussianGrid, extended: bool = False) -> np.ndarray:
    """Break-even price for a demand sampled on the v-grid.

    The price is odd: it is the price of the odd part (X(v) - X(-v)) / 2 of
    the demand given, which is X itself for an odd X.  With
    ``extended=True`` the price is returned on the quadrature grid
    [-2L, 2L], which is what the fixed-point iteration itself consumes;
    otherwise on the reported d-grid."""
    d = grid.extended_points if extended else grid.points
    return _price_on(d, _odd_part(X), grid)[0]


def expected_price_gaussian(P: np.ndarray, grid: GaussianGrid) -> np.ndarray:
    """Phat(x) = E_u[P(x + u)] on the x-grid.

    ``P`` may be sampled on either the reported grid or the extended grid;
    outside its sample range it is continued by its edge values.  Every
    x + u is a node of the extended grid, so the trapezoid sum is a discrete
    correlation of P with the weights.
    """
    P = np.asarray(P, dtype=float)
    if len(P) == grid.n:
        P = np.pad(P, grid.pad, mode="edge")
    elif len(P) != grid.n + 2 * grid.pad:
        raise DomainError("price must be sampled on the reported or the extended grid")
    u = grid.points
    wphi = _normal_pdf(u) * grid.trap_weights(u)
    return np.convolve(P, wphi[::-1], "valid")


def gaussian_best_response(P: np.ndarray, penalty: Penalty, grid: GaussianGrid) -> np.ndarray:
    """Per-v maximiser of x(v - Phat(x)) - C(x) on the x-grid, exact for the
    Phat that ``np.interp`` reads off the grid; ties go to the smaller |x|.

    Between adjacent nodes xn of the grid and the penalty's row starts, Phat
    is a line and C a quadratic row, so on the cell (xn[k-1], xn[k]] the
    objective is x(v + b_k - q_k x) - c0_k, greatest at the vertex clipped to
    the cell when q_k > 0 and at the right end otherwise (cell 0 is x = 0).
    Of the best cell maximum, 0 and the breakpoints, the smallest x within
    ``_TIE_TOL`` of the best wins.

    The response is to the odd part of ``P``, so it is odd.  Phat is then
    odd and C even, and for v >= 0 the objective gains 2xv from -x to x; so
    the rows v >= 0 are solved on the orders x >= 0 and mirrored."""
    v = grid.points[grid.pad :]  # v >= 0, and the grid's x >= 0
    xn = np.union1d(v, penalty.row_starts(grid.L))
    phat = np.interp(xn, v, expected_price_gaussian(_odd_part(P), grid)[grid.pad :])
    slope = np.append(0.0, np.diff(phat) / np.diff(xn))
    c0, c1, c2 = penalty.coefficients(xn)
    q = slope + c2
    b = slope * xn - phat - c1  # with Phat on each cell read from its right end
    half_inv_q = np.divide(0.5, q, out=np.zeros_like(q), where=q > 0.0)
    first = np.where(q > 0.0, np.append(0.0, xn[:-1]), xn)  # the right end where q <= 0
    k, top = np.empty(len(v), dtype=np.intp), np.empty(len(v))
    # x(v + b - q x) - c0 at each cell's clipped vertex, in place, block by block of the rows v >= 0
    for rows, (vals, x, qx) in _row_blocks(len(v), len(xn), 3):
        np.add.outer(v[rows], b, out=vals)
        np.minimum(np.maximum(np.multiply(vals, half_inv_q, out=x), first, out=x), xn, out=x)
        vals -= np.multiply(q, x, out=qx)
        vals *= x
        vals -= c0
        k[rows] = np.argmax(vals, axis=1)
        top[rows] = vals[np.arange(len(vals)), k[rows]]
    nodes = np.searchsorted(xn, (0.0, *penalty.breakpoints()))
    at_nodes = xn[nodes] * (np.add.outer(v, b[nodes]) - q[nodes] * xn[nodes]) - c0[nodes]
    tied = np.where(at_nodes >= top[:, None] - _TIE_TOL, xn[nodes], np.inf).min(axis=1)
    X_pos = np.minimum(np.clip((v + b[k]) * half_inv_q[k], first[k], xn[k]), tied)
    return np.concatenate((-X_pos[:0:-1], X_pos))


def gaussian_fixed_point(
    penalty: Penalty,
    grid: GaussianGrid | None = None,
    damping: float = 0.5,
    tol: float = 1e-5,
    max_iter: int = 200,
) -> GaussianSolution:
    """Damped alternation of price update and best response.

    Stops at the first iterate X whose residual max |BR(X) - X| is below
    ``tol``; returns the last iterate with ``converged=False`` if none of the
    first ``max_iter`` damped steps reaches one.  ``iterations`` counts the
    damped steps taken.
    """
    if not 0.0 < damping <= 1.0:
        raise DomainError("damping must lie in (0, 1]")
    if not (np.isfinite(tol) and tol > 0.0):
        raise DomainError("tol must be a finite positive number")
    if max_iter < 1:
        raise DomainError("max_iter must be at least 1")
    if grid is None:
        grid = GaussianGrid()
    d_ext = grid.extended_points
    X = _odd_part(grid.points)  # start from the mimicking schedule
    P_ext, fills = _price_on(d_ext, X, grid)
    it = 0
    while True:
        X_new = gaussian_best_response(P_ext, penalty, grid)
        residual = float(np.max(np.abs(X_new - X)))
        converged = residual < tol
        if converged or it == max_iter:
            break
        X = _odd_part((1.0 - damping) * X + damping * X_new)  # enforce oddness
        P_ext, fills = _price_on(d_ext, X, grid)
        it += 1
    P = P_ext[grid.pad : grid.pad + grid.n]
    phat = expected_price_gaussian(P_ext, grid)
    monotone = bool(np.all(np.diff(X) >= -10.0 * tol))
    return GaussianSolution(
        grid=grid,
        X=X,
        P=P,
        Phat=phat,
        iterations=it,
        residual=residual,
        converged=converged,
        flags={"monotone": monotone, "underflow_fills": fills, "true_residual": residual},
    )
