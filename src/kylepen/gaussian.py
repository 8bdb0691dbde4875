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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .penalties import Penalty

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _normal_pdf(t):
    return _INV_SQRT_2PI * np.exp(-0.5 * t * t)


@dataclass(frozen=True)
class GaussianGrid:
    """Symmetric uniform grids for v, x and the order flow d, truncated at
    +-L standard deviations.  Below 1 the grid drops more than a third of
    the normal mass; past 38 the normal density falls to subnormal doubles."""

    L: float = 5.0
    n: int = 801

    def __post_init__(self):
        if not 1.0 <= self.L <= 38.0 or self.n < 11 or self.n % 2 == 0:
            raise DomainError("need 1 <= L <= 38 and odd n >= 11")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, self.n)

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
        return np.linspace(-2.0 * self.L, 2.0 * self.L, self.n + 2 * self.pad)

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
    v_ext = grid.extended_points
    pad = grid.pad
    slope = (X[-1] - X[-2]) / grid.h
    slope = min(max(slope, 0.0), 2.0)
    out = np.empty(len(v_ext))
    out[pad : pad + grid.n] = X
    tail = v_ext[pad + grid.n :] - grid.L
    out[pad + grid.n :] = X[-1] + slope * tail
    out[:pad] = -(X[-1] + slope * tail)[::-1]  # odd mirror of the upper tail
    return out


def _price_on(d_pts: np.ndarray, X_ext: np.ndarray, grid: GaussianGrid) -> np.ndarray:
    """P(d) = E[v | X(v) + u = d] by trapezoid quadrature over the extended
    v-grid; underflowing posteriors are filled from the nearest
    well-conditioned value."""
    v_ext = grid.extended_points
    w = grid.trap_weights(v_ext)
    kern = _normal_pdf(d_pts[:, None] - X_ext[None, :]) * (_normal_pdf(v_ext) * w)[None, :]
    denom = kern.sum(axis=1)
    num = kern @ v_ext
    good = denom > 1e-290
    P = np.zeros_like(d_pts)
    P[good] = num[good] / denom[good]
    if not np.all(good):
        mid = len(d_pts) // 2
        for i in range(mid + 1, len(d_pts)):
            if not good[i]:
                P[i] = P[i - 1]
        for i in range(mid - 1, -1, -1):
            if not good[i]:
                P[i] = P[i + 1]
    return P


def gaussian_price_update(X: np.ndarray, grid: GaussianGrid, extended: bool = False) -> np.ndarray:
    """Break-even price for a demand sampled on the v-grid.

    With ``extended=True`` the price is returned on the quadrature grid
    [-2L, 2L], which is what the fixed-point iteration itself consumes;
    otherwise on the reported d-grid."""
    d = grid.extended_points if extended else grid.points
    return _price_on(d, _extend_demand(X, grid), grid)


def expected_price_gaussian(P: np.ndarray, grid: GaussianGrid) -> np.ndarray:
    """Phat(x) = E_u[P(x + u)] on the x-grid.

    ``P`` may be sampled on either the reported grid or the extended grid;
    outside its sample range it is continued by its edge values.
    """
    if len(P) == grid.n:
        d = grid.points
    else:
        d = grid.extended_points
    u = grid.points
    wphi = _normal_pdf(u) * grid.trap_weights(u)
    x = grid.points
    samples = np.interp(x[:, None] + u[None, :], d, P)
    return samples @ wphi


def gaussian_best_response(
    P: np.ndarray,
    penalty: Penalty,
    grid: GaussianGrid,
    bracket_tol: float = 1e-9,
    tie_tol: float = 1e-9,
) -> np.ndarray:
    """Per-v maximiser of x(v - Phat(x)) - C(x) over the x-grid with golden
    refinement; ties go to the smaller |x|."""
    phat = expected_price_gaussian(P, grid)
    v = grid.points
    x = grid.points

    def objective(xq, vq):
        return xq * (vq - np.interp(xq, x, phat)) - penalty.value_extended(xq)

    m = x[None, :] * (v[:, None] - phat[None, :]) - penalty.value_extended(x)[None, :]
    i = np.argmax(m, axis=1)
    lo = x[np.maximum(i - 1, 0)].copy()
    hi = x[np.minimum(i + 1, grid.n - 1)].copy()
    for _ in range(64):
        gap = hi - lo
        if gap.max() < bracket_tol:
            break
        x1 = hi - _GOLDEN * gap
        x2 = lo + _GOLDEN * gap
        better_left = objective(x1, v) >= objective(x2, v)
        hi = np.where(better_left, x2, hi)
        lo = np.where(better_left, lo, x1)
    refined = 0.5 * (lo + hi)

    cands = [refined, np.zeros_like(v)]
    for b in penalty.breakpoints():
        cands.append(np.full_like(v, b))
        cands.append(np.full_like(v, -b))
    xc = np.stack(cands)
    vals = np.stack([objective(c, v) for c in cands])
    top = vals.max(axis=0)
    eligible = vals >= top - tie_tol
    absx = np.where(eligible, np.abs(xc), np.inf)
    pick = np.argmin(absx, axis=0)
    return xc[pick, np.arange(grid.n)]


def gaussian_fixed_point(
    penalty: Penalty,
    grid: GaussianGrid | None = None,
    damping: float = 0.5,
    tol: float = 1e-5,
    max_iter: int = 200,
) -> GaussianSolution:
    """Damped alternation of price update and best response.

    Returns the last iterate with ``converged=False`` if the sup-norm change
    of X never falls below ``tol``.
    """
    if not 0.0 < damping <= 1.0:
        raise DomainError("damping must lie in (0, 1]")
    if not (np.isfinite(tol) and tol > 0.0):
        raise DomainError("tol must be a finite positive number")
    if max_iter < 1:
        raise DomainError("max_iter must be at least 1")
    if grid is None:
        grid = GaussianGrid()
    v = grid.points
    d_ext = grid.extended_points
    X = v.copy()  # start from the mimicking schedule
    residual = np.inf
    converged = False
    it = 0
    P_ext = _price_on(d_ext, _extend_demand(X, grid), grid)
    for it in range(1, max_iter + 1):
        X_new = gaussian_best_response(P_ext, penalty, grid)
        X_next = (1.0 - damping) * X + damping * X_new
        X_next = 0.5 * (X_next - X_next[::-1])  # enforce oddness
        residual = float(np.max(np.abs(X_next - X)))
        X = X_next
        P_ext = _price_on(d_ext, _extend_demand(X, grid), grid)
        if residual < tol:
            converged = True
            break
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
        flags={"monotone": monotone},
    )
