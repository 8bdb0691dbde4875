"""Odd non-decreasing demand schedules with jumps, and their generalized inverses.

A schedule is stored on [0, 1] only as a list of nodes with one-sided values;
all queries on [-1, 0) mirror through oddness.  The value at an interior jump
follows left-continuity for v > 0 (and by oddness the right value for v < 0);
X(0) = 0 always.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


class DemandSchedule:
    """Piecewise-linear-with-jumps map v -> X(v), odd and non-decreasing.

    ``nodes`` is an increasing grid 0 = v_0 < ... < v_m = 1; ``left[k]`` and
    ``right[k]`` are the one-sided values at node k.  Between nodes the
    schedule interpolates linearly from right[k] to left[k+1].
    """

    def __init__(self, nodes, left, right):
        nodes = np.asarray(nodes, dtype=float)
        left = np.asarray(left, dtype=float)
        right = np.asarray(right, dtype=float)
        # scalar validation: the arrays are tiny, so looping beats reductions
        nl, ll, rl = nodes.tolist(), left.tolist(), right.tolist()
        if nl[0] != 0.0 or nl[-1] != 1.0:
            raise DomainError("nodes must span [0, 1]")
        if ll[0] != 0.0:
            raise DomainError("X(0) must be 0")
        for k in range(len(nl)):
            if k and nl[k] <= nl[k - 1]:
                raise DomainError("nodes must be strictly increasing")
            if ll[k] > rl[k] + 1e-15 or (k and rl[k - 1] > ll[k] + 1e-15):
                raise DomainError("schedule must be non-decreasing")
            if ll[k] < -1e-15 or rl[k] > 1.0 + 1e-12:
                raise DomainError("values must lie in [0, 1]")
        self.nodes = nodes
        self.left = np.minimum(left, right)
        self.right = np.minimum(right, 1.0)
        # value at v = 1 is the left-continuous one
        self.right[-1] = self.left[-1]
        self._inv = None
        self._inv_cum = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls):
        return cls([0.0, 1.0], [0.0, 1.0], [0.0, 1.0])

    @classmethod
    def zero(cls):
        return cls([0.0, 1.0], [0.0, 0.0], [0.0, 0.0])

    @classmethod
    def proportional(cls, beta: float):
        if not 0.0 <= beta <= 1.0:
            raise DomainError("slope must lie in [0, 1]")
        return cls([0.0, 1.0], [0.0, beta], [0.0, beta])

    @classmethod
    def step_mimic(cls, cutoff: float):
        """X(v) = v above the cutoff, 0 below (value 0 AT the cutoff)."""
        if cutoff <= 0.0:
            return cls.identity()
        if cutoff >= 1.0:
            return cls.zero()
        return cls([0.0, cutoff, 1.0], [0.0, 0.0, 1.0], [0.0, cutoff, 1.0])

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    @property
    def x_max(self) -> float:
        """X(1), the largest equilibrium order."""
        return float(self.left[-1])

    def __call__(self, v):
        return self.evaluate(v)

    def evaluate(self, v):
        shape = np.shape(v)
        v = np.atleast_1d(np.asarray(v, dtype=float))
        if np.any(np.abs(v) > 1.0 + 1e-12):
            raise DomainError("schedule argument outside [-1, 1]")
        out = np.sign(v) * self._eval_pos(np.minimum(np.abs(v), 1.0))
        out = out + 0.0  # normalise -0.0
        return float(out[0]) if shape == () else out.reshape(shape)

    def _eval_pos(self, v):
        k = np.searchsorted(self.nodes, v, side="left")
        out = np.empty_like(v)
        exact = self.nodes[np.minimum(k, len(self.nodes) - 1)] == v
        out[exact] = self.left[np.minimum(k, len(self.nodes) - 1)[exact]] if exact.any() else 0.0
        mid = ~exact
        if mid.any():
            km = k[mid] - 1
            v0 = self.nodes[km]
            v1 = self.nodes[km + 1]
            a = self.right[km]
            b = self.left[km + 1]
            out[mid] = a + (b - a) * (v[mid] - v0) / (v1 - v0)
        return out

    # ------------------------------------------------------------------
    # generalized inverses
    # ------------------------------------------------------------------
    def _inverse_pieces(self):
        """Contiguous cover of [0, x_max] in x by linear pieces of the inverse.

        Increasing segments of X invert to linear pieces; jumps of X invert to
        constant pieces; flats of X occupy no x-measure and appear as v-gaps
        between adjacent pieces (where the inverse itself jumps).
        """
        if self._inv is not None:
            return self._inv
        xlo, xhi, vlo, vhi = [], [], [], []
        m = len(self.nodes) - 1
        if self.right[0] > 0.0:  # jump at the origin
            xlo.append(0.0)
            xhi.append(self.right[0])
            vlo.append(0.0)
            vhi.append(0.0)
        for k in range(m):
            a, b = self.right[k], self.left[k + 1]
            if b > a:
                xlo.append(a)
                xhi.append(b)
                vlo.append(self.nodes[k])
                vhi.append(self.nodes[k + 1])
            if k + 1 < m and self.right[k + 1] > self.left[k + 1]:
                xlo.append(self.left[k + 1])
                xhi.append(self.right[k + 1])
                vlo.append(self.nodes[k + 1])
                vhi.append(self.nodes[k + 1])
        self._inv = tuple(np.asarray(a) for a in (xlo, xhi, vlo, vhi))
        return self._inv

    def _inv_pos(self, x, rule: str):
        """Evaluate the inverse on [0, x_max]; boundary x maps to the left or
        right piece according to ``rule``."""
        xlo, xhi, vlo, vhi = self._inverse_pieces()
        x = np.asarray(x, dtype=float)
        if len(xlo) == 0:  # identically-zero schedule
            return np.full_like(x, 1.0 if rule == "right" else 0.0)
        xs = np.append(xlo, xhi[-1])
        side = "left" if rule == "left" else "right"
        i = np.clip(np.searchsorted(xs, x, side=side) - 1, 0, len(xlo) - 1)
        span = xhi[i] - xlo[i]
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.where(span > 0, (x - xlo[i]) / np.where(span > 0, span, 1.0), 0.0)
        return vlo[i] + t * (vhi[i] - vlo[i])

    def inverse_left(self, x):
        """inf{v : X(v) >= x} over the full domain [-1, 1]."""
        return self._inverse(x, left=True)

    def inverse_right(self, x):
        """sup{v : X(v) <= x} over the full domain [-1, 1]."""
        return self._inverse(x, left=False)

    def _inverse(self, x, left: bool):
        shape = np.shape(x)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xm = self.x_max
        if np.any(np.abs(x) > xm + 1e-12):
            raise DomainError("inverse argument outside [-x_max, x_max]")
        x = np.clip(x, -xm, xm)
        out = np.empty_like(x)
        if left:
            pos = x > 0
            out[pos] = self._inv_pos(x[pos], "left")
            out[~pos] = -self._inv_right_boundary(-x[~pos])
        else:
            pos = x >= 0
            out[pos] = self._inv_right_boundary(x[pos])
            out[~pos] = -self._inv_pos(-x[~pos], "left")
        return float(out[0]) if shape == () else out.reshape(shape)

    def _inv_right_boundary(self, x):
        # sup{v : X(v) <= x} for x >= 0; the top of the domain maps to 1
        out = self._inv_pos(x, "right")
        return np.where(x >= self.x_max, 1.0, out)

    def inverse_limit(self, x: float, side: str) -> float:
        """One-sided limit of the (a.e.-common) inverse at x; side is '-' or '+'."""
        if x > 0 or (x == 0 and side == "+"):
            rule = "left" if side == "-" else "right"
            return float(self._inv_pos(np.asarray(min(x, self.x_max)), rule))
        return -self.inverse_limit(-x, "+" if side == "-" else "-")

    def _inverse_areas(self):
        """Running sums of the full-piece integrals of the inverse.

        Entry k is the integral over [0, xhi[k]], summed in piece order exactly
        as a piece-by-piece walk would add it.
        """
        if self._inv_cum is None:
            xlo, xhi, vlo, vhi = self._inverse_pieces()
            frac = np.where(xhi > xlo, 1.0, 0.0)
            vu = vlo + frac * (vhi - vlo)
            self._inv_cum = np.cumsum((xhi - xlo) * 0.5 * (vlo + vu))
        return self._inv_cum

    def inverse_integral(self, p: float, q: float) -> float:
        """Exact integral of the inverse over [p, q] within [-x_max, x_max].

        The left and right inverses agree outside a countable set, so the
        integral is unambiguous.  The first call builds a table of running
        piece integrals in O(n) for n inverse pieces; each call then costs
        O(log n).
        """
        if q < p:
            return -self.inverse_integral(q, p)

        def anti(t):  # integral over [0, t], t >= 0
            xlo, xhi, vlo, vhi = self._inverse_pieces()
            k = int(np.searchsorted(xlo, t, side="left")) - 1  # last piece with xlo < t
            if k < 0:
                return 0.0
            a, b, va, vb = xlo[k], xhi[k], vlo[k], vhi[k]
            u = min(t, b)
            frac = (u - a) / (b - a) if b > a else 0.0
            vu = va + frac * (vb - va)
            below = self._inverse_areas()[k - 1] if k else 0.0
            return below + (u - a) * 0.5 * (va + vu)

        # the inverse is odd a.e., so its antiderivative is even
        return anti(abs(q)) - anti(abs(p))

    # ------------------------------------------------------------------
    # exact polynomial integrals over the piecewise representation
    # ------------------------------------------------------------------
    def segment_arrays(self):
        """(v0, v1, a, b): each linear piece runs from (v0, a) to (v1, b)."""
        return (
            self.nodes[:-1],
            self.nodes[1:],
            self.right[:-1],
            self.left[1:],
        )

    def integral_upto(self, v: float) -> float:
        """Exact integral of X over [0, v] (odd integrand, so |v| suffices)."""
        if abs(v) > 1.0 + 1e-12:
            raise DomainError("argument outside [-1, 1]")
        t = min(abs(v), 1.0)
        v0, v1, a, b = self.segment_arrays()
        total = 0.0
        for p, q, xa, xb in zip(v0, v1, a, b):
            if t <= p:
                break
            u = min(t, q)
            xu = xa + (xb - xa) * (u - p) / (q - p)
            total += (u - p) * 0.5 * (xa + xu)
        return total

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def sample_rows(self, n: int = 1001):
        """(v, X(v)) rows on a uniform grid with duplicated rows at jumps so
        that plots render verticals faithfully."""
        if n < 2:
            raise DomainError("need at least 2 sample points")
        grid = np.linspace(-1.0, 1.0, n)
        rows = list(zip(grid.tolist(), self.evaluate(grid).tolist()))
        for k in np.flatnonzero(self.right > self.left):
            v, lo, hi = float(self.nodes[k]), float(self.left[k]), float(self.right[k])
            if v > 0.0 or self.right[0] > 0.0:
                rows.append((v, lo))
                rows.append((v, hi))
            if v > 0.0:
                rows.append((-v, -lo))
                rows.append((-v, -hi))
        rows.sort(key=lambda r: (r[0], r[1]))
        return rows

    def __repr__(self):
        return f"DemandSchedule(nodes={self.nodes!r}, x_max={self.x_max:.6g})"
