"""Odd non-decreasing demand schedules with jumps, and their generalized inverses.

A demand schedule and its generalized inverse are the same kind of map: odd,
non-decreasing and piecewise linear with jumps, where the jumps of one are
the flats of the other.  Both are stored as an :class:`OddMap`: nodes on
[0, top] with one-sided values; queries on negative arguments mirror through
oddness.  One evaluator and one running-integral table serve both.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DomainError

# rounding slack, shared by every module
EDGE_TOL = 1e-12  # a quantity this far past a bound it should meet is on it
ORDER_TOL = 1e-15  # values this far out of order, or below zero, are in order
_LARGEST = np.finfo(float).max


def rows_with_jumps(f, lo, hi, n, at, below, above):
    """(t, f(t)) rows on n uniform points of [lo, hi], and two rows at each
    jump t in ``at``, with the one-sided values ``below`` and ``above``;
    sorted, so that plots render verticals faithfully."""
    if n < 2:
        raise DomainError("need at least 2 sample points")
    grid = np.linspace(lo, hi, n)
    ts, fs = np.concatenate((grid, at, at)), np.concatenate((f(grid), below, above))
    return sorted(zip(ts.tolist(), fs.tolist()))


class OddMap:
    """Odd piecewise-linear map with jumps, stored on [0, top].

    ``nodes`` increases from 0; a query exactly at node k reads ``left[k]``
    or ``right[k]``.  Between nodes the map runs linearly from right[k] to
    left[k+1], past the last node it stays at right[-1], and a negative
    argument reads the mirror image of its absolute value.
    """

    def __init__(self, nodes, left, right):
        self.nodes, self.left, self.right = nodes, left, right

    @cached_property
    def _slopes(self):
        """(width, rise) of every segment, built on the first query.  One
        more segment past the last node is infinitely wide and flat, so the
        map stays at right[-1] there without a case of its own."""
        width = np.append(np.diff(self.nodes), np.inf)
        return width, np.append(self.left[1:] - self.right[:-1], 0.0)

    @cached_property
    def _cum(self):
        """Running integral over whole segments.  A whole segment adds the
        partial term of ``integral`` taken at its right end, so the table
        holds the same sums a segment-by-segment walk would add."""
        width, rise = self._slopes
        r = self.right[:-1]
        return np.concatenate(([0.0], np.cumsum(width[:-1] * 0.5 * (r + (rise[:-1] + r)))))

    def _locate(self, a):
        """Segment k (node k is the last one <= a), the offset a - nodes[k]
        and the linear value there, for an array a >= 0 that it may clamp."""
        width, rise = self._slopes
        np.minimum(a, _LARGEST, out=a)  # an infinite argument lies in the tail too
        k = np.searchsorted(self.nodes, a, side="right")
        k -= 1
        off = a - self.nodes[k]
        val = off / width[k]
        val *= rise[k]
        val += self.right[k]
        return k, off, val

    def value(self, x, upper=False):
        """The map at x, elementwise.  Where |x| is node k this reads right[k]
        if ``upper`` else left[k], then mirrors for x < 0; so ``upper=False``
        reads the value toward zero, ``upper = x < 0`` the left limit and
        ``upper = x >= 0`` the right limit."""
        shape = np.shape(x)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        k, off, out = self._locate(np.abs(x))
        at = off == 0.0
        np.logical_and(at, np.logical_not(upper), out=at)
        out[at] = self.left[k[at]]
        del k, off  # the mirror below allocates two arrays of this size
        out = np.where(x < 0, -out, out)
        return float(out[0]) if shape == () else out.reshape(shape)

    def integral(self, t):
        """Exact integral of the map over [0, |t|], elementwise; the map is
        odd, so this antiderivative is even.  The first call builds the
        running table ``_cum`` in O(n); each query then costs one search."""
        shape = np.shape(t)
        k, off, val = self._locate(np.abs(np.atleast_1d(np.asarray(t, dtype=float))))
        out = self._cum[k] + off * 0.5 * (self.right[k] + val)
        return float(out[0]) if shape == () else out.reshape(shape)

    def segment_arrays(self):
        """(v0, v1, a, b): each linear piece runs from (v0, a) to (v1, b)."""
        return self.nodes[:-1], self.nodes[1:], self.right[:-1], self.left[1:]


class DemandSchedule(OddMap):
    """Piecewise-linear-with-jumps map v -> X(v), odd and non-decreasing.

    ``nodes`` is an increasing grid 0 = v_0 < ... < v_m = 1; ``left[k]`` and
    ``right[k]`` are the one-sided values at node k, and X(0) = left[0] = 0.
    At a jump X takes the value toward zero: left-continuous for v > 0 and,
    by oddness, right-continuous for v < 0.
    """

    def __init__(self, nodes, left, right):
        nodes = np.asarray(nodes, dtype=float)
        left = np.asarray(left, dtype=float)
        right = np.asarray(right, dtype=float)
        # scalar checks: for the few nodes of most schedules a loop costs
        # less than numpy reductions, and it is O(n) either way
        nl, ll, rl = nodes.tolist(), left.tolist(), right.tolist()
        if nl[0] != 0.0 or nl[-1] != 1.0:
            raise DomainError("nodes must span [0, 1]")
        if ll[0] != 0.0:
            raise DomainError("X(0) must be 0")
        for k in range(len(nl)):
            if k and nl[k] <= nl[k - 1]:
                raise DomainError("nodes must be strictly increasing")
            if ll[k] > rl[k] + ORDER_TOL or (k and rl[k - 1] > ll[k] + ORDER_TOL):
                raise DomainError("schedule must be non-decreasing")
            if ll[k] < -ORDER_TOL or rl[k] > 1.0 + EDGE_TOL:
                raise DomainError("values must lie in [0, 1]")
        left = np.minimum(left, right)
        right = np.minimum(right, 1.0)
        # value at v = 1 is the left-continuous one
        right[-1] = left[-1]
        super().__init__(nodes, left, right)

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

    def evaluate(self, v):
        if np.any(np.abs(v) > 1.0 + EDGE_TOL):
            raise DomainError("schedule argument outside [-1, 1]")
        return self.value(v) + 0.0  # normalise -0.0

    # ------------------------------------------------------------------
    # generalized inverses
    # ------------------------------------------------------------------
    @cached_property
    def inverse(self) -> OddMap:
        """The generalized inverse as an OddMap on [0, x_max].

        At a level x its left value is inf{v : X(v) >= x} and its right
        value sup{v : X(v) <= x}; past x_max it stays at 1.  The levels are
        the one-sided values of X in order, each node's left then right one.
        """
        levels = np.maximum.accumulate(np.column_stack((self.left, self.right)).ravel())
        v = np.repeat(self.nodes, 2)
        new = np.flatnonzero(np.diff(levels)) + 1  # where a higher level starts
        first, last = np.r_[0, new], np.r_[new - 1, len(levels) - 1]
        lo, hi = v[first], v[last]
        lo[0] = -hi[0]  # oddness at x = 0
        return OddMap(levels[first], lo, hi)

    def inverse_left(self, x):
        """inf{v : X(v) >= x} over the full domain [-1, 1]."""
        x = self._inverse_arg(x)
        return self.inverse.value(x, x < 0)

    def inverse_right(self, x):
        """sup{v : X(v) <= x} over the full domain [-1, 1]."""
        x = self._inverse_arg(x)
        return self.inverse.value(x, x >= 0)

    def _inverse_arg(self, x):
        xm = self.x_max
        if np.any(np.abs(x) > xm + EDGE_TOL):
            raise DomainError("inverse argument outside [-x_max, x_max]")
        return np.clip(x, -xm, xm)

    # ------------------------------------------------------------------
    # exact polynomial integrals over the piecewise representation
    # ------------------------------------------------------------------
    def integral_upto(self, v: float) -> float:
        """Exact integral of X over [0, v] (odd integrand, so |v| suffices)."""
        if abs(v) > 1.0 + EDGE_TOL:
            raise DomainError("argument outside [-1, 1]")
        return self.integral(min(abs(v), 1.0))

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def sample_rows(self, n: int = 1001):
        """(v, X(v)) rows on a uniform grid with duplicated rows at jumps."""
        jump = self.right > self.left
        v, lo, hi = self.nodes[jump], self.left[jump], self.right[jump]
        pos = v > 0.0  # a jump at the origin has no mirror image
        below, above = np.concatenate((lo, -hi[pos])), np.concatenate((hi, -lo[pos]))
        return rows_with_jumps(self.evaluate, -1.0, 1.0, n, np.concatenate((v, -v[pos])), below, above)

    def __repr__(self):
        return f"DemandSchedule(nodes={self.nodes!r}, x_max={self.x_max:.6g})"
