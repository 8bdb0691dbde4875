"""Admissible penalty functions.

A penalty is a symmetric, non-decreasing, left-continuous cost schedule on
[-1, 1] with C(0) = 0.  Closed-form families used throughout the package are
provided alongside a generic tabulated form.  Every kind is stored as
quadratic rows on [0, inf); negative arguments are mirrored, which enforces
symmetry by construction.
"""

from __future__ import annotations

import math
from functools import cached_property
from numbers import Real

import numpy as np

from .errors import DomainError
from .schedules import EDGE_TOL, ORDER_TOL


def _as_pos_array(x):
    """Return (|x| array, scalar flag) after the |x| <= 1 domain check."""
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) > 1.0 + EDGE_TOL):
        raise DomainError("penalty argument outside [-1, 1]")
    return np.abs(arr), arr.ndim == 0


def _on_unit(rows) -> list[tuple]:
    """Rows cut to [0, 1], dropping the empty ones."""
    return [(a, min(b, 1.0), *rest) for a, b, *rest in rows if a < min(b, 1.0)]


def _horner(c0, c1, c2, x):
    """c0 + c1 x + c2 x^2, the one polynomial form every row is evaluated in."""
    return c0 + x * (c1 + x * c2)


class Penalty:
    """Base class. Each kind describes itself once, by ``_rows``; evaluation,
    ``pieces`` and the checks below derive from those rows."""

    kind = "base"

    def _rows(self) -> list[tuple]:
        """C on [0, inf) as rows ``(a, b, c0, c1, c2, jump)``, the last one
        unbounded; past 1 closed forms continue their formula."""
        raise NotImplementedError

    @cached_property
    def _table(self):
        """Row starts and coefficient arrays, with a leading zero row for C(0) = 0."""
        rows = self._rows()
        a = np.array([r[0] for r in rows])
        c0, c1, c2 = np.array([(0.0, 0.0, 0.0)] + [r[2:5] for r in rows]).T
        return a, c0, c1, c2

    def coefficients(self, x):
        """(c0, c1, c2) of the row holding each x >= 0, so that C(x) = c0 +
        c1 x + c2 x^2 with C left-continuous (the zero row at x = 0)."""
        a, c0, c1, c2 = self._table
        k = np.searchsorted(a, x)
        return c0[k], c1[k], c2[k]

    def row_starts(self, top: float) -> np.ndarray:
        """Row starts in (0, top): every x > 0 where C, continued past 1 by
        its last row, may jump or kink."""
        a = self._table[0]
        return a[(a > 0.0) & (a < top)]

    def value(self, x):
        """Pointwise C(|x|), left-continuous at jumps. Domain |x| <= 1."""
        pos, scalar = _as_pos_array(x)
        x = np.minimum(pos, 1.0)
        out = _horner(*self.coefficients(x), x)
        return float(out) if scalar else out

    def pieces(self) -> list[tuple]:
        """C on [0, 1] as rows ``(a, b, c0, c1, c2, jump)``.

        On (a, b] the penalty is c0 + c1 x + c2 x^2; the rows are contiguous
        from 0 to 1, and ``jump`` says that C jumps up at a (C(0) = 0 always,
        so a first row with c0 > 0 jumps at the origin).
        """
        return _on_unit(self._rows())

    def breakpoints(self) -> tuple[float, ...]:
        """Points in [0, 1) where C jumps or kinks; the Gaussian best response
        checks each as a tie candidate."""
        return tuple(a for a, _, _, _, _, jump in self.pieces() if a > 0.0 or jump)

    def to_json(self) -> dict:
        """The JSON description ``penalty_from_json`` reads back: the kind and
        its ``_KINDS`` keys, each read from the attribute of that name."""
        return {"kind": self.kind, **{key: getattr(self, key) for key in _KINDS[self.kind][1]}}

    def rescaled(self, a: float, sigma: float) -> Penalty:
        """Penalty of the normalized model, C0(x0) = C(a x0) / (a sigma), for
        noise half-width a and fundamental half-width sigma.

        The divisor a*sigma is the factor by which the insider's objective
        rescales under the change of variables, so the normalized game has
        the same argmax structure as the original one.  The result is built
        by ``penalty_from_json``, whose checks refuse a parameter that
        rescales to a non-finite number.
        """
        rescale = _KINDS[self.kind][1]
        if None in rescale.values():
            raise DomainError("penalty kind has no defined meaning on general supports")
        params = self.to_json()
        scaled = {"kind": self.kind, **{key: f(params[key], a, sigma) for key, f in rescale.items()}}
        try:
            return penalty_from_json(scaled)
        except DomainError:
            raise DomainError("penalty does not rescale to a finite one on this support") from None

    def __repr__(self):
        return f"{type(self).__name__}({self.to_json()})"


class ZeroPenalty(Penalty):
    kind = "zero"

    def _rows(self):
        return [(0.0, math.inf, 0.0, 0.0, 0.0, False)]


class ConstantNonzeroPenalty(Penalty):
    """C(x) = K for every nonzero trade."""

    kind = "constant_nonzero"

    def __init__(self, K: float):
        if K < 0:
            raise DomainError("K must be nonnegative")
        self.K = float(K)

    def _rows(self):
        return [(0.0, math.inf, self.K, 0.0, 0.0, self.K > 0.0)]


class ConstantAbovePenalty(Penalty):
    """C(x) = K for trades of magnitude above x0, zero otherwise."""

    kind = "constant_above"

    def __init__(self, K: float, x0: float):
        if K < 0 or x0 < 0:
            raise DomainError("K and x0 must be nonnegative")
        self.K = float(K)
        self.x0 = float(x0)

    def _rows(self):
        return [(0.0, self.x0, 0.0, 0.0, 0.0, False), (self.x0, math.inf, self.K, 0.0, 0.0, self.K > 0.0)]


class LinearPenalty(Penalty):
    kind = "linear"

    def __init__(self, alpha: float):
        if alpha < 0:
            raise DomainError("alpha must be nonnegative")
        self.alpha = float(alpha)

    def _rows(self):
        return [(0.0, math.inf, 0.0, self.alpha, 0.0, False)]


class QuadraticPenalty(Penalty):
    kind = "quadratic"

    def __init__(self, alpha: float):
        if alpha < 0:
            raise DomainError("alpha must be nonnegative")
        self.alpha = float(alpha)

    def _rows(self):
        return [(0.0, math.inf, 0.0, 0.0, self.alpha, False)]


class OptimalCanonicalPenalty(Penalty):
    """Canonical member of the optimal class: the lower envelope itself.

    C(x) = x(sqrt(2K) - x/2) for x <= sqrt(2K), flat at K above.
    """

    kind = "optimal_canonical"

    def __init__(self, K: float):
        if not 0.0 <= K <= 0.5:
            raise DomainError("K must lie in [0, 1/2]")
        self.K = float(K)
        self.cutoff = math.sqrt(2.0 * self.K)

    def _rows(self):
        s = self.cutoff
        return [(0.0, s, 0.0, s, -0.5, False), (s, math.inf, self.K, 0.0, 0.0, False)]


class SurfaceOptimalPenalty(Penalty):
    """Budget-efficient penalty: C(x) = v1|x| - (v1/2v2)x^2 below v2, flat above."""

    kind = "surface"

    def __init__(self, v1: float, v2: float):
        if not (0.0 <= v1 <= v2 <= 1.0) or v2 <= 0.0:
            raise DomainError("need 0 <= v1 <= v2 <= 1 with v2 > 0")
        self.v1 = float(v1)
        self.v2 = float(v2)

    def _rows(self):
        v1, v2 = self.v1, self.v2
        return [(0.0, v2, 0.0, v1, -(v1 / (2.0 * v2)), False), (v2, math.inf, 0.5 * v1 * v2, 0.0, 0.0, False)]


class TabulatedPenalty(Penalty):
    """Piecewise-linear penalty given by breakpoints on [0, 1].

    Each point is ``(x, value, jump_after)`` or ``(x, value, jump_after,
    right_value)``.  The stored value applies AT x (left-continuity); when
    ``jump_after`` is set the next segment starts at ``right_value``
    (defaulting to the next point's value, i.e. a jump followed by a flat
    segment).  Mirrored to [-1, 0] by symmetry.  Past the last point, and
    past 1, the penalty is flat.
    """

    kind = "tabulated"

    def __init__(self, points):
        xs, left, right = [], [], []
        pts = [tuple(p) for p in points]
        if not pts:
            raise DomainError("tabulated penalty needs at least the origin point")
        for i, p in enumerate(pts):
            x, val, jump = float(p[0]), float(p[1]), bool(p[2])
            xs.append(x)
            left.append(val)
            if jump:
                if len(p) > 3:
                    right.append(float(p[3]))
                elif i + 1 < len(pts):
                    right.append(float(pts[i + 1][1]))
                else:
                    raise DomainError("trailing jump needs an explicit right value")
            else:
                right.append(val)
        self.xs = np.asarray(xs)
        self.left = np.asarray(left)
        self.right = np.asarray(right)
        if self.xs[0] != 0.0 or self.left[0] != 0.0:
            raise DomainError("tabulated penalty must start at (0, 0)")
        if np.any(np.diff(self.xs) <= 0):
            raise DomainError("breakpoint abscissae must be strictly increasing")

    def _rows(self):
        xs, left, right = self.xs.tolist(), self.left.tolist(), self.right.tolist()
        rows = []
        for k, a in enumerate(xs):
            b, end = (xs[k + 1], left[k + 1]) if k + 1 < len(xs) else (1.0, right[k])
            slope = (end - right[k]) / (b - a) if b > a else 0.0
            rows.append((a, b, right[k] - slope * a, slope, 0.0, right[k] > left[k]))
        rows = _on_unit(rows)
        c0, c1, c2 = rows[-1][2:5]
        return rows + [(1.0, math.inf, _horner(c0, c1, c2, 1.0), 0.0, 0.0, False)]

    def to_json(self):
        pts = []
        for x, l, r in zip(self.xs, self.left, self.right):
            if r != l:
                pts.append([float(x), float(l), True, float(r)])
            else:
                pts.append([float(x), float(l), False])
        return {"kind": "tabulated", "points": pts}


def _argument(x, a, sigma):
    return x / a


def _level(c, a, sigma):
    return c / (a * sigma)


def _points(points, a, sigma):
    """Tabulated points with each x an argument and each value a level."""
    scale = a * sigma
    return [[x / a, c / scale, jump, *(r / scale for r in right)] for x, c, jump, *right in points]


# kind -> (constructor, {JSON key: rescaling} in argument order), the one
# statement of each kind's JSON schema: ``penalty_from_json`` reads these keys
# and ``Penalty.to_json`` writes them.  A rescaling maps the parameter to that
# of C0(x0) = C(a x0) / (a sigma), the penalty of the normalized model for
# noise half-width a and fundamental half-width sigma (``Penalty.rescaled``);
# None marks a kind defined on the normalized model only.
_KINDS = {
    "zero": (ZeroPenalty, {}),
    "constant_nonzero": (ConstantNonzeroPenalty, {"K": _level}),
    "constant_above": (ConstantAbovePenalty, {"K": _level, "x0": _argument}),
    "linear": (LinearPenalty, {"alpha": lambda alpha, a, sigma: alpha / sigma}),
    "quadratic": (QuadraticPenalty, {"alpha": lambda alpha, a, sigma: alpha * a / sigma}),
    "optimal_canonical": (OptimalCanonicalPenalty, {"K": None}),
    "surface": (SurfaceOptimalPenalty, {"v1": None, "v2": None}),
    "tabulated": (TabulatedPenalty, {"points": _points}),
}


def _finite(value, what: str) -> float:
    """A JSON number that is a finite real; bools and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise DomainError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _tabulated_points(points) -> list:
    if not isinstance(points, (list, tuple)):
        raise DomainError("tabulated points must be a list")
    out = []
    for i, p in enumerate(points):
        if not isinstance(p, (list, tuple)) or len(p) not in (3, 4):
            raise DomainError(f"tabulated point {i} must be [x, value, jump] or [x, value, jump, right_value]")
        x, value, jump, *right = p
        if not isinstance(jump, bool):
            raise DomainError(f"tabulated point {i}: jump must be true or false, got {jump!r}")
        what = f"tabulated point {i}"
        out.append([_finite(x, what), _finite(value, what), jump, *(_finite(r, what) for r in right)])
    return out


def penalty_from_json(spec: dict) -> Penalty:
    """Build a penalty from its JSON description, checking its schema first."""
    if not isinstance(spec, dict):
        raise DomainError("penalty must be a JSON object")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise DomainError(f"unknown penalty kind: {kind!r}")
    maker, keys = _KINDS[kind]
    missing = [k for k in keys if k not in spec]
    if missing:
        raise DomainError(f"{kind} penalty needs {', '.join(missing)}")
    return maker(*(_tabulated_points(spec[k]) if k == "points" else _finite(spec[k], k) for k in keys))


class ValidationReport:
    def __init__(self, ok: bool, violation: str | None = None):
        self.ok = ok
        self.violation = violation

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "ok" if self.ok else f"violation: {self.violation}"


def _extremes(a, b, c0, c1, c2):
    """c0 + c1 x + c2 x^2 at a, at its vertex clipped to [a, b], and at b:
    the three points where a quadratic takes its extremes on [a, b]."""
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = np.where(c2 != 0.0, np.clip(-0.5 * c1 / c2, a, b), a)
    return tuple(_horner(c0, c1, c2, x) for x in (a, vertex, b))


def validate(penalty: Penalty) -> ValidationReport:
    """Check the admissibility invariants exactly, piece by piece.

    A quadratic piece takes its extremes at its ends and its vertex, so those
    points decide every invariant.  Symmetry holds by construction, since C
    is evaluated at |x|.  Violations are reported, not raised; the first
    failed invariant wins.
    """
    a, b, c0, c1, c2, _ = np.asarray(penalty.pieces(), dtype=float).T
    start, vertex, end = _extremes(a, b, c0, c1, c2)  # start is the right limit C(a+)
    # C(0) = 0 holds by construction: the evaluator's leading zero row.
    if not np.all(np.array((start, vertex, end)) >= -ORDER_TOL):
        return ValidationReport(False, "nonnegative")
    if not np.all(start >= np.concatenate(([0.0], end[:-1])) - EDGE_TOL):  # C(a+) >= C(a)
        return ValidationReport(False, "left-continuous (downward jump)")
    if not np.all(np.maximum(start - vertex, vertex - end) <= EDGE_TOL):  # the largest drop inside a piece
        return ValidationReport(False, "non-decreasing")
    return ValidationReport(True)


def is_in_optimal_class(penalty: Penalty, tol: float = 1e-9):
    """Return the K in [0, 1/2] for which the penalty sits in the optimal class.

    Membership requires C to dominate the envelope x(s - x/2), s = sqrt(2K),
    up to s and to be flat at K above.  The flat condition forces K = C(1).
    Both are checked exactly: on each piece, C minus the envelope and C minus
    K are quadratics whose extremes lie at the ends or the vertex.  Returns
    None if no such K exists.
    """
    K = penalty.value(1.0)
    if K < -tol or K > 0.5 + tol:
        return None
    K = min(max(K, 0.0), 0.5)
    s = math.sqrt(2.0 * K)
    a, b, c0, c1, c2, _ = np.asarray(penalty.pieces(), dtype=float).T
    head, tail = a < s, b > s
    below = _extremes(a[head], np.minimum(b[head], s), c0[head], c1[head] - s, c2[head] + 0.5)
    off = _extremes(np.maximum(a[tail], s), b[tail], c0[tail] - K, c1[tail], c2[tail])
    if min(np.min(gap, initial=0.0) for gap in below) < -tol:
        return None
    if max(np.max(np.abs(gap), initial=0.0) for gap in off) > tol:
        return None
    return K
