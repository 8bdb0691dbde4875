"""Admissible penalty functions.

A penalty is a symmetric, non-decreasing, left-continuous cost schedule on
[-1, 1] with C(0) = 0.  Closed-form families used throughout the package are
provided alongside a generic tabulated form.  Penalties are stored on [0, 1]
only; negative arguments are mirrored, which enforces symmetry by
construction.
"""

from __future__ import annotations

import math
from numbers import Real

import numpy as np

from .errors import DomainError


def _as_pos_array(x):
    """Return (|x| array, scalar flag) after the |x| <= 1 domain check."""
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) > 1.0 + 1e-12):
        raise DomainError("penalty argument outside [-1, 1]")
    return np.abs(arr), arr.ndim == 0


def _on_unit(rows) -> list[tuple]:
    """Rows cut to [0, 1], dropping the empty ones."""
    return [(a, min(b, 1.0), *rest) for a, b, *rest in rows if a < min(b, 1.0)]


class Penalty:
    """Base class. Subclasses implement ``_value_pos`` on [0, 1]."""

    kind = "base"

    def _value_pos(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value(self, x):
        """Pointwise C(|x|), left-continuous at jumps. Domain |x| <= 1."""
        pos, scalar = _as_pos_array(x)
        out = self._value_pos(np.minimum(pos, 1.0))
        return float(out) if scalar else out

    def pieces(self) -> list[tuple]:
        """C on [0, 1] as rows ``(a, b, c0, c1, c2, jump)``.

        On (a, b] the penalty is c0 + c1 x + c2 x^2; the rows are contiguous
        from 0 to 1, and ``jump`` says that C jumps up at a (C(0) = 0 always,
        so a first row with c0 > 0 jumps at the origin).
        """
        raise NotImplementedError

    def right_limit(self, x: float) -> float:
        """lim_{t -> x+} C(t) for 0 <= x < 1. Equals value(x) when continuous."""
        if x >= 1.0:
            return float(self._value_pos(np.asarray(1.0)))
        for a, b, c0, c1, c2, _ in self.pieces():
            if a <= x < b:
                return c0 + c1 * x + c2 * x * x

    def breakpoints(self) -> tuple[float, ...]:
        """Points in [0, 1) where C jumps or kinks; used to split argmax searches."""
        return tuple(a for a, _, _, _, _, jump in self.pieces() if a > 0.0 or jump)

    def value_extended(self, x):
        """Family formula evaluated without the [-1, 1] restriction."""
        arr = np.asarray(x, dtype=float)
        out = self._value_pos(np.abs(arr))
        return float(out) if arr.ndim == 0 else out

    def to_json(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.to_json()})"


class ZeroPenalty(Penalty):
    kind = "zero"

    def _value_pos(self, x):
        return np.zeros_like(x)

    def pieces(self):
        return [(0.0, 1.0, 0.0, 0.0, 0.0, False)]

    def to_json(self):
        return {"kind": "zero"}


class ConstantNonzeroPenalty(Penalty):
    """C(x) = K for every nonzero trade."""

    kind = "constant_nonzero"

    def __init__(self, K: float):
        if K < 0:
            raise DomainError("K must be nonnegative")
        self.K = float(K)

    def _value_pos(self, x):
        return np.where(x > 0, self.K, 0.0)

    def pieces(self):
        return [(0.0, 1.0, self.K, 0.0, 0.0, self.K > 0.0)]

    def to_json(self):
        return {"kind": "constant_nonzero", "K": self.K}


class ConstantAbovePenalty(Penalty):
    """C(x) = K for trades of magnitude above x0, zero otherwise."""

    kind = "constant_above"

    def __init__(self, K: float, x0: float):
        if K < 0 or x0 < 0:
            raise DomainError("K and x0 must be nonnegative")
        self.K = float(K)
        self.x0 = float(x0)

    def _value_pos(self, x):
        return np.where(x > self.x0, self.K, 0.0)

    def pieces(self):
        return _on_unit([(0.0, self.x0, 0.0, 0.0, 0.0, False), (self.x0, 1.0, self.K, 0.0, 0.0, self.K > 0.0)])

    def to_json(self):
        return {"kind": "constant_above", "K": self.K, "x0": self.x0}


class LinearPenalty(Penalty):
    kind = "linear"

    def __init__(self, alpha: float):
        if alpha < 0:
            raise DomainError("alpha must be nonnegative")
        self.alpha = float(alpha)

    def _value_pos(self, x):
        return self.alpha * x

    def pieces(self):
        return [(0.0, 1.0, 0.0, self.alpha, 0.0, False)]

    def to_json(self):
        return {"kind": "linear", "alpha": self.alpha}


class QuadraticPenalty(Penalty):
    kind = "quadratic"

    def __init__(self, alpha: float):
        if alpha < 0:
            raise DomainError("alpha must be nonnegative")
        self.alpha = float(alpha)

    def _value_pos(self, x):
        return self.alpha * x * x

    def pieces(self):
        return [(0.0, 1.0, 0.0, 0.0, self.alpha, False)]

    def to_json(self):
        return {"kind": "quadratic", "alpha": self.alpha}


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

    def _value_pos(self, x):
        s = self.cutoff
        return np.where(x <= s, x * (s - 0.5 * x), self.K)

    def pieces(self):
        s = self.cutoff
        return _on_unit([(0.0, s, 0.0, s, -0.5, False), (s, 1.0, self.K, 0.0, 0.0, False)])

    def to_json(self):
        return {"kind": "optimal_canonical", "K": self.K}


class SurfaceOptimalPenalty(Penalty):
    """Budget-efficient penalty: C(x) = v1|x| - (v1/2v2)x^2 below v2, flat above."""

    kind = "surface"

    def __init__(self, v1: float, v2: float):
        if not (0.0 <= v1 <= v2 <= 1.0) or v2 <= 0.0:
            raise DomainError("need 0 <= v1 <= v2 <= 1 with v2 > 0")
        self.v1 = float(v1)
        self.v2 = float(v2)

    def _value_pos(self, x):
        cap = 0.5 * self.v1 * self.v2
        inner = self.v1 * x - (self.v1 / (2.0 * self.v2)) * x * x
        return np.where(x <= self.v2, inner, cap)

    def pieces(self):
        v1, v2 = self.v1, self.v2
        return _on_unit([(0.0, v2, 0.0, v1, -(v1 / (2.0 * v2)), False), (v2, 1.0, 0.5 * v1 * v2, 0.0, 0.0, False)])

    def to_json(self):
        return {"kind": "surface", "v1": self.v1, "v2": self.v2}


class TabulatedPenalty(Penalty):
    """Piecewise-linear penalty given by breakpoints on [0, 1].

    Each point is ``(x, value, jump_after)`` or ``(x, value, jump_after,
    right_value)``.  The stored value applies AT x (left-continuity); when
    ``jump_after`` is set the next segment starts at ``right_value``
    (defaulting to the next point's value, i.e. a jump followed by a flat
    segment).  Mirrored to [-1, 0] by symmetry.
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

    def _value_pos(self, x):
        shape = np.shape(x)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        # segment index: x in (xs[k], xs[k+1]] uses interpolation towards left[k+1]
        k = np.searchsorted(self.xs, x, side="left")
        out = np.empty_like(x)
        at_node = k < len(self.xs)
        exact = at_node & (self.xs[np.minimum(k, len(self.xs) - 1)] == x)
        out[exact] = self.left[k[exact]]
        mid = ~exact
        km = np.clip(k[mid] - 1, 0, len(self.xs) - 1)
        beyond = k[mid] >= len(self.xs)
        x0 = self.xs[km]
        r0 = self.right[km]
        x1 = np.where(beyond, 1.0, self.xs[np.minimum(km + 1, len(self.xs) - 1)])
        l1 = np.where(beyond, r0, self.left[np.minimum(km + 1, len(self.xs) - 1)])
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.where(x1 > x0, (x[mid] - x0) / np.where(x1 > x0, x1 - x0, 1.0), 0.0)
        out[mid] = r0 + t * (l1 - r0)
        return out.reshape(shape)

    def pieces(self):
        xs, left, right = self.xs.tolist(), self.left.tolist(), self.right.tolist()
        rows = []
        for k, a in enumerate(xs):
            b, end = (xs[k + 1], left[k + 1]) if k + 1 < len(xs) else (1.0, right[k])
            slope = (end - right[k]) / (b - a) if b > a else 0.0
            rows.append((a, b, right[k] - slope * a, slope, 0.0, right[k] > left[k]))
        return _on_unit(rows)

    def value_extended(self, x):
        arr = np.abs(np.asarray(x, dtype=float))
        out = self._value_pos(np.minimum(arr, 1.0))
        return float(out) if np.ndim(x) == 0 else out

    def to_json(self):
        pts = []
        for x, l, r in zip(self.xs, self.left, self.right):
            if r != l:
                pts.append([float(x), float(l), True, float(r)])
            else:
                pts.append([float(x), float(l), False])
        return {"kind": "tabulated", "points": pts}


# kind -> (constructor, required keys in argument order)
_KINDS = {
    "zero": (ZeroPenalty, ()),
    "constant_nonzero": (ConstantNonzeroPenalty, ("K",)),
    "constant_above": (ConstantAbovePenalty, ("K", "x0")),
    "linear": (LinearPenalty, ("alpha",)),
    "quadratic": (QuadraticPenalty, ("alpha",)),
    "optimal_canonical": (OptimalCanonicalPenalty, ("K",)),
    "surface": (SurfaceOptimalPenalty, ("v1", "v2")),
    "tabulated": (TabulatedPenalty, ("points",)),
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


def validate(penalty: Penalty, n_grid: int = 2001) -> ValidationReport:
    """Check the admissibility invariants on a dense grid plus all breakpoints.

    Violations are reported, not raised; the first failed invariant wins.
    """
    if isinstance(penalty, TabulatedPenalty):
        if np.any(penalty.left < 0) or np.any(penalty.right < 0):
            return ValidationReport(False, "nonnegative")
        if np.any(penalty.right < penalty.left - 1e-15):
            return ValidationReport(False, "left-continuous (downward jump)")
    grid = np.union1d(np.linspace(0.0, 1.0, n_grid), np.asarray(penalty.breakpoints()))
    vals = penalty.value(grid)
    if abs(penalty.value(0.0)) > 1e-15:
        return ValidationReport(False, "C(0) = 0")
    if np.any(vals < -1e-15):
        return ValidationReport(False, "nonnegative")
    if np.any(np.diff(vals) < -1e-12):
        return ValidationReport(False, "non-decreasing")
    a, right = np.asarray([(a, c0 + c1 * a + c2 * a * a) for a, _, c0, c1, c2, _ in penalty.pieces()]).T
    if np.any(right < penalty.value(a) - 1e-12):
        return ValidationReport(False, "non-decreasing")
    sym = penalty.value(-grid)
    if np.any(sym != vals):
        return ValidationReport(False, "symmetric")
    return ValidationReport(True)


def is_in_optimal_class(penalty: Penalty, tol: float = 1e-9, n_grid: int = 10_000):
    """Return the K in [0, 1/2] for which the penalty sits in the optimal class.

    Membership requires C to dominate the envelope x(sqrt(2K) - x/2) up to
    sqrt(2K) and to be flat at K above.  The flat condition forces K = C(1),
    so K is recovered there and both conditions are checked on a grid.
    Returns None if no such K exists.
    """
    K = penalty.value(1.0)
    if K < -tol or K > 0.5 + tol:
        return None
    K = min(max(K, 0.0), 0.5)
    s = math.sqrt(2.0 * K)
    if s < 1.0:
        flat = np.linspace(np.nextafter(s, 1.0), 1.0, n_grid)
        if np.any(np.abs(penalty.value(flat) - K) > tol):
            return None
    if s > 0.0:
        xs = np.union1d(
            np.linspace(0.0, min(s, 1.0), n_grid),
            np.asarray([b for b in penalty.breakpoints() if b <= s]),
        )
        envelope = xs * (s - 0.5 * xs)
        if np.any(penalty.value(xs) - envelope < -tol):
            return None
    return K
