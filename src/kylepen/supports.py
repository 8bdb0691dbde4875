"""Lossless mapping between the normalized model (noise and fundamental both
uniform on [-1, 1]) and general uniform supports u ~ U(-a, a), v ~ U(b, c).

Only the normalized model is ever solved; these transforms rescale penalties
on the way in and solutions on the way out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .metrics import Metrics
from .penalties import Penalty


@dataclass(frozen=True)
class SupportSpec:
    """Half-width a of the noise support and endpoints b < c of the
    fundamental support."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not all(math.isfinite(t) for t in (self.a, self.b, self.c)):
            raise DomainError("support endpoints must be finite numbers")
        if self.a <= 0.0:
            raise DomainError("noise half-width must be positive")
        if self.b >= self.c:
            raise DomainError("fundamental support must satisfy b < c")
        # on Python floats, which overflow to inf where numpy would warn
        a, b, c = float(self.a), float(self.b), float(self.c)
        sigma = 0.5 * (c - b)
        if not (0.0 < sigma < math.inf and 0.0 < a * sigma < math.inf and math.isfinite(0.5 * (b + c))):
            raise DomainError("support out of range: sigma and a*sigma must be finite and positive, (b + c)/2 finite")

    @property
    def m(self) -> float:
        return 0.5 * (self.b + self.c)

    @property
    def sigma(self) -> float:
        return 0.5 * (self.c - self.b)

    def to_unit(self, v):
        """Affine map of the fundamental support onto [-1, 1]."""
        return (np.asarray(v, dtype=float) - self.m) / self.sigma

    def from_unit(self, v0):
        return self.m + self.sigma * np.asarray(v0, dtype=float)

    @property
    def is_identity(self) -> bool:
        return self.a == 1.0 and self.b == -1.0 and self.c == 1.0


def normalize_penalty(penalty: Penalty, spec: SupportSpec) -> Penalty:
    """Penalty of the normalized model: C0(x0) = C(a x0) / (a sigma)."""
    return penalty.rescaled(spec.a, spec.sigma)


@dataclass
class DenormalizedSolution:
    """Equilibrium mapped back to the original supports."""

    spec: SupportSpec
    base: object  # EquilibriumSolution on [-1, 1]

    def demand(self, v):
        """X(v) = a X0(Phi(v)) for v in [b, c]."""
        return self.spec.a * self.base.schedule.evaluate(self.spec.to_unit(v))

    def price(self, d):
        """P(d) = Phi^{-1}(P0(d / a))."""
        return self.spec.from_unit(self.base.price.evaluate(np.asarray(d) / self.spec.a))

    def metrics(self) -> Metrics:
        from .metrics import compute_metrics

        m0 = compute_metrics(self.base.schedule)
        scale = self.spec.a * self.spec.sigma
        return Metrics(
            G=scale * m0.G,
            S=self.spec.sigma * m0.S,
            Pi_N=scale * m0.Pi_N,
            F=scale * m0.F,
        )


def threshold_cutoffs(K: float, spec: SupportSpec):
    """No-trade band endpoints on the original fundamental support for a
    constant penalty of level K: m +- sqrt((c - b) K / a)."""
    half = np.sqrt((spec.c - spec.b) * K / spec.a)
    return spec.m - half, spec.m + half
