"""Mapping between general uniform supports and the normalized model."""

import numpy as np
import pytest

import kylepen as kp
from conftest import random_tabulated_penalty, reference_formula, value_extended
from kylepen.errors import DomainError


def test_spec_validation():
    with pytest.raises(DomainError):
        kp.SupportSpec(-1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        kp.SupportSpec(1.0, 2.0, 1.0)


def test_identity_spec_is_identity():
    spec = kp.SupportSpec(1.0, -1.0, 1.0)
    assert spec.is_identity
    pen = kp.ConstantNonzeroPenalty(0.2)
    assert kp.normalize_penalty(pen, spec).K == pytest.approx(0.2)


def test_constant_normalization():
    # the objective rescales by a*sigma, so constant levels divide by it
    spec = kp.SupportSpec(2.0, 0.0, 4.0)
    pen0 = kp.normalize_penalty(kp.ConstantNonzeroPenalty(0.4), spec)
    assert pen0.K == pytest.approx(0.4 / (2.0 * 2.0))


def test_linear_and_quadratic_normalization():
    spec = kp.SupportSpec(2.0, 0.0, 4.0)
    lin0 = kp.normalize_penalty(kp.LinearPenalty(0.3), spec)
    assert lin0.alpha == pytest.approx(0.3 / 2.0)
    quad0 = kp.normalize_penalty(kp.QuadraticPenalty(0.3), spec)
    assert quad0.alpha == pytest.approx(0.3 * 2.0 / 2.0)


def test_normalize_preserves_admissibility(rng):
    spec = kp.SupportSpec(1.7, -0.4, 2.2)
    for pen in (
        kp.ConstantAbovePenalty(0.3, 0.2),
        kp.TabulatedPenalty([[0.0, 0.0, False], [0.8, 0.1, False], [1.7, 0.5, False]]),
    ):
        pen0 = kp.normalize_penalty(pen, spec)
        assert kp.validate(pen0).ok


def test_support_round_trip(rng):
    # C0(x / a) a sigma = C(x) for every kind that normalizes, at random x and
    # at every breakpoint.  The original side is the per-kind formula in the
    # penalty's own units: a table's value_extended stays flat past its
    # x = 1, which for a > 1 lies inside the noise support [-a, a].
    for _ in range(100):
        a, sigma = rng.uniform(0.25, 4.0), rng.uniform(0.25, 2.0)
        b = rng.uniform(-2.0, 2.0)
        spec = kp.SupportSpec(a, b, b + 2.0 * sigma)
        scale = spec.a * spec.sigma
        table = random_tabulated_penalty(rng).to_json()["points"]
        for pen in (
            kp.ZeroPenalty(),
            kp.ConstantNonzeroPenalty(rng.uniform(0.0, 0.5) * scale),
            kp.ConstantAbovePenalty(rng.uniform(0.0, 0.5) * scale, rng.uniform(0.0, 1.5) * a),
            kp.LinearPenalty(rng.uniform(0.0, 1.0) * spec.sigma),
            kp.QuadraticPenalty(rng.uniform(0.0, 2.0) * spec.sigma / a),
            kp.TabulatedPenalty([[x * a, *rest] for x, *rest in table]),
        ):
            pen0 = kp.normalize_penalty(pen, spec)
            assert pen0.kind == pen.kind
            knots = np.array([row[0] for row in pen._rows()])
            x = np.concatenate([rng.uniform(-3.0 * a, 3.0 * a, 200), knots, -knots])
            got = value_extended(pen0, x / spec.a) * scale
            assert np.max(np.abs(got - reference_formula(pen, x))) <= 1e-12


def test_normalize_rejects_normalized_only_kinds():
    spec = kp.SupportSpec(2.0, 0.0, 4.0)
    with pytest.raises(DomainError):
        kp.normalize_penalty(kp.SurfaceOptimalPenalty(0.5, 0.75), spec)


@pytest.mark.parametrize(
    "penalty",
    [kp.ConstantAbovePenalty(0.1, 0.3), kp.TabulatedPenalty([[0.0, 0.0, False], [0.5, 0.1, False]])],
    ids=["constant-above", "tabulated"],
)
def test_rescaled_names_the_support_when_it_overflows(penalty):
    """a*sigma = 1e-320 sends every positive level to inf; the error says
    so, not that a parameter the user never wrote is infinite."""
    with pytest.raises(DomainError) as err:
        kp.normalize_penalty(penalty, kp.SupportSpec(1e-320, -1.0, 1.0))
    assert str(err.value) == "penalty does not rescale to a finite one on this support"


def test_cutoffs_formula():
    spec = kp.SupportSpec(2.0, 0.0, 4.0)
    lo, hi = kp.threshold_cutoffs(0.4, spec)
    assert lo == pytest.approx(2.0 - np.sqrt(0.8))
    assert hi == pytest.approx(2.0 + np.sqrt(0.8))


def test_solved_cutoffs_match_formula(rng):
    for _ in range(10):
        a = rng.uniform(0.5, 3.0)
        b = rng.uniform(-3.0, 1.0)
        c = b + rng.uniform(0.5, 4.0)
        spec = kp.SupportSpec(a, b, c)
        K = rng.uniform(0.01, 0.24) * (a * spec.sigma)
        sol0 = kp.solve_equilibrium(
            kp.normalize_penalty(kp.ConstantNonzeroPenalty(K), spec)
        )
        den = kp.DenormalizedSolution(spec, sol0)
        lo, hi = kp.threshold_cutoffs(K, spec)
        eps = 1e-9 * max(1.0, abs(hi))
        assert abs(den.demand(hi - eps)) < 1e-10
        assert den.demand(min(hi + 1e-6, c)) != 0.0


def test_mimicking_map():
    spec = kp.SupportSpec(2.0, 0.0, 4.0)
    sol0 = kp.solve_equilibrium(kp.ZeroPenalty())
    den = kp.DenormalizedSolution(spec, sol0)
    vs = np.linspace(0.0, 4.0, 41)
    assert np.allclose([den.demand(v) for v in vs], vs - 2.0, atol=1e-12)


def test_round_trip_on_probe_grid(rng):
    # normalize, solve, denormalize; compare against the directly mapped
    # closed form on the original support
    spec = kp.SupportSpec(1.5, -2.0, 1.0)
    alpha = 0.4
    pen0 = kp.normalize_penalty(kp.QuadraticPenalty(alpha), spec)
    den = kp.DenormalizedSolution(spec, kp.solve_equilibrium(pen0))
    beta0 = 1.0 / (1.0 + 2.0 * pen0.alpha)
    vs = np.linspace(-2.0, 1.0, 31)
    expect = spec.a * beta0 * spec.to_unit(vs)
    assert np.allclose([den.demand(v) for v in vs], expect, atol=1e-12)


def test_denormalized_price_is_the_posterior_midpoint():
    # v is uniform on [b, c] and u on [-a, a], and X is non-decreasing, so
    # given d the posterior of v is uniform on the interval
    # {v : |X(v) - d| <= a}, and P(d) is its midpoint.  On a v-grid of step h
    # each end of that interval is off by less than h, the midpoint by less
    # than h / 2.
    spec = kp.SupportSpec(1.5, -1.0, 2.0)
    vs = np.linspace(spec.b, spec.c, 400_001)
    step = vs[1] - vs[0]
    for pen in (
        kp.QuadraticPenalty(0.3),
        kp.ConstantAbovePenalty(0.2, 0.5),
        kp.TabulatedPenalty([[0.0, 0.0, False], [0.6, 0.1, True, 0.3], [1.5, 0.4, False]]),
    ):
        den = kp.DenormalizedSolution(spec, kp.solve_equilibrium(kp.normalize_penalty(pen, spec)))
        demand = den.demand(vs)
        for d in np.linspace(demand[0] - spec.a, demand[-1] + spec.a, 203)[1:-1]:
            inside = vs[np.abs(demand - d) <= spec.a]
            assert abs(den.price(d) - 0.5 * (inside[0] + inside[-1])) <= step


def test_metric_scaling():
    spec = kp.SupportSpec(2.0, 0.0, 4.0)
    sol0 = kp.solve_equilibrium(kp.ZeroPenalty())
    den = kp.DenormalizedSolution(spec, sol0)
    m0 = kp.compute_metrics(sol0.schedule)
    m = den.metrics()
    assert m.G == pytest.approx(spec.a * spec.sigma * m0.G)
    assert m.S == pytest.approx(spec.sigma * m0.S)


def test_ranking_preservation(rng):
    spec = kp.SupportSpec(2.0, -1.0, 3.0)
    for _ in range(20):
        p1 = kp.QuadraticPenalty(float(rng.uniform(0.0, 2.0)))
        p2 = kp.LinearPenalty(float(rng.uniform(0.0, 1.5)))

        def both(p):
            sol = kp.solve_equilibrium(kp.normalize_penalty(p, spec))
            return kp.compute_metrics(sol.schedule), kp.DenormalizedSolution(spec, sol).metrics()

        n1, o1 = both(p1)
        n2, o2 = both(p2)
        for attr in ("G", "S", "F"):
            dn = getattr(n1, attr) - getattr(n2, attr)
            do = getattr(o1, attr) - getattr(o2, attr)
            assert dn * do >= -1e-15
