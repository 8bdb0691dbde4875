"""Penalty families: construction, admissibility checks, JSON wire format."""

import numpy as np
import pytest

import kylepen as kp
from conftest import reference_formula, reference_right_limit, value_extended
from kylepen.errors import DomainError


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------
def test_zero_penalty_is_zero():
    pen = kp.ZeroPenalty()
    assert pen.value(0.0) == 0.0
    assert pen.value(0.7) == 0.0
    assert pen.value(-1.0) == 0.0


def test_constant_nonzero_left_continuity():
    pen = kp.ConstantNonzeroPenalty(0.2)
    assert pen.value(0.0) == 0.0
    assert pen.value(1e-12) == 0.2
    assert reference_right_limit(pen, 0.0) == 0.2


def test_constant_above_threshold():
    pen = kp.ConstantAbovePenalty(0.2, 0.1)
    assert pen.value(0.1) == 0.0  # left-continuous at the threshold
    assert pen.value(0.1000001) == 0.2
    assert pen.value(-0.5) == 0.2  # symmetry
    assert pen.breakpoints() == (0.1,)


@pytest.mark.parametrize(
    "pen",
    [
        kp.ZeroPenalty(),
        kp.ConstantNonzeroPenalty(0.2),
        kp.ConstantAbovePenalty(0.2, 0.1),
        kp.ConstantAbovePenalty(0.2, 1.5),
        kp.LinearPenalty(0.3),
        kp.QuadraticPenalty(0.125),
        kp.OptimalCanonicalPenalty(0.2),
        kp.SurfaceOptimalPenalty(0.5, 0.75),
        kp.SurfaceOptimalPenalty(0.5, 1.0),
        kp.TabulatedPenalty([[0.0, 0.0, True, 0.1], [0.4, 0.2, False], [0.7, 0.3, True, 0.5], [1.2, 0.6, False]]),
    ],
)
def test_pieces_describe_the_penalty(pen):
    rows = pen.pieces()
    assert rows[0][0] == 0.0 and rows[-1][1] == 1.0
    assert all(b == a_next for (_, b, *_), (a_next, *_) in zip(rows, rows[1:]))
    for a, b, c0, c1, c2, jump in rows:
        x = np.linspace(a, b, 9)[1:]  # C is the polynomial on (a, b]
        assert np.allclose(pen.value(x), c0 + c1 * x + c2 * x * x, rtol=0.0, atol=1e-15)
        assert jump == (reference_right_limit(pen, a) > pen.value(a) + 1e-15)


REFERENCE_CASES = [
    kp.ZeroPenalty(),
    kp.ConstantNonzeroPenalty(0.2),
    kp.ConstantAbovePenalty(0.2, 0.1),
    kp.ConstantAbovePenalty(0.2, 1.0),
    kp.ConstantAbovePenalty(0.3, 1.5),
    kp.LinearPenalty(0.3),
    kp.QuadraticPenalty(2.0),
    kp.OptimalCanonicalPenalty(0.2),
    kp.OptimalCanonicalPenalty(0.5),
    kp.SurfaceOptimalPenalty(0.5, 0.75),
    kp.SurfaceOptimalPenalty(0.5, 1.0),
    kp.TabulatedPenalty([[0.0, 0.0, True, 0.1], [0.4, 0.2, False], [0.7, 0.3, True, 0.5], [1.2, 0.6, False]]),
    kp.TabulatedPenalty([[0.0, 0.0, False], [0.3, 0.05, False], [0.6, 0.2, True, 0.25]]),  # last point below 1
    kp.TabulatedPenalty([[0.0, 0.0, False], [0.5, 0.1, False], [1.0, 0.3, True, 0.5]]),  # trailing jump at 1
]


@pytest.mark.parametrize("pen", REFERENCE_CASES, ids=repr)
def test_rows_match_the_reference_formulas(pen):
    # value clamps |x| to 1; value_extended continues closed forms past 1
    # and keeps a table flat at C(1)
    rng = np.random.default_rng(6)
    knots = np.array([0.0, 1.0, *(row[0] for row in pen._rows())])
    near = np.concatenate([knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)])
    near = np.concatenate([near, -near])
    x = np.concatenate([rng.uniform(-1.0, 1.0, 10**6), near[np.abs(near) <= 1.0]])
    assert np.max(np.abs(pen.value(x) - reference_formula(pen, np.minimum(np.abs(x), 1.0)))) <= 1e-15
    x = np.concatenate([rng.uniform(-5.0, 5.0, 10**6), near])
    ext = np.minimum(np.abs(x), 1.0) if pen.kind == "tabulated" else x
    assert np.max(np.abs(value_extended(pen, x) - reference_formula(pen, ext))) <= 1e-15


def test_linear_and_quadratic():
    assert kp.LinearPenalty(0.3).value(0.5) == pytest.approx(0.15)
    assert kp.QuadraticPenalty(0.125).value(0.8) == pytest.approx(0.08)
    assert kp.QuadraticPenalty(0.125).value(-0.8) == pytest.approx(0.08)


def test_optimal_canonical_envelope_shape():
    K = 0.2
    pen = kp.OptimalCanonicalPenalty(K)
    s = np.sqrt(2 * K)
    x = 0.3
    assert pen.value(x) == pytest.approx(x * (s - x / 2))
    assert pen.value(0.9) == pytest.approx(K)
    assert pen.value(1.0) == pytest.approx(K)


def test_surface_penalty_cap():
    pen = kp.SurfaceOptimalPenalty(0.5, 0.75)
    assert pen.value(0.75) == pytest.approx(0.5 * 0.5 * 0.75)
    assert pen.value(0.9) == pytest.approx(0.5 * 0.5 * 0.75)
    with pytest.raises(DomainError):
        kp.SurfaceOptimalPenalty(0.8, 0.5)


def test_domain_error_outside_unit_interval():
    with pytest.raises(DomainError):
        kp.LinearPenalty(0.3).value(1.5)


# ----------------------------------------------------------------------
# tabulated penalties
# ----------------------------------------------------------------------
def test_tabulated_linear_interpolation():
    pen = kp.TabulatedPenalty([[0.0, 0.0, False], [0.5, 0.1, False], [1.0, 0.4, False]])
    assert pen.value(0.25) == pytest.approx(0.05)
    assert pen.value(0.75) == pytest.approx(0.25)
    assert pen.value(-0.25) == pytest.approx(0.05)


def test_tabulated_jump_semantics():
    # jump at 0.5 from 0.1 up to 0.3, then flat towards the next value
    pen = kp.TabulatedPenalty([[0.0, 0.0, False], [0.5, 0.1, True, 0.3], [1.0, 0.3, False]])
    assert pen.value(0.5) == pytest.approx(0.1)
    assert reference_right_limit(pen, 0.5) == pytest.approx(0.3)
    assert pen.value(0.6) == pytest.approx(0.3)


def test_tabulated_jump_defaults_to_next_value():
    pen = kp.TabulatedPenalty([[0.0, 0.0, True], [1.0, 0.2, False]])
    assert pen.value(0.0) == 0.0
    assert pen.value(0.5) == pytest.approx(0.2)
    assert pen.value(1.0) == pytest.approx(0.2)


def test_tabulated_trailing_jump_requires_right_value():
    with pytest.raises(DomainError):
        kp.TabulatedPenalty([[0.0, 0.0, False], [1.0, 0.2, True]])


# ----------------------------------------------------------------------
# JSON wire format
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "zero"},
        {"kind": "constant_nonzero", "K": 0.2},
        {"kind": "constant_above", "K": 0.2, "x0": 0.1},
        {"kind": "linear", "alpha": 0.3},
        {"kind": "quadratic", "alpha": 0.125},
        {"kind": "optimal_canonical", "K": 0.2},
        {"kind": "surface", "v1": 0.5, "v2": 0.75},
        {"kind": "tabulated", "points": [[0.0, 0.0, False], [1.0, 0.3, False]]},
    ],
)
def test_json_round_trip(spec):
    pen = kp.penalty_from_json(spec)
    again = kp.penalty_from_json(pen.to_json())
    xs = np.linspace(-1, 1, 101)
    assert np.allclose(pen.value(xs), again.value(xs))


def test_unknown_kind_rejected():
    with pytest.raises(DomainError):
        kp.penalty_from_json({"kind": "cubic"})


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "linear"},
        {"kind": "surface", "v1": 0.5},
        {"kind": "quadratic", "alpha": "0.1"},
        {"kind": "quadratic", "alpha": True},
        {"kind": "quadratic", "alpha": float("nan")},
        {"kind": "constant_above", "K": float("inf"), "x0": 0.1},
        {"kind": "tabulated"},
        {"kind": "tabulated", "points": [[0.0, 0.0]]},
        {"kind": "tabulated", "points": [[0.0, 0.0, False, 0.0, 1.0]]},
        {"kind": "tabulated", "points": [[0.0, 0.0, "no"], [1.0, 0.3, False]]},
        {"kind": "tabulated", "points": [[0.0, 0.0, False], [1.0, float("nan"), False]]},
        {"kind": ["quadratic"]},
        ["quadratic"],
    ],
)
def test_malformed_spec_rejected(spec):
    with pytest.raises(DomainError):
        kp.penalty_from_json(spec)


# ----------------------------------------------------------------------
# admissibility validation
# ----------------------------------------------------------------------
def test_validate_accepts_all_families():
    for pen in (
        kp.ZeroPenalty(),
        kp.ConstantNonzeroPenalty(0.2),
        kp.ConstantAbovePenalty(0.2, 0.1),
        kp.LinearPenalty(0.3),
        kp.QuadraticPenalty(0.125),
        kp.OptimalCanonicalPenalty(0.2),
        kp.SurfaceOptimalPenalty(0.5, 0.75),
    ):
        assert kp.validate(pen).ok


def test_validate_rejects_downward_jump():
    pen = kp.TabulatedPenalty([[0.0, 0.0, False], [0.5, 0.3, True, 0.1], [1.0, 0.4, False]])
    report = kp.validate(pen)
    assert not report.ok
    assert "left-continuous" in report.violation


def test_validate_sees_a_drop_between_grid_points():
    # a fall of 1e-10 over [0.5, 1] is 5e-14 between neighbours of a 2,001-point grid
    pen = kp.TabulatedPenalty([[0.0, 0.0, False], [0.5, 0.1, False], [1.0, 0.1 - 1e-10, False]])
    assert kp.validate(pen).violation == "non-decreasing"


def test_validate_rejects_decreasing_table():
    pen = kp.TabulatedPenalty([[0.0, 0.0, False], [0.5, 0.3, False], [1.0, 0.1, False]])
    report = kp.validate(pen)
    assert not report.ok
    assert report.violation == "non-decreasing"


# ----------------------------------------------------------------------
# membership in the fine-optimal class
# ----------------------------------------------------------------------
def test_optimal_class_members():
    assert kp.is_in_optimal_class(kp.ConstantNonzeroPenalty(0.2)) == pytest.approx(0.2)
    assert kp.is_in_optimal_class(kp.OptimalCanonicalPenalty(0.3)) == pytest.approx(0.3)
    assert kp.is_in_optimal_class(kp.ZeroPenalty()) == pytest.approx(0.0)


def test_optimal_class_non_members():
    assert kp.is_in_optimal_class(kp.QuadraticPenalty(0.18)) is None
    assert kp.is_in_optimal_class(kp.LinearPenalty(0.3)) is None
    # flat at the right level but below the envelope in the middle
    pen = kp.TabulatedPenalty(
        [[0.0, 0.0, False], [0.4, 0.01, False], [0.7, 0.2, False], [1.0, 0.2, False]]
    )
    assert kp.is_in_optimal_class(pen) is None


def _lower_envelope_of_lines(lines):
    """Tabulated min of lines (slope, intercept) given in decreasing slope."""
    points = [[0.0, 0.0, False]]
    for (m1, q1), (m2, q2) in zip(lines, lines[1:]):
        x = (q2 - q1) / (m1 - m2)
        points.append([x, m1 * x + q1, False])
    return kp.TabulatedPenalty(points)


def test_optimal_class_is_exact_between_grid_points():
    # tangents (s - t) x + t^2/2 to the envelope x(s - x/2) at K = 0.2; the
    # one at t* is shifted down by 1.3e-9, and t* sits midway between two
    # points of a 10,000-point grid on [0, s], where the gap is only -8e-10
    K, delta = 0.2, 1.3e-9
    s = np.sqrt(2 * K)
    t_star = 5000.5 * s / 9999
    ts = (0.0, 0.3, t_star, 0.55, s)
    touching = _lower_envelope_of_lines([(s - t, t * t / 2) for t in ts])
    assert kp.is_in_optimal_class(touching) == pytest.approx(K)
    pen = _lower_envelope_of_lines([(s - t, t * t / 2 - (delta if t == t_star else 0.0)) for t in ts])
    assert kp.validate(pen).ok
    assert pen.value(t_star) - t_star * (s - t_star / 2) == pytest.approx(-delta, rel=1e-6)
    assert kp.is_in_optimal_class(pen, tol=1e-9) is None
