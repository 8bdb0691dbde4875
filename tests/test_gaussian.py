"""Fixed-point solver under normal noise (qualitative robustness checks)."""

import numpy as np
import pytest

import kylepen as kp
from conftest import (
    peak_bytes,
    random_tabulated_penalty,
    reference_expected_price_gaussian,
    reference_gaussian_best_response,
    reference_gaussian_objective,
    reference_price_on,
    value_extended,
)
from kylepen.errors import DomainError
from kylepen.gaussian import (
    GaussianGrid,
    _extend_demand,
    _price_on,
    expected_price_gaussian,
    gaussian_best_response,
    gaussian_price_update,
)

SMALL = GaussianGrid(L=5.0, n=201)


def test_grid_validation():
    with pytest.raises(DomainError):
        GaussianGrid(L=5.0, n=200)  # even
    with pytest.raises(DomainError):
        GaussianGrid(L=-1.0, n=201)


@pytest.mark.parametrize("L", [0.5, 38.5, 1e300, 1e-300, float("nan"), float("inf")])
def test_grid_span_outside_one_to_38_sd_rejected(L):
    # below 1 sd the grid drops most of the normal mass; past 38.5 sd the
    # density underflows, and 1e300 overflows the quadratures
    with pytest.raises(DomainError):
        GaussianGrid(L=L, n=11)


def test_grid_span_ends_accepted():
    assert GaussianGrid(L=1.0, n=11).h == pytest.approx(0.2)
    assert GaussianGrid(L=38.0, n=11).h == pytest.approx(7.6)


def test_price_update_no_information():
    P = gaussian_price_update(np.zeros(SMALL.n), SMALL)
    assert np.max(np.abs(P)) < 1e-12


def test_price_update_linear_demand():
    v = SMALL.points
    P = gaussian_price_update(v.copy(), SMALL)
    assert np.max(np.abs(P - v / 2.0)) < 1e-3


def test_price_update_step_demand_flattens_near_zero():
    v = SMALL.points
    X = np.where(np.abs(v) > 1.0, v, 0.0)
    P = gaussian_price_update(X, SMALL)
    assert np.all(np.diff(P) >= -1e-12)
    # small flows carry little information when the schedule kills small
    # orders, so the price there is much flatter than the fully revealing d/2
    slope = np.diff(P) / SMALL.h
    near_zero = np.abs(v[:-1]) < 0.3
    assert slope[near_zero].max() < 0.35


# best responses take the price on the extended quadrature grid, exactly as
# the fixed-point iteration supplies it; a base-grid price would be continued
# flat and distort the incentives of extreme types
LINEAR_P_EXT = SMALL.extended_points / 2.0


def test_best_response_zero_penalty():
    v = SMALL.points
    X = gaussian_best_response(LINEAR_P_EXT, kp.ZeroPenalty(), SMALL)
    interior = np.abs(v) < 4.0
    assert np.max(np.abs(X[interior] - v[interior])) < 1e-5


def test_best_response_quadratic_penalty():
    v = SMALL.points
    alpha = 0.5
    X = gaussian_best_response(LINEAR_P_EXT, kp.QuadraticPenalty(alpha), SMALL)
    interior = np.abs(v) < 4.0
    assert np.max(np.abs(X[interior] - v[interior] / (1.0 + 2.0 * alpha))) < 1e-5


def test_best_response_constant_above_has_flat_band():
    v = SMALL.points
    X = gaussian_best_response(LINEAR_P_EXT, kp.ConstantAbovePenalty(1.0, 0.5), SMALL)
    # blocked at the threshold over a band, then an upward jump
    band = (v > 0.6) & (v < 1.5)
    assert np.allclose(X[band], 0.5, atol=1e-6)
    assert np.max(np.diff(X)) > 0.5


def test_expected_price_linear():
    v = SMALL.points
    phat = expected_price_gaussian(LINEAR_P_EXT, SMALL)
    assert np.max(np.abs(phat - v / 2.0)) < 2e-3


def test_fixed_point_zero_penalty_small_grid():
    sol = kp.gaussian_fixed_point(kp.ZeroPenalty(), grid=SMALL)
    assert sol.converged
    assert np.max(np.abs(sol.X - SMALL.points)) < 5e-3


def test_fixed_point_oddness_and_monotonicity():
    # the coarse grid resolves the jump only to ~1e-3, so relax the stopping
    # tolerance; the fine-grid run lives in the acceptance suite
    sol = kp.gaussian_fixed_point(
        kp.ConstantAbovePenalty(1.0, 0.5), grid=SMALL, tol=2e-3
    )
    assert sol.converged
    assert np.allclose(sol.X, -sol.X[::-1], atol=1e-12)
    assert sol.flags["monotone"]


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_fixed_point_is_kyles_linear_equilibrium(alpha):
    # Kyle (1985): under C(x) = alpha x^2 with standard normal v and u the
    # equilibrium is X = beta v, P = lambda d, with lambda = beta / (beta^2 + 1)
    # and beta = 1 / (2 (lambda + alpha)).  Eliminating lambda leaves
    # 2 alpha beta^3 + beta^2 + 2 alpha beta - 1 = 0, increasing in beta > 0
    # from -1 at 0, so beta is its one positive root.
    roots = np.roots([2.0 * alpha, 1.0, 2.0 * alpha, -1.0])
    beta = roots[(np.abs(roots.imag) < 1e-12) & (roots.real > 0.0)].real.item()
    lam = beta / (beta * beta + 1.0)
    sol = kp.gaussian_fixed_point(kp.QuadraticPenalty(alpha))
    assert sol.converged
    v = sol.grid.points
    inner = np.abs(v) < 3.0
    assert np.max(np.abs(sol.X - beta * v)[inner]) <= 1e-5
    assert np.max(np.abs(sol.P - lam * v)[inner]) <= 1e-5


def test_damping_validation():
    with pytest.raises(DomainError):
        kp.gaussian_fixed_point(kp.ZeroPenalty(), grid=SMALL, damping=0.0)


def test_non_convergence_flag():
    sol = kp.gaussian_fixed_point(
        kp.ConstantAbovePenalty(1.0, 0.5), grid=SMALL, tol=1e-12, max_iter=2
    )
    assert not sol.converged
    assert sol.iterations == 2


def worst_response_gap(X, objective, penalty, grid):
    """The most any order x earns over X(v) at the objective(x, v), on every
    row v; x runs over 20 points per cell of the x-grid and the breakpoints
    of the penalty, both signs."""
    x = grid.points
    cells = x[:-1, None] + np.diff(x)[:, None] * np.linspace(0.0, 1.0, 21)[1:]
    bp = np.array(penalty.breakpoints())
    xs = np.unique(np.concatenate((x[:1], cells.ravel(), bp, -bp)))
    gap = -np.inf
    for rows in np.array_split(np.arange(grid.n), max(grid.n // 50, 1)):
        v = x[rows, None]
        best = objective(xs[None, :], v).max(axis=1)
        gap = max(gap, float(np.max(best - objective(X[rows], x[rows]))))
    return gap


# the dense kernels are the oracles of the symmetric ones; the posterior
# underflows on some rows of the two widest grids, where the fill engages.
# The kernels run in blocks of 32 rows: n = 11 has fewer rows d > 0 than one
# block, and n = 171 ends in a partial block on both of its d-grids (85 and 170 rows)
PARITY_GRIDS = [
    GaussianGrid(),
    GaussianGrid(10.0, 201),
    GaussianGrid(20.0, 201),
    GaussianGrid(38.0, 101),
    GaussianGrid(5.0, 11),
    GaussianGrid(7.0, 171),
]
PARITY_PENALTIES = [
    kp.ZeroPenalty(),
    kp.QuadraticPenalty(2.0),
    kp.ConstantAbovePenalty(1.0, 0.5),
    kp.TabulatedPenalty([[0.0, 0.0, False], [0.3, 0.05, True, 0.25], [1.0, 0.4, False]]),
]


@pytest.mark.parametrize("grid", PARITY_GRIDS, ids=lambda g: f"L{g.L:g}-n{g.n}")
def test_symmetric_kernels_match_the_dense_oracles(grid, monkeypatch):
    d_ext = grid.extended_points
    mid = grid.pad
    fills = 0
    for pen in PARITY_PENALTIES:
        # an odd demand with the penalty's flats and jumps: the response to the linear price
        X = reference_gaussian_best_response(d_ext / 2.0, pen, grid)
        X = 0.5 * (X - X[::-1])
        for d in (d_ext, grid.points):
            ref, ref_fills = reference_price_on(d, _extend_demand(X, grid), grid)
            new, new_fills = _price_on(d, X, grid)
            assert np.max(np.abs(new - ref)) <= 1e-12
            assert new_fills == ref_fills
            assert np.array_equal(gaussian_price_update(X, grid, extended=len(d) > grid.n), new)
            fills += new_fills
        P = gaussian_price_update(X, grid, extended=True)  # odd, so both responses read the same price
        for Pg in (P, P[mid : mid + grid.n]):
            phat = expected_price_gaussian(Pg, grid)
            assert np.max(np.abs(phat - reference_expected_price_gaussian(Pg, grid))) <= 1e-12

        # the response is odd, and it may differ from the oracle's only where
        # the oracle's objective ties the two within the 1e-9 tie tolerance
        objective = reference_gaussian_objective(P, pen, grid)
        ref = reference_gaussian_best_response(P, pen, grid)
        new = gaussian_best_response(P, pen, grid)
        assert np.array_equal(new[:mid], -new[: mid : -1])
        assert np.all((new == ref) | (np.abs(objective(new, grid.points) - objective(ref, grid.points)) <= 1e-9))
        # given the oracle's own Phat, no order of a fine refinement earns more
        with monkeypatch.context() as m:
            m.setattr(kp.gaussian, "expected_price_gaussian", reference_expected_price_gaussian)
            assert worst_response_gap(gaussian_best_response(P, pen, grid), objective, pen, grid) <= 1e-12
    assert (fills > 0) == (grid.L >= 20.0)


@pytest.mark.parametrize("grid", PARITY_GRIDS + [GaussianGrid(3.7, 101)], ids=lambda g: f"L{g.L:g}-n{g.n}")
def test_grids_are_exactly_odd(grid):
    for pts, top in ((grid.points, grid.L), (grid.extended_points, 2.0 * grid.L)):
        assert np.array_equal(pts, -pts[::-1])
        assert pts[len(pts) // 2] == 0.0
        assert pts[-1] == top


def _library_objective(P, penalty, grid):
    """x(v - Phat(x)) - C(x) with the library's own Phat, as np.interp reads it."""
    phat = expected_price_gaussian(P, grid)
    return lambda xq, vq: xq * (vq - np.interp(xq, grid.points, phat)) - value_extended(penalty, xq)


def _response_price(penalty, grid):
    """The price of the response to the linear price P = d/2."""
    X = gaussian_best_response(grid.extended_points / 2.0, penalty, grid)
    return gaussian_price_update(X, grid, extended=True)


def test_best_response_finds_the_maximum_away_from_the_dense_argmax():
    # the dense argmax sits at x = 0 here, and a search around it misses the
    # interior maximum near 0.3606, which earns 2.88e-5 more
    grid = GaussianGrid(20.0, 201)
    pen = kp.TabulatedPenalty(
        [[0.0, 0.0, True, 0.049], [0.0916, 0.068, False], [0.2686, 0.0767, False], [0.6885, 0.0984, False]]
    )
    P = _response_price(pen, grid)
    objective = _library_objective(P, pen, grid)
    X = gaussian_best_response(P, pen, grid)
    i = grid.pad + 2  # v = 0.4
    assert X[i] == pytest.approx(0.3606, abs=1e-4)
    assert objective(X[i], grid.points[i]) - objective(0.0, grid.points[i]) > 2.8e-5
    assert worst_response_gap(X, objective, pen, grid) <= 1e-12


RANDOM_GRIDS = [GaussianGrid(5.0, 101), GaussianGrid(20.0, 201)]


@pytest.mark.parametrize("grid", RANDOM_GRIDS, ids=lambda g: f"L{g.L:g}-n{g.n}")
def test_best_response_is_exact_on_random_penalties(grid):
    # a golden-section search around the dense argmax misses by up to 2.6e-4 here (seed 8, L = 20)
    for seed in range(25):
        pen = random_tabulated_penalty(np.random.default_rng(seed))
        P = _response_price(pen, grid)
        X = gaussian_best_response(P, pen, grid)
        assert worst_response_gap(X, _library_objective(P, pen, grid), pen, grid) <= 1e-12, seed


def test_fixed_point_reports_fills_and_true_residual():
    pen = kp.ConstantAbovePenalty(1.0, 0.5)
    sol = kp.gaussian_fixed_point(pen, grid=SMALL, tol=2e-3)
    P = gaussian_price_update(sol.X, SMALL, extended=True)
    assert sol.flags["true_residual"] == float(np.max(np.abs(gaussian_best_response(P, pen, SMALL) - sol.X)))
    assert sol.flags["underflow_fills"] == 0
    wide = GaussianGrid(38.0, 101)
    sol = kp.gaussian_fixed_point(kp.ZeroPenalty(), grid=wide, max_iter=3)
    fills = reference_price_on(wide.extended_points, _extend_demand(sol.X, wide), wide)[1]
    assert sol.flags["underflow_fills"] == fills > 0


def test_converged_run_has_its_true_residual_below_tol():
    # a rule on the damped step, half the previous iterate's best-response gap,
    # stops here one step early, at an X whose own gap is 1.0017e-5
    pen = kp.ConstantAbovePenalty(0.2, 0.1)
    grid = GaussianGrid(5.0, 101)
    sol = kp.gaussian_fixed_point(pen, grid=grid)
    P = gaussian_price_update(sol.X, grid, extended=True)
    true_residual = float(np.max(np.abs(gaussian_best_response(P, pen, grid) - sol.X)))
    assert sol.converged
    assert true_residual < 1e-5
    assert sol.residual == sol.flags["true_residual"] == true_residual


def test_price_update_prices_the_odd_part():
    rng = np.random.default_rng(8)
    X = np.sort(rng.normal(size=SMALL.n)) + 0.3
    P = gaussian_price_update(X, SMALL)
    assert np.array_equal(P, gaussian_price_update(0.5 * (X - X[::-1]), SMALL))
    assert np.array_equal(P, -P[::-1])


def test_kernels_work_in_row_blocks_on_the_default_grid():
    # the full price kernel alone is 800 x 1,601 doubles, 10 MB, and the full
    # table of best-response cell values 1.3 MB per array
    grid = GaussianGrid()
    pen = kp.ConstantAbovePenalty(1.0, 0.5)
    X = gaussian_best_response(grid.extended_points / 2.0, pen, grid)
    P = gaussian_price_update(X, grid, extended=True)
    assert peak_bytes(lambda: gaussian_price_update(X, grid, extended=True)) < 1e6
    assert peak_bytes(lambda: gaussian_best_response(P, pen, grid)) < 2e6
