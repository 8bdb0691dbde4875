"""The benchmark's workloads: inputs made from a seed, the CLI operations
that run them, and the check applied to every operation's output.

Each workload is a fixed batch of operations.  An operation is one in-process
``kylepen.cli.main(argv)`` call; its check returns OK or FAILED, or raises
CheckError when an output that should be right is wrong.  FAILED is kept
for operations that cannot succeed today: a non-zero exit code, or a numeric
solve whose (|G|, S) misses the exact equilibrium by more than EXACT_TOL.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from oracle import (
    Z99,
    argmax_gap,
    closed_form_gs,
    normalize,
    require,
    schedule_moments,
    surface_point,
)

OK, FAILED = "ok", "failed"

EXACT_TOL = 1e-8  # an equilibrium is exact when |G| and S match to this
ARGMAX_TOL = 1e-6  # largest shortfall of a written order against brute force
CSV_TOL = 1e-10  # CSV floats carry 12 significant digits
MC_SIGMAS = 5.0  # a Monte Carlo estimate must sit this many SEs from its closed form

# data written by `kylepen figures` with its default arguments
LOCUS_FAMILIES = (
    ("quadratic", "alpha", np.linspace(0.0, 4.0, 81)),
    ("linear", "alpha", np.linspace(0.0, 1.0, 81)),
    ("constant_nonzero", "K", np.linspace(0.0, 0.5, 81)),
    ("optimal_canonical", "K", np.linspace(0.0, 0.5, 81)),
)
FRONTIER_FLOORS = (0.0, 0.02, 0.05, 0.07)
GAUSSIAN_TOL = 1e-5
EQUILIBRIUM_FIGURES = ("quadratic_equilibrium", "linear_equilibrium", "constant_above_equilibrium")
GAUSSIAN_FIGURES = ("gaussian_quadratic", "gaussian_constant_above")
FIGURES = (
    *EQUILIBRIUM_FIGURES,
    "optimal_penalty_envelope",
    "penalty_family_locus",
    "constrained_frontiers",
    "index_curves",
    "price_patterns_surface",
    *GAUSSIAN_FIGURES,
)

# jump penalties solved on the grid, each with the closed-form kind that has
# the same equilibrium: the numeric solver puts each jump at the next grid
# sample instead of the indifference point, so these miss the exact (|G|, S)
# at EXACT_TOL on every run
CONSTANT_ABOVE = {"kind": "constant_above", "K": 0.1, "x0": 0.3}
NUMERIC_JUMPS = (
    ({"kind": "constant_above", "K": 0.2, "x0": 0.1}, None),
    ({"kind": "constant_nonzero", "K": 0.2}, None),
    ({"kind": "optimal_canonical", "K": 0.2}, None),
    ({"kind": "surface", "v1": 0.75, "v2": 0.75}, None),
    ({"kind": "tabulated", "points": [[0.0, 0.0, False], [0.3, 0.0, True, 0.1], [1.0, 0.1, False]]}, CONSTANT_ABOVE),
)


class Op(NamedTuple):
    """One CLI call: ``argv`` (without --out) and the check of its output."""

    label: str
    argv: list
    check: Callable


def read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_floats(path: Path) -> np.ndarray:
    _, rows = read_csv(path)
    return np.asarray(rows, dtype=float)


def _round(x) -> float:
    return round(float(x), 6)


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def convex_tabulated(rng) -> dict:
    """Piecewise-linear penalty with three kinks and increasing slopes.

    C is convex, so x^2/2 + C is strictly convex and the equilibrium demand
    is continuous: flat at each kink, slope one in between.  The slopes stay
    near 0, 0.1, 0.2, 0.3, which keeps the solved schedule's node count, and
    so the work per operation, about the same on every seed."""
    xs = np.sort(rng.choice(np.arange(1, 20), 3, replace=False)) / 20.0
    slopes = 0.1 * np.arange(4) + rng.uniform(0.0, 0.05, 4)
    knots = np.concatenate([[0.0], xs, [1.0]])
    values = np.concatenate([[0.0], np.cumsum(slopes * np.diff(knots))])
    return {"kind": "tabulated", "points": [[_round(x), _round(c), False] for x, c in zip(knots, values)]}


def jump_tabulated(rng) -> dict:
    """Linear penalty with one upward jump (Monte Carlo inputs only)."""
    x0, s1, s2 = rng.uniform(0.1, 0.5), rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3)
    c0 = s1 * x0
    c1 = c0 + rng.uniform(0.01, 0.1)
    return {
        "kind": "tabulated",
        "points": [
            [0.0, 0.0, False],
            [_round(x0), _round(c0), True, _round(c1)],
            [1.0, _round(c1 + s2 * (1.0 - x0)), False],
        ],
    }


def random_support(rng):
    a = _round(rng.uniform(0.5, 2.0))
    b = _round(rng.uniform(-2.0, 0.0))
    return a, b, _round(b + 2.0 * rng.uniform(0.5, 2.0))


def scale_penalty(spec: dict, a: float, b: float, c: float) -> dict:
    """A jump-free tabulated penalty of the normalized game expressed on the
    original supports (the inverse of ``oracle.normalize``)."""
    scale = a * 0.5 * (c - b)
    return {"kind": "tabulated", "points": [[x * a, v * scale, False] for x, v, _ in spec["points"]]}


# ----------------------------------------------------------------------
# solve_sweep
# ----------------------------------------------------------------------
def _written_demand(out: Path, name: str):
    data = read_floats(out / name)
    return data[:, 0], data[:, 1]


def _check_solve(spec, support, twin=None):
    """``twin`` is a closed-form penalty with the same equilibrium as ``spec``."""
    spec0 = normalize(spec, *support) if support else spec

    def check(rc, out, stdout, sols):
        if rc != 0:
            return FAILED
        sched = sols[-1].schedule
        abs_g, s, _, _ = schedule_moments(sched.nodes, sched.left, sched.right)
        exact = closed_form_gs(twin or spec0)
        if exact is not None and max(abs(abs_g - exact[0]), abs(s - exact[1])) > EXACT_TOL:
            return FAILED
        meta = json.loads((out / "meta.json").read_text())
        ver = meta["verification"]
        for flag in ("linear_expected_price", "optimality", "break_even"):
            require(ver[flag] is True, f"verification flag {flag} is false: {ver['details']}")
        v, x = _written_demand(out, "demand.csv")
        gap = argmax_gap(spec0, v, x)
        require(gap <= ARGMAX_TOL, f"demand.csv misses the brute-force argmax by {gap:.3g}")
        if support:
            a, b, c = support
            for key, val in normalize(spec, a, b, c).items():
                require(_same(meta["normalized_penalty"][key], val), f"normalized penalty {key} differs")
            m, sigma = 0.5 * (b + c), 0.5 * (c - b)
            v, x = _written_demand(out, "demand_original_support.csv")
            gap = argmax_gap(spec, v - m, x, slope=sigma / (2.0 * a), x_hi=a)
            require(gap <= ARGMAX_TOL * a * sigma, f"original-support demand misses the argmax by {gap:.3g}")
        return OK

    return check


def _same(a, b) -> bool:
    if isinstance(a, list):
        return len(a) == len(b) and all(_same(p, q) for p, q in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)
    return a == b


def solve_sweep(seed: int):
    rng = np.random.default_rng(seed)
    cases = [  # (penalty, --method, --support, closed-form twin)
        ({"kind": "quadratic", "alpha": _round(rng.uniform(0.05, 2.0))}, "numeric", None, None),
        # the solved schedule has about 4000 (1 - alpha) nodes
        ({"kind": "linear", "alpha": _round(rng.uniform(0.2, 0.3))}, "numeric", None, None),
        (convex_tabulated(rng), "auto", None, None),
    ]
    sup = random_support(rng)
    cases.append((scale_penalty(convex_tabulated(rng), *sup), "auto", sup, None))
    sup = random_support(rng)
    a, sigma = sup[0], 0.5 * (sup[2] - sup[1])
    k, x0 = rng.uniform(0.01, 0.1), rng.uniform(0.05, 0.4)
    cases.append(({"kind": "constant_above", "K": _round(k * a * sigma), "x0": _round(x0 * a)}, "auto", sup, None))
    sup = random_support(rng)
    sigma = 0.5 * (sup[2] - sup[1])
    cases.append(({"kind": "linear", "alpha": _round(rng.uniform(0.05, 0.9) * sigma)}, "auto", sup, None))
    cases += [(spec, "numeric", None, twin) for spec, twin in NUMERIC_JUMPS]
    ops = []
    for spec, method, support, twin in cases:
        argv = ["solve", "--penalty", json.dumps(spec), "--method", method, "--verify"]
        if support:
            argv += ["--support", ",".join(repr(t) for t in support)]
        label = f"solve {spec['kind']} {method}{' support' if support else ''}"
        ops.append(Op(label, argv, _check_solve(spec, support, twin)))
    return ops


# ----------------------------------------------------------------------
# mc_validate
# ----------------------------------------------------------------------
def _check_mc(spec):
    def check(rc, out, stdout, sols):
        if rc != 0:
            return FAILED
        payload = json.loads((out / "mc_validate.json").read_text())
        require(json.loads(stdout) == payload, "stdout differs from mc_validate.json")
        sched = sols[-1].schedule
        abs_g, s, pi_n, f = schedule_moments(sched.nodes, sched.left, sched.right)
        exact = closed_form_gs(spec)
        if exact is not None:  # solved in closed form, so exact
            require(max(abs(abs_g - exact[0]), abs(s - exact[1])) <= EXACT_TOL, "closed-form solve is inexact")
        for name, closed in (("G", -abs_g), ("S", s), ("Pi_N", pi_n), ("F", f)):
            row = payload["checks"][name]
            require(abs(row["closed_form"] - closed) <= CSV_TOL, f"closed-form {name} differs from the oracle")
            se = (row["ci99"][1] - row["ci99"][0]) / (2.0 * Z99)
            miss = abs(row["estimate"] - closed)
            # a constant sample (no fine ever paid) has se = 0; allow rounding
            require(miss <= MC_SIGMAS * se + 1e-12, f"Monte Carlo {name} misses by {miss:.3g} with se {se:.3g}")
        return OK

    return check


def mc_validate(seed: int):
    rng = np.random.default_rng(seed)
    v2 = _round(rng.uniform(0.3, 1.0))
    specs = [
        {"kind": "quadratic", "alpha": _round(rng.uniform(0.05, 2.0))},
        {"kind": "linear", "alpha": _round(rng.uniform(0.05, 0.9))},
        {"kind": "constant_above", "K": _round(rng.uniform(0.01, 0.2)), "x0": _round(rng.uniform(0.05, 0.5))},
        {"kind": "optimal_canonical", "K": _round(rng.uniform(0.01, 0.4))},
        {"kind": "surface", "v1": min(_round(rng.uniform(v2 / (1.0 + v2), v2)), v2), "v2": v2},
        convex_tabulated(rng),
        jump_tabulated(rng),
    ]
    return [
        Op(
            f"mc-validate {spec['kind']}",
            ["mc-validate", "--penalty", json.dumps(spec), "--n", "1000000", "--seed", str(seed * 100 + k)],
            _check_mc(spec),
        )
        for k, spec in enumerate(specs)
    ]


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------
def _check_locus(out: Path):
    _, rows = read_csv(out / "penalty_family_locus" / "locus.csv")
    expected = [(fam, key, p) for fam, key, params in LOCUS_FAMILIES for p in params]
    require(len(rows) == len(expected), "locus.csv has the wrong number of rows")
    for (fam, key, p), (family, s, abs_g) in zip(expected, rows):
        g0, s0 = closed_form_gs({"kind": fam, key: float(p)})
        require(family == fam, "locus.csv rows are out of order")
        require(abs(float(s) - s0) <= CSV_TOL and abs(float(abs_g) - g0) <= CSV_TOL, f"locus row {fam}({p:g}) misses its closed form")


def _check_frontiers(out: Path):
    for f_min in FRONTIER_FLOORS:
        rows = read_floats(out / "constrained_frontiers" / f"frontier_fmin_{f_min:.2f}.csv")
        require(len(rows) > 1, "empty frontier")
        g, s, v1, v2, f = rows.T
        require(np.all(f >= f_min - CSV_TOL), f"frontier {f_min} breaks its fine floor")
        g0, s0, f0 = surface_point(v1, v2)
        require(np.all(np.abs(np.stack([g - g0, s - s0, f - f0])) <= CSV_TOL), f"frontier {f_min} misses surface_point")
        # 12 significant digits cannot separate the last rows, so strictness is
        # checked on the values recomputed from each row's generators
        require(np.all(np.diff(g0) < 0.0) and np.all(np.diff(s0) < 0.0), f"frontier {f_min} is not strictly Pareto")
        require(np.all(np.diff(g) <= 0.0) and np.all(np.diff(s) <= 0.0), f"frontier {f_min} rows are out of order")
        idx = read_floats(out / "index_curves" / f"indices_fmin_{f_min:.2f}.csv")
        require(np.array_equal(idx, np.stack([-g, v1, v2], axis=1)), f"index curve {f_min} differs from its frontier")


def _check_gaussian(out: Path, name: str, probe):
    import kylepen

    man = json.loads((out / name / "manifest.json").read_text())
    require(man["converged"] is True and man["residual"] < GAUSSIAN_TOL, f"{name} did not converge")
    grid = kylepen.GaussianGrid()
    v, x = _written_demand(out / name, "demand.csv")
    require(np.allclose(v, grid.points, rtol=0.0, atol=CSV_TOL), f"{name} demand is not on the default grid")
    require(np.max(np.abs(x + x[::-1])) <= 1e-12, f"{name} demand is not odd")
    require(np.all(np.diff(x) >= 0.0), f"{name} demand is decreasing somewhere")
    penalty = kylepen.penalty_from_json(man["penalty"])
    price = probe.time("gaussian.price_update_ms", kylepen.gaussian_price_update, x, grid, extended=True)
    probe.peak("gaussian.price_update_peak_mb", kylepen.gaussian_price_update, x, grid, extended=True)
    best = probe.time("gaussian.best_response_ms", kylepen.gaussian_best_response, price, penalty, grid)
    resid = float(np.max(np.abs(best - x)))
    require(resid < 2.0 * GAUSSIAN_TOL, f"{name} true residual {resid:.3g} is not below 2 tol")


def _check_figures(probe):
    def check(rc, out, stdout, sols):
        if rc != 0:
            return FAILED
        require(json.loads((out / "manifest.json").read_text())["figures"] == list(FIGURES), "figure list differs")
        _check_locus(out)
        _check_frontiers(out)
        for name in EQUILIBRIUM_FIGURES:
            spec = json.loads((out / name / "manifest.json").read_text())["penalty"]
            v, x = _written_demand(out / name, "demand.csv")
            gap = argmax_gap(spec, v, x)
            require(gap <= ARGMAX_TOL, f"{name} demand misses the brute-force argmax by {gap:.3g}")
        for name in GAUSSIAN_FIGURES:
            _check_gaussian(out, name, probe)
        return OK

    return check


def figures(seed: int, probe):
    # no random inputs: every operation is the default `kylepen figures` run
    return [Op("figures", ["figures"], _check_figures(probe)) for _ in range(2)]


def build(workload: str, seed: int, probe):
    if workload == "figures":
        return figures(seed, probe)
    if workload == "solve_sweep":
        return solve_sweep(seed)
    if workload == "mc_validate":
        return mc_validate(seed)
    raise ValueError(f"unknown workload {workload!r}")

