"""Command-line front end.

Subcommands: solve, metrics, frontier, surface, mc-validate, gaussian,
figures.  Curves go to CSV files with a header row and deterministic row
ordering; scalars and metadata go to JSON.  Exit codes: 0 success, 2 config
error, 3 infeasible constraint.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .errors import DomainError, InfeasibleError
from .penalties import penalty_from_json, validate
from .equilibrium import solve_equilibrium, verify_equilibrium
from .metrics import compute_metrics, monte_carlo_metrics
from .frontier import fmin_efficient_frontier, sample_surface
from .supports import SupportSpec, denormalize_solution, normalize_penalty
from .gaussian import GaussianGrid, gaussian_fixed_point
from .penalties import (
    ConstantAbovePenalty,
    ConstantNonzeroPenalty,
    LinearPenalty,
    OptimalCanonicalPenalty,
    QuadraticPenalty,
    SurfaceOptimalPenalty,
)

OUT_DIR_ENV = "KYLEPEN_OUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

FIGURE_FLOORS = (0.0, 0.02, 0.05, 0.07)  # expected-fine floors of the frontier figures


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _load_penalty(text: str):
    text = text.strip()
    if text.startswith("{"):
        spec = json.loads(text)
    else:
        spec = json.loads(Path(text).read_text())
    penalty = penalty_from_json(spec)
    report = validate(penalty)
    if not report.ok:
        raise DomainError(f"inadmissible penalty: {report.violation}")
    return penalty


def _parse_support(text: str) -> SupportSpec:
    parts = [float(t) for t in text.split(",")]
    if len(parts) != 3:
        raise DomainError("--support expects 'a,b,c'")
    return SupportSpec(*parts)


def _out_dir(args) -> Path:
    base = args.out or os.environ.get(OUT_DIR_ENV) or "."
    p = Path(base)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{x:.12g}" if isinstance(x, float) else x for x in row])


def _write_json(path: Path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _cmd_solve(args) -> int:
    penalty = _load_penalty(args.penalty)
    spec = _parse_support(args.support) if args.support else None
    if spec is not None and not spec.is_identity:
        penalty0 = normalize_penalty(penalty, spec)
    else:
        penalty0 = penalty
    sol = solve_equilibrium(penalty0, method=args.method)
    out = _out_dir(args)

    rows = sol.schedule.sample_rows(args.samples)
    price_rows = sol.price.sample_rows(args.samples)
    meta = {
        "penalty": penalty.to_json(),
        "x_max": sol.schedule.x_max,
        "solver": sol.meta,
    }
    if spec is not None and not spec.is_identity:
        den = denormalize_solution(sol, spec)
        meta["support"] = {"a": spec.a, "b": spec.b, "c": spec.c}
        meta["normalized_penalty"] = penalty0.to_json()
        vs = np.linspace(spec.b, spec.c, args.samples)
        rows_orig = [(float(v), float(den.demand(v))) for v in vs]
        _write_csv(out / "demand_original_support.csv", ["v", "X"], rows_orig)
    if args.verify:
        report = verify_equilibrium(sol)
        meta["verification"] = {
            "linear_expected_price": report.linear_expected_price,
            "optimality": report.optimality,
            "break_even": report.break_even,
            "details": report.details,
        }
    _write_csv(out / "demand.csv", ["v", "X"], rows)
    _write_csv(out / "price.csv", ["d", "P"], price_rows)
    _write_json(out / "meta.json", meta)
    return EXIT_OK


def _cmd_metrics(args) -> int:
    penalty = _load_penalty(args.penalty)
    spec = _parse_support(args.support) if args.support else None
    penalty0 = (
        normalize_penalty(penalty, spec)
        if spec is not None and not spec.is_identity
        else penalty
    )
    sol = solve_equilibrium(penalty0)
    m = compute_metrics(sol.schedule)
    payload = {"penalty": penalty.to_json(), "closed_form": m.as_dict()}
    if spec is not None and not spec.is_identity:
        den = denormalize_solution(sol, spec)
        payload["support"] = {"a": spec.a, "b": spec.b, "c": spec.c}
        payload["original_support_metrics"] = den.metrics().as_dict()
    if args.mc:
        est = monte_carlo_metrics(sol, n=args.mc, seed=args.seed)
        payload["monte_carlo"] = {
            "n": est.n,
            "seed": est.seed,
            **{
                name: {"estimate": e.value, "ci99": [e.ci_lo, e.ci_hi]}
                for name, e in (
                    ("G", est.G),
                    ("S", est.S),
                    ("Pi_N", est.Pi_N),
                    ("F", est.F),
                )
            },
        }
    out = _out_dir(args)
    _write_json(out / "metrics.json", payload)
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


def _cmd_frontier(args) -> int:
    rows = fmin_efficient_frontier(args.fmin, grid=args.grid)
    out = _out_dir(args)
    _write_csv(out / "frontier.csv", ["G", "S", "v1", "v2", "F"], rows)
    return EXIT_OK


def _cmd_surface(args) -> int:
    v1, v2, g, s, f = sample_surface(args.grid)
    rows = list(zip(map(float, v1), map(float, v2), map(float, g), map(float, s), map(float, f)))
    out = _out_dir(args)
    _write_csv(out / "surface.csv", ["v1", "v2", "G", "S", "F"], rows)
    return EXIT_OK


def _cmd_mc_validate(args) -> int:
    penalty = _load_penalty(args.penalty)
    sol = solve_equilibrium(penalty)
    m = compute_metrics(sol.schedule)
    est = monte_carlo_metrics(sol, n=args.n, seed=args.seed)
    checks = {}
    ok = True
    for name, closed, e in (
        ("G", m.G, est.G),
        ("S", m.S, est.S),
        ("Pi_N", m.Pi_N, est.Pi_N),
        ("F", m.F, est.F),
    ):
        inside = bool(e.contains(closed))
        ok &= inside
        checks[name] = {
            "closed_form": closed,
            "estimate": e.value,
            "ci99": [e.ci_lo, e.ci_hi],
            "inside": inside,
        }
    payload = {
        "penalty": penalty.to_json(),
        "n": est.n,
        "seed": est.seed,
        "all_inside": ok,
        "checks": checks,
    }
    out = _out_dir(args)
    _write_json(out / "mc_validate.json", payload)
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


def _cmd_gaussian(args) -> int:
    penalty = _load_penalty(args.penalty)
    grid = GaussianGrid(L=args.grid_l, n=args.grid_n)
    sol = gaussian_fixed_point(
        penalty,
        grid=grid,
        damping=args.damping,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    out = _out_dir(args)
    pts = grid.points
    _write_csv(out / "demand.csv", ["v", "X"], [(float(v), float(x)) for v, x in zip(pts, sol.X)])
    _write_csv(out / "price.csv", ["d", "P"], [(float(d), float(p)) for d, p in zip(pts, sol.P)])
    _write_json(
        out / "meta.json",
        {
            "penalty": penalty.to_json(),
            "grid": {"L": grid.L, "n": grid.n},
            "damping": args.damping,
            "tol": args.tol,
            "iterations": sol.iterations,
            "residual": sol.residual,
            "converged": sol.converged,
            "flags": sol.flags,
        },
    )
    return EXIT_OK


# ----------------------------------------------------------------------
# figure-reproduction data
# ----------------------------------------------------------------------
def _figure_equilibrium(out: Path, name: str, penalty, description: str, samples: int):
    sub = out / name
    sub.mkdir(parents=True, exist_ok=True)
    sol = solve_equilibrium(penalty)
    _write_csv(sub / "demand.csv", ["v", "X"], sol.schedule.sample_rows(samples))
    _write_csv(sub / "price.csv", ["d", "P"], sol.price.sample_rows(samples))
    _write_json(
        sub / "manifest.json",
        {"figure": description, "penalty": penalty.to_json(), "x_max": sol.schedule.x_max},
    )
    return name


def _cmd_figures(args) -> int:
    out = _out_dir(args)
    samples = args.samples
    produced = []

    produced.append(
        _figure_equilibrium(
            out,
            "quadratic_equilibrium",
            QuadraticPenalty(0.125),
            "demand and price under a quadratic penalty with alpha = 0.125",
            samples,
        )
    )
    produced.append(
        _figure_equilibrium(
            out,
            "linear_equilibrium",
            LinearPenalty(0.3),
            "demand and price under a linear penalty with alpha = 0.3",
            samples,
        )
    )
    produced.append(
        _figure_equilibrium(
            out,
            "constant_above_equilibrium",
            ConstantAbovePenalty(0.2, 0.1),
            "demand and price under a constant penalty on trades above 0.1",
            samples,
        )
    )

    # envelope and members of the fine-optimal penalty class
    sub = out / "optimal_penalty_envelope"
    sub.mkdir(parents=True, exist_ok=True)
    xs = np.linspace(0.0, 1.0, samples)
    K = 0.2
    members = {
        "envelope": OptimalCanonicalPenalty(K),
        "constant_nonzero": ConstantNonzeroPenalty(K),
        "constant_above_0.1": ConstantAbovePenalty(K, 0.1),
    }
    rows = []
    for label, pen in sorted(members.items()):
        for x in xs:
            rows.append((label, float(x), float(pen.value(x))))
    _write_csv(sub / "penalties.csv", ["member", "x", "C"], rows)
    _write_json(
        sub / "manifest.json",
        {
            "figure": "members of the class of fine-optimal penalties at level K = 0.2",
            "K": K,
        },
    )
    produced.append("optimal_penalty_envelope")

    # locus of (S, |G|) for four one-parameter penalty families
    sub = out / "penalty_family_locus"
    sub.mkdir(parents=True, exist_ok=True)
    rows = []
    sweeps = [
        ("quadratic", [QuadraticPenalty(a) for a in np.linspace(0.0, 4.0, 81)]),
        ("linear", [LinearPenalty(a) for a in np.linspace(0.0, 1.0, 81)]),
        ("constant_nonzero", [ConstantNonzeroPenalty(k) for k in np.linspace(0.0, 0.5, 81)]),
        ("optimal_canonical", [OptimalCanonicalPenalty(k) for k in np.linspace(0.0, 0.5, 81)]),
    ]
    for family, pens in sweeps:
        for pen in pens:
            m = compute_metrics(solve_equilibrium(pen).schedule)
            rows.append((family, float(m.S), float(-m.G)))
    _write_csv(sub / "locus.csv", ["family", "S", "abs_G"], rows)
    _write_json(
        sub / "manifest.json",
        {"figure": "locus of (S, |G|) swept by four penalty families"},
    )
    produced.append("penalty_family_locus")

    # constrained frontiers and their generators: one frontier per floor,
    # dropped before the next, so that no frontier outlives its two files
    frontier_dir = out / "constrained_frontiers"
    index_dir = out / "index_curves"
    frontier_dir.mkdir(parents=True, exist_ok=True)
    index_dir.mkdir(parents=True, exist_ok=True)
    for f_min in FIGURE_FLOORS:
        rows = fmin_efficient_frontier(f_min, grid=args.grid)
        _write_csv(
            frontier_dir / f"frontier_fmin_{f_min:.2f}.csv",
            ["G", "S", "v1", "v2", "F"],
            rows,
        )
        _write_csv(
            index_dir / f"indices_fmin_{f_min:.2f}.csv",
            ["abs_G", "v1", "v2"],
            [(-g, v1, v2) for g, s, v1, v2, f in rows],
        )
    _write_json(
        frontier_dir / "manifest.json",
        {
            "figure": "efficient (|G|, S) frontiers under expected-fine floors",
            "f_min_values": list(FIGURE_FLOORS),
        },
    )
    produced.append("constrained_frontiers")
    _write_json(
        index_dir / "manifest.json",
        {"figure": "generator indices (v1, v2) along the constrained frontiers"},
    )
    produced.append("index_curves")

    # price comparison of a threshold schedule vs a two-kink schedule
    sub = out / "price_patterns_surface"
    sub.mkdir(parents=True, exist_ok=True)
    for tag, (v1, v2) in (("threshold", (0.75, 0.75)), ("two_kink", (0.5, 0.75))):
        sol = solve_equilibrium(SurfaceOptimalPenalty(v1, v2))
        _write_csv(sub / f"demand_{tag}.csv", ["v", "X"], sol.schedule.sample_rows(samples))
        _write_csv(sub / f"price_{tag}.csv", ["d", "P"], sol.price.sample_rows(samples))
    _write_json(
        sub / "manifest.json",
        {
            "figure": "price patterns of the budget-efficient schedules",
            "generators": {"threshold": [0.75, 0.75], "two_kink": [0.5, 0.75]},
        },
    )
    produced.append("price_patterns_surface")

    # normal-noise counterparts
    gauss_cases = [
        ("gaussian_quadratic", QuadraticPenalty(2.0), "quadratic penalty, normal noise"),
        (
            "gaussian_constant_above",
            ConstantAbovePenalty(1.0, 0.5),
            "constant penalty on trades above 0.5, normal noise",
        ),
    ]
    grid = GaussianGrid(L=args.gaussian_l, n=args.gaussian_n)
    for name, pen, desc in gauss_cases:
        sub = out / name
        sub.mkdir(parents=True, exist_ok=True)
        gsol = gaussian_fixed_point(pen, grid=grid)
        pts = grid.points
        _write_csv(sub / "demand.csv", ["v", "X"], [(float(v), float(x)) for v, x in zip(pts, gsol.X)])
        _write_csv(sub / "price.csv", ["d", "P"], [(float(d), float(p)) for d, p in zip(pts, gsol.P)])
        _write_json(
            sub / "manifest.json",
            {
                "figure": desc,
                "penalty": pen.to_json(),
                "iterations": gsol.iterations,
                "residual": gsol.residual,
                "converged": gsol.converged,
            },
        )
        produced.append(name)

    _write_json(out / "manifest.json", {"figures": produced})
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kylepen",
        description="Equilibria and regulator metrics for an insider game with trade penalties.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, penalty=True):
        if penalty:
            sp.add_argument(
                "--penalty",
                required=True,
                help="inline penalty JSON or path to a JSON file",
            )
        sp.add_argument(
            "--out",
            default=None,
            help=f"output directory (default: ${OUT_DIR_ENV} or current dir)",
        )

    sp = sub.add_parser("solve", help="solve the equilibrium and emit demand/price curves")
    add_common(sp)
    sp.add_argument("--support", default=None, help="original supports 'a,b,c'")
    sp.add_argument("--method", choices=["auto", "analytic", "numeric"], default="auto")
    sp.add_argument("--samples", type=int, default=1001)
    sp.add_argument("--verify", action="store_true", help="run equilibrium checks")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("metrics", help="closed-form metrics, optional Monte Carlo block")
    add_common(sp)
    sp.add_argument("--support", default=None, help="original supports 'a,b,c'")
    sp.add_argument("--mc", type=int, default=0, help="Monte Carlo sample count")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_metrics)

    sp = sub.add_parser("frontier", help="constrained efficient frontier")
    add_common(sp, penalty=False)
    sp.add_argument("--fmin", type=float, default=0.0)
    sp.add_argument("--grid", type=int, default=400)
    sp.set_defaults(func=_cmd_frontier)

    sp = sub.add_parser("surface", help="full efficient-surface sample")
    add_common(sp, penalty=False)
    sp.add_argument("--grid", type=int, default=400)
    sp.set_defaults(func=_cmd_surface)

    sp = sub.add_parser("mc-validate", help="Monte Carlo check of the closed forms")
    add_common(sp)
    sp.add_argument("--n", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_mc_validate)

    sp = sub.add_parser("gaussian", help="fixed-point solver under normal noise")
    add_common(sp)
    sp.add_argument("--grid-n", type=int, default=801)
    sp.add_argument("--grid-l", type=float, default=5.0)
    sp.add_argument("--damping", type=float, default=0.5)
    sp.add_argument("--tol", type=float, default=1e-5)
    sp.add_argument("--max-iter", type=int, default=200)
    sp.set_defaults(func=_cmd_gaussian)

    sp = sub.add_parser("figures", help="emit the data behind every reproduced figure")
    add_common(sp, penalty=False)
    sp.add_argument("--samples", type=int, default=1001)
    sp.add_argument("--grid", type=int, default=400)
    sp.add_argument("--gaussian-n", type=int, default=801)
    sp.add_argument("--gaussian-l", type=float, default=5.0)
    sp.set_defaults(func=_cmd_figures)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags, which matches the config-error code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (DomainError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
