"""Command-line front end.

Subcommands: solve, metrics, frontier, surface, mc-validate, gaussian,
figures.  Curves go to CSV files with a header row and deterministic row
ordering; scalars and metadata go to JSON.  Exit codes: 0 success, 2 config
error, 3 infeasible constraint.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .errors import DomainError, InfeasibleError
from .equilibrium import solve_equilibrium, verify_equilibrium
from .metrics import compute_metrics, monte_carlo_metrics
from .frontier import fmin_efficient_frontier, sample_surface
from .supports import DenormalizedSolution, SupportSpec, normalize_penalty
from .gaussian import GaussianGrid, gaussian_fixed_point
from .penalties import (
    ConstantAbovePenalty,
    ConstantNonzeroPenalty,
    LinearPenalty,
    OptimalCanonicalPenalty,
    QuadraticPenalty,
    SurfaceOptimalPenalty,
    penalty_from_json,
    validate,
)

OUT_DIR_ENV = "KYLEPEN_OUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

# spec tables of `kylepen figures`
EQUILIBRIUM_FIGURES = (  # (directory, penalty, description)
    (
        "quadratic_equilibrium",
        QuadraticPenalty(0.125),
        "demand and price under a quadratic penalty with alpha = 0.125",
    ),
    ("linear_equilibrium", LinearPenalty(0.3), "demand and price under a linear penalty with alpha = 0.3"),
    (
        "constant_above_equilibrium",
        ConstantAbovePenalty(0.2, 0.1),
        "demand and price under a constant penalty on trades above 0.1",
    ),
)
ENVELOPE_K = 0.2
ENVELOPE_MEMBERS = (  # (label, penalty), sorted by label
    ("constant_above_0.1", ConstantAbovePenalty(ENVELOPE_K, 0.1)),
    ("constant_nonzero", ConstantNonzeroPenalty(ENVELOPE_K)),
    ("envelope", OptimalCanonicalPenalty(ENVELOPE_K)),
)
LOCUS_SWEEPS = (  # (family, constructor, upper end of an 81-point parameter range from 0)
    ("quadratic", QuadraticPenalty, 4.0),
    ("linear", LinearPenalty, 1.0),
    ("constant_nonzero", ConstantNonzeroPenalty, 0.5),
    ("optimal_canonical", OptimalCanonicalPenalty, 0.5),
)
FIGURE_FLOORS = (0.0, 0.02, 0.05, 0.07)  # expected-fine floors of the frontier figures
SURFACE_PATTERNS = (("threshold", (0.75, 0.75)), ("two_kink", (0.5, 0.75)))  # (tag, (v1, v2))
GAUSSIAN_CASES = (  # (directory, penalty, description)
    ("gaussian_quadratic", QuadraticPenalty(2.0), "quadratic penalty, normal noise"),
    (
        "gaussian_constant_above",
        ConstantAbovePenalty(1.0, 0.5),
        "constant penalty on trades above 0.5, normal noise",
    ),
)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _load_penalty(text: str):
    text = text.strip()
    if text.startswith("{"):
        spec = json.loads(text)
    else:
        spec = json.loads(Path(text).read_text())
    return _admissible(penalty_from_json(spec))


def _admissible(penalty):
    report = validate(penalty)
    if not report.ok:
        raise DomainError(f"inadmissible penalty: {report.violation}")
    return penalty


def _parse_support(text: str) -> SupportSpec:
    parts = [float(t) for t in text.split(",")]
    if len(parts) != 3:
        raise DomainError("--support expects 'a,b,c'")
    return SupportSpec(*parts)


def _solve_on_support(args, method: str = "auto"):
    """Load --penalty and solve it, rescaled to the normalized model when
    --support names a non-unit support; returns (penalty, spec or None,
    normalized penalty, solution).  The normalized penalty is validated
    again: for a > 1 it carries C from [0, a], past the unit range checked
    on load."""
    penalty = _load_penalty(args.penalty)
    spec = _parse_support(args.support) if args.support else None
    if spec is not None and spec.is_identity:
        spec = None
    penalty0 = penalty if spec is None else _admissible(normalize_penalty(penalty, spec))
    return penalty, spec, penalty0, solve_equilibrium(penalty0, method=method)


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


def _write_json(path: Path, obj) -> str:
    """Write obj as sorted, indented, strict JSON (NaN and infinities are
    refused before the file is opened); returns the text for echoing."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    path.write_text(text)
    return text


def _write_curves(out: Path, sol, samples: int, tag: str = ""):
    """demand[_tag].csv and price[_tag].csv of an exact solution."""
    suffix = f"_{tag}" if tag else ""
    _write_csv(out / f"demand{suffix}.csv", ["v", "X"], sol.schedule.sample_rows(samples))
    _write_csv(out / f"price{suffix}.csv", ["d", "P"], sol.price.sample_rows(samples))


def _write_gaussian_curves(out: Path, sol):
    """demand.csv and price.csv of a Gaussian solution on its grid."""
    pts = sol.grid.points.tolist()
    _write_csv(out / "demand.csv", ["v", "X"], zip(pts, sol.X.tolist()))
    _write_csv(out / "price.csv", ["d", "P"], zip(pts, sol.P.tolist()))


def _gaussian_record(penalty, sol) -> dict:
    """The fields every Gaussian output records about its solution."""
    return {
        "penalty": penalty.to_json(),
        "iterations": sol.iterations,
        "residual": sol.residual,
        "converged": sol.converged,
        "flags": sol.flags,
    }


def _intervals(est) -> dict:
    """The {"estimate", "ci99"} block of each Monte Carlo metric."""
    blocks = {}
    for name in ("G", "S", "Pi_N", "F"):
        e = getattr(est, name)
        blocks[name] = {"estimate": e.value, "ci99": [e.ci_lo, e.ci_hi]}
    return blocks


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _cmd_solve(args) -> int:
    if args.samples < 2:
        raise DomainError("--samples must be at least 2")
    penalty, spec, penalty0, sol = _solve_on_support(args, method=args.method)
    out = _out_dir(args)
    _write_curves(out, sol, args.samples)
    meta = {
        "penalty": penalty.to_json(),
        "x_max": sol.schedule.x_max,
        "solver": sol.meta,
    }
    if spec is not None:
        den = DenormalizedSolution(spec, sol)
        meta["support"] = dataclasses.asdict(spec)
        meta["normalized_penalty"] = penalty0.to_json()
        vs = np.linspace(spec.b, spec.c, args.samples)
        rows = zip(vs.tolist(), den.demand(vs).tolist())
        _write_csv(out / "demand_original_support.csv", ["v", "X"], rows)
    if args.verify:
        meta["verification"] = dataclasses.asdict(verify_equilibrium(sol))
    _write_json(out / "meta.json", meta)
    return EXIT_OK


def _cmd_metrics(args) -> int:
    penalty, spec, _, sol = _solve_on_support(args)
    payload = {"penalty": penalty.to_json(), "closed_form": compute_metrics(sol.schedule).as_dict()}
    if spec is not None:
        payload["support"] = dataclasses.asdict(spec)
        payload["original_support_metrics"] = DenormalizedSolution(spec, sol).metrics().as_dict()
    if args.mc:
        est = monte_carlo_metrics(sol, n=args.mc, seed=args.seed)
        payload["monte_carlo"] = {"n": est.n, "seed": est.seed, **_intervals(est)}
    sys.stdout.write(_write_json(_out_dir(args) / "metrics.json", payload))
    return EXIT_OK


def _cmd_frontier(args) -> int:
    rows = fmin_efficient_frontier(args.fmin, grid=args.grid)
    _write_csv(_out_dir(args) / "frontier.csv", ["G", "S", "v1", "v2", "F"], rows)
    return EXIT_OK


def _cmd_surface(args) -> int:
    rows = zip(*(column.tolist() for column in sample_surface(args.grid)))
    _write_csv(_out_dir(args) / "surface.csv", ["v1", "v2", "G", "S", "F"], rows)
    return EXIT_OK


def _cmd_mc_validate(args) -> int:
    penalty = _load_penalty(args.penalty)
    sol = solve_equilibrium(penalty)
    m = compute_metrics(sol.schedule)
    est = monte_carlo_metrics(sol, n=args.n, seed=args.seed)
    checks = _intervals(est)
    for name, check in checks.items():
        check["closed_form"] = closed = getattr(m, name)
        check["inside"] = bool(getattr(est, name).contains(closed))
    payload = {
        "penalty": penalty.to_json(),
        "n": est.n,
        "seed": est.seed,
        "all_inside": all(check["inside"] for check in checks.values()),
        "checks": checks,
    }
    sys.stdout.write(_write_json(_out_dir(args) / "mc_validate.json", payload))
    return EXIT_OK


def _cmd_gaussian(args) -> int:
    penalty = _load_penalty(args.penalty)
    grid = GaussianGrid(L=args.grid_l, n=args.grid_n)
    sol = gaussian_fixed_point(penalty, grid=grid, damping=args.damping, tol=args.tol, max_iter=args.max_iter)
    out = _out_dir(args)
    _write_gaussian_curves(out, sol)
    meta = {"grid": {"L": grid.L, "n": grid.n}, "damping": args.damping, "tol": args.tol}
    _write_json(out / "meta.json", {**_gaussian_record(penalty, sol), **meta})
    return EXIT_OK


def _cmd_figures(args) -> int:
    if args.grid < 2 or args.samples < 2:
        raise DomainError("--grid and --samples must be at least 2")
    grid = GaussianGrid(L=args.gaussian_l, n=args.gaussian_n)
    out = _out_dir(args)
    produced = []

    def figure(name: str, manifest: dict) -> Path:
        """Make the figure's directory, write its manifest and list it."""
        sub = out / name
        sub.mkdir(parents=True, exist_ok=True)
        _write_json(sub / "manifest.json", manifest)
        produced.append(name)
        return sub

    for name, penalty, description in EQUILIBRIUM_FIGURES:
        sol = solve_equilibrium(penalty)
        manifest = {"figure": description, "penalty": penalty.to_json(), "x_max": sol.schedule.x_max}
        _write_curves(figure(name, manifest), sol, args.samples)

    sub = figure(
        "optimal_penalty_envelope",
        {"figure": f"members of the class of fine-optimal penalties at level K = {ENVELOPE_K}", "K": ENVELOPE_K},
    )
    xs = np.linspace(0.0, 1.0, args.samples)
    rows = [(label, x, c) for label, pen in ENVELOPE_MEMBERS for x, c in zip(xs.tolist(), pen.value(xs).tolist())]
    _write_csv(sub / "penalties.csv", ["member", "x", "C"], rows)

    sub = figure("penalty_family_locus", {"figure": "locus of (S, |G|) swept by four penalty families"})
    rows = []
    for family, make, top in LOCUS_SWEEPS:
        for p in np.linspace(0.0, top, 81):
            m = compute_metrics(solve_equilibrium(make(p)).schedule)
            rows.append((family, float(m.S), float(-m.G)))
    _write_csv(sub / "locus.csv", ["family", "S", "abs_G"], rows)

    # one frontier per floor, dropped before the next, so that no frontier
    # outlives its two files
    frontier_dir = figure(
        "constrained_frontiers",
        {"figure": "efficient (|G|, S) frontiers under expected-fine floors", "f_min_values": list(FIGURE_FLOORS)},
    )
    index_dir = figure("index_curves", {"figure": "generator indices (v1, v2) along the constrained frontiers"})
    for f_min in FIGURE_FLOORS:
        rows = fmin_efficient_frontier(f_min, grid=args.grid)
        _write_csv(frontier_dir / f"frontier_fmin_{f_min:.2f}.csv", ["G", "S", "v1", "v2", "F"], rows)
        index_rows = [(-g, v1, v2) for g, s, v1, v2, f in rows]
        _write_csv(index_dir / f"indices_fmin_{f_min:.2f}.csv", ["abs_G", "v1", "v2"], index_rows)

    sub = figure(
        "price_patterns_surface",
        {
            "figure": "price patterns of the budget-efficient schedules",
            "generators": {tag: list(v) for tag, v in SURFACE_PATTERNS},
        },
    )
    for tag, (v1, v2) in SURFACE_PATTERNS:
        _write_curves(sub, solve_equilibrium(SurfaceOptimalPenalty(v1, v2)), args.samples, tag)

    for name, penalty, description in GAUSSIAN_CASES:
        sol = gaussian_fixed_point(penalty, grid=grid)
        _write_gaussian_curves(figure(name, {"figure": description, **_gaussian_record(penalty, sol)}), sol)

    _write_json(out / "manifest.json", {"figures": produced})
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------
# argparse keywords of every flag, each stated once
FLAGS = {
    "--penalty": {"required": True, "help": "inline penalty JSON or path to a JSON file"},
    "--support": {"default": None, "help": "original supports 'a,b,c'"},
    "--method": {"choices": ["auto", "analytic", "numeric"], "default": "auto"},
    "--samples": {"type": int, "default": 1001},
    "--verify": {"action": "store_true", "help": "run equilibrium checks"},
    "--mc": {"type": int, "default": 0, "help": "Monte Carlo sample count"},
    "--seed": {"type": int, "default": 0},
    "--n": {"type": int, "default": 1_000_000},
    "--fmin": {"type": float, "default": 0.0},
    "--grid": {
        "type": int,
        "default": 400,
        "help": "|G| values per frontier (frontier, figures) or generator samples per side (surface)",
    },
    "--grid-n": {"type": int, "default": 801},
    "--grid-l": {"type": float, "default": 5.0},
    "--damping": {"type": float, "default": 0.5},
    "--tol": {"type": float, "default": 1e-5},
    "--max-iter": {"type": int, "default": 200},
    "--gaussian-n": {"type": int, "default": 801},
    "--gaussian-l": {"type": float, "default": 5.0},
    "--out": {"default": None, "help": f"output directory (default: ${OUT_DIR_ENV} or current dir)"},
}

COMMANDS = (  # (name, handler, help, flags); every subcommand also takes --out
    (
        "solve",
        _cmd_solve,
        "solve the equilibrium and emit demand/price curves",
        ("--penalty", "--support", "--method", "--samples", "--verify"),
    ),
    (
        "metrics",
        _cmd_metrics,
        "closed-form metrics, optional Monte Carlo block",
        ("--penalty", "--support", "--mc", "--seed"),
    ),
    ("frontier", _cmd_frontier, "constrained efficient frontier", ("--fmin", "--grid")),
    ("surface", _cmd_surface, "full efficient-surface sample", ("--grid",)),
    ("mc-validate", _cmd_mc_validate, "Monte Carlo check of the closed forms", ("--penalty", "--n", "--seed")),
    (
        "gaussian",
        _cmd_gaussian,
        "fixed-point solver under normal noise",
        ("--penalty", "--grid-n", "--grid-l", "--damping", "--tol", "--max-iter"),
    ),
    (
        "figures",
        _cmd_figures,
        "emit the data behind every reproduced figure",
        ("--samples", "--grid", "--gaussian-n", "--gaussian-l"),
    ),
)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kylepen",
        description="Equilibria and regulator metrics for an insider game with trade penalties.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, handler, help_text, flags in COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        for flag in (*flags, "--out"):
            sp.add_argument(flag, **FLAGS[flag])
        sp.set_defaults(func=handler)
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
    except (DomainError, ValueError, OSError, MemoryError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
