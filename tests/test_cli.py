"""Command-line interface: outputs, exit codes and determinism."""

import csv
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import kylepen
import kylepen.cli
from kylepen.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
QUAD = '{"kind": "quadratic", "alpha": 0.125}'
# Admissible on [0, 1], but not on [0, 2], which --support 2,-1,1 rescales onto it.
NEGATIVE_PAST_1 = '{"kind": "tabulated", "points": [[0, 0, false], [1, 0.3, false], [1.5, -0.5, false]]}'
DROP_AT_1 = '{"kind": "tabulated", "points": [[0, 0, false], [1.0, 0.3, true, 0.1]]}'
CONSTANT_ABOVE = '{"kind": "constant_above", "K": 0.1, "x0": 0.3}'


# a*sigma, c - b, C(a x0) / (a sigma) and b + c overflow to infinity
EXTREME_SUPPORTS = [
    ["metrics", "--penalty", '{"kind": "constant_nonzero", "K": 0.1}', "--support", "1e300,-1e300,1e300"],
    ["solve", "--penalty", CONSTANT_ABOVE, "--support", "1e308,-1e308,1e308", "--verify"],
    ["solve", "--penalty", CONSTANT_ABOVE, "--support", "1e-320,-1,1"],
    ["solve", "--penalty", '{"kind": "zero"}', "--support", "1,1e308,1.5e308"],
]


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[_cell(c) for c in row] for row in reader]
    return header, rows


def test_solve_quadratic(tmp_path):
    code = main(["solve", "--penalty", QUAD, "--out", str(tmp_path), "--verify"])
    assert code == EXIT_OK
    header, rows = read_csv(tmp_path / "demand.csv")
    assert header == ["v", "X"]
    demand = {v: x for v, x in rows}
    assert demand[1.0] == pytest.approx(0.8, abs=1e-12)
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["x_max"] == pytest.approx(0.8)
    assert meta["verification"]["optimality"]
    assert (tmp_path / "price.csv").exists()


def test_solve_penalty_from_file(tmp_path):
    pfile = tmp_path / "pen.json"
    pfile.write_text(QUAD)
    code = main(["solve", "--penalty", str(pfile), "--out", str(tmp_path)])
    assert code == EXIT_OK


def test_solve_with_support(tmp_path):
    code = main(
        ["solve", "--penalty", '{"kind": "zero"}', "--support", "2,0,4", "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    _, rows = read_csv(tmp_path / "demand_original_support.csv")
    for v, x in rows:
        assert x == pytest.approx(v - 2.0, abs=1e-10)


def test_metrics_command(tmp_path, capsys):
    code = main(["metrics", "--penalty", '{"kind": "constant_nonzero", "K": 0.2}', "--out", str(tmp_path)])
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "metrics.json").read_text())
    assert payload["closed_form"]["G"] == pytest.approx(-(1.0 - 0.4**1.5) / 6.0)


def test_mc_validate_command(tmp_path, capsys):
    code = main(
        ["mc-validate", "--penalty", QUAD, "--n", "50000", "--seed", "7", "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "mc_validate.json").read_text())
    assert payload["all_inside"]


def test_frontier_command(tmp_path):
    code = main(["frontier", "--fmin", "0.0", "--grid", "120", "--out", str(tmp_path)])
    assert code == EXIT_OK
    header, rows = read_csv(tmp_path / "frontier.csv")
    assert header == ["G", "S", "v1", "v2", "F"]
    for g, s, v1, v2, f in rows:
        assert abs(s - (1.0 / np.sqrt(3.0)) * (1.0 + 2.0 * g)) < 1e-2


def test_frontier_infeasible_exit_code(tmp_path, capsys):
    code = main(["frontier", "--fmin", "0.2", "--out", str(tmp_path)])
    assert code == EXIT_INFEASIBLE


def test_bad_penalty_json_exit_code(tmp_path, capsys):
    code = main(["solve", "--penalty", "{not json", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG


def test_unknown_penalty_kind_exit_code(tmp_path, capsys):
    code = main(["solve", "--penalty", '{"kind": "mystery"}', "--out", str(tmp_path)])
    assert code == EXIT_CONFIG


def test_inadmissible_penalty_exit_code(tmp_path, capsys):
    decreasing = '{"kind": "tabulated", "points": [[0.0, 0.5, false], [1.0, 0.1, false]]}'
    code = main(["solve", "--penalty", decreasing, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "spec",
    [
        '{"kind": "linear"}',
        '{"kind": "tabulated", "points": [[0, 0]]}',
        '{"kind": "quadratic", "alpha": "0.1"}',
    ],
    ids=["missing-key", "short-point", "string-number"],
)
def test_malformed_penalty_exit_code(tmp_path, capsys, spec):
    code = main(["solve", "--penalty", spec, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--penalty", QUAD, "--support", "nan,0,1"],
        ["mc-validate", "--penalty", QUAD, "--n", "0"],
        ["metrics", "--penalty", QUAD, "--mc", "1"],
        ["frontier", "--fmin", "nan"],
        ["frontier", "--grid", "0"],
        ["surface", "--grid", "0"],
        ["gaussian", "--penalty", QUAD, "--grid-l", "nan"],
        ["gaussian", "--penalty", QUAD, "--grid-l", "inf"],
        ["gaussian", "--penalty", QUAD, "--tol", "nan"],
        ["gaussian", "--penalty", QUAD, "--tol", "-1"],
        ["gaussian", "--penalty", QUAD, "--max-iter", "0"],
        ["figures", "--gaussian-l", "nan"],
        ["solve", "--penalty", QUAD, "--samples", "0"],
        ["solve", "--penalty", QUAD, "--samples", "1"],
        ["figures", "--samples", "0"],
        ["figures", "--grid", "1"],
        ["gaussian", "--penalty", QUAD, "--grid-l", "1e300"],
        ["gaussian", "--penalty", QUAD, "--grid-l", "1e-300"],
        ["solve", "--penalty", NEGATIVE_PAST_1, "--support", "2,-1,1"],
        ["solve", "--penalty", DROP_AT_1, "--support", "2,-1,1"],
        ["metrics", "--penalty", DROP_AT_1, "--support", "2,-1,1"],
        # numpy refuses these counts at once, without touching memory
        ["mc-validate", "--penalty", QUAD, "--n", str(10**15)],
        ["metrics", "--penalty", QUAD, "--mc", str(10**15)],
        *EXTREME_SUPPORTS,
    ],
    ids=[
        "nan-support",
        "mc-no-draws",
        "metrics-one-draw",
        "nan-floor",
        "frontier-grid-0",
        "surface-grid-0",
        "nan-grid-l",
        "inf-grid-l",
        "nan-tol",
        "negative-tol",
        "max-iter-0",
        "figures-nan-gaussian-l",
        "samples-0",
        "samples-1",
        "figures-samples-0",
        "figures-grid-1",
        "huge-grid-l",
        "tiny-grid-l",
        "support-negative-past-1",
        "support-drop-at-1",
        "metrics-support-drop-at-1",
        "mc-huge-n",
        "metrics-huge-mc",
        "support-a-sigma-overflows",
        "support-width-overflows",
        "support-rescale-overflows",
        "support-midpoint-overflows",
    ],
)
def test_bad_numeric_input_exit_code(tmp_path, capsys, argv):
    code = main(argv + ["--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err and "concatenate" not in err
    if argv == EXTREME_SUPPORTS[2]:  # support-rescale-overflows
        assert err == "error: penalty does not rescale to a finite one on this support\n"


@pytest.mark.parametrize("argv", EXTREME_SUPPORTS, ids=["a-sigma", "width", "rescale", "midpoint"])
def test_extreme_supports_write_nothing(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize(
    "penalty, violation",
    [(NEGATIVE_PAST_1, "nonnegative"), (DROP_AT_1, "left-continuous (downward jump)")],
    ids=["negative-past-1", "drop-at-1"],
)
def test_support_validates_the_rescaled_penalty(tmp_path, capsys, penalty, violation):
    assert main(["solve", "--penalty", penalty, "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    assert main(["solve", "--penalty", penalty, "--support", "2,-1,1", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: inadmissible penalty: {violation}\n"


@pytest.mark.parametrize(
    "argv",
    [["--grid", "1"], ["--samples", "0"], ["--gaussian-l", "nan"]],
    ids=["grid-1", "samples-0", "nan-gaussian-l"],
)
def test_bad_figures_options_write_nothing(tmp_path, capsys, argv):
    out = tmp_path / "figures"
    assert main(["figures", *argv, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("samples", ["0", "1"])
def test_bad_solve_samples_create_no_out_directory(tmp_path, samples):
    out = tmp_path / "solve"
    assert main(["solve", "--penalty", QUAD, "--samples", samples, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_surface_command(tmp_path):
    code = main(["surface", "--grid", "40", "--out", str(tmp_path)])
    assert code == EXIT_OK
    header, rows = read_csv(tmp_path / "surface.csv")
    assert header == ["v1", "v2", "G", "S", "F"]
    assert len(rows) == 40 * 40


def test_gaussian_command(tmp_path):
    code = main(
        [
            "gaussian",
            "--penalty",
            '{"kind": "zero"}',
            "--grid-n",
            "101",
            "--grid-l",
            "5",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["converged"]
    _, rows = read_csv(tmp_path / "demand.csv")
    assert len(rows) == 101


def test_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("KYLEPEN_OUT_DIR", str(tmp_path))
    code = main(["frontier", "--fmin", "0.0", "--grid", "50"])
    assert code == EXIT_OK
    assert (tmp_path / "frontier.csv").exists()


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["solve", "--penalty", QUAD, "--out", str(out)]) == EXIT_OK
    for name in ("demand.csv", "price.csv", "meta.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


CURVES = ("demand.csv", "price.csv")
FLOORS = ("0.00", "0.02", "0.05", "0.07")
# every figure directory of `kylepen figures`, in manifest order, with its CSV files
FIGURE_FILES = {
    "quadratic_equilibrium": CURVES,
    "linear_equilibrium": CURVES,
    "constant_above_equilibrium": CURVES,
    "optimal_penalty_envelope": ("penalties.csv",),
    "penalty_family_locus": ("locus.csv",),
    "constrained_frontiers": tuple(f"frontier_fmin_{f}.csv" for f in FLOORS),
    "index_curves": tuple(f"indices_fmin_{f}.csv" for f in FLOORS),
    "price_patterns_surface": (
        "demand_threshold.csv",
        "demand_two_kink.csv",
        "price_threshold.csv",
        "price_two_kink.csv",
    ),
    "gaussian_quadratic": CURVES,
    "gaussian_constant_above": CURVES,
}


def test_figures_smoke(tmp_path):
    code = main(
        [
            "figures",
            "--samples",
            "101",
            "--grid",
            "60",
            "--gaussian-n",
            "101",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["figures"] == list(FIGURE_FILES)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*FIGURE_FILES, "manifest.json"])
    for name, files in FIGURE_FILES.items():
        assert sorted(p.name for p in (tmp_path / name).iterdir()) == sorted([*files, "manifest.json"])


def test_the_names_the_benchmark_wraps_exist():
    """perfbench's tracer wraps these kylepen.cli globals and methods; a
    deletion that removes one must fail here, not only under --trace 1."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for attr, _ in tracing.CLI_CALLS:
        assert callable(getattr(kylepen.cli, attr)), attr
    for cls, method, _, _ in tracing.METHOD_CALLS:
        assert cls in ("PriceFunction", "DemandSchedule")
        assert callable(getattr(getattr(kylepen, cls), method)), (cls, method)
    for name in kylepen.__all__:
        assert hasattr(kylepen, name), name
