"""Benchmark of kylepen's CLI workloads, run from the root of a checkout.

    python3 perfbench/run.py --workload solve_sweep --seed 1 --seconds 20 --trace 0

Imports kylepen from ./src (nothing is installed), runs the workload's
fixed batch of operations in this process after one untimed warm-up
operation, repeating whole batches until the operations have taken
--seconds, and checks every operation's output.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones, and the spans go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 4  # fresh interpreters timed before the measured loop, and again after it

# numpy reads these when it is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def set_up(workload: str, seed: int, traced: bool = False):
    """Import kylepen from ./src and build the workload's inputs."""
    sys.path.insert(0, str(SRC))
    import kylepen
    import kylepen.cli

    if Path(kylepen.__file__).resolve().parent != SRC / "kylepen":
        raise RuntimeError(f"imported kylepen from {kylepen.__file__}, not from {SRC}")
    import tracing
    import workloads

    tracer = tracing.Tracer() if traced else tracing.Untraced()
    return kylepen, workloads, tracer, workloads.build(workload, seed, tracer)


def setup_seconds(workload: str, seed: int) -> list:
    """Set-up times of SETUP_PROBES fresh interpreters, each timed from inside."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_op(kylepen, tracer, op, out: Path):
    """One timed CLI call; returns (seconds, exit code, stdout, solutions)."""
    solutions = []
    solve = kylepen.cli.solve_equilibrium

    def capture(*args, **kwargs):
        sol = solve(*args, **kwargs)
        solutions.append(sol)
        return sol

    kylepen.cli.solve_equilibrium = capture
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            t0 = time.perf_counter()
            try:
                rc = tracer.call("cli.main", kylepen.cli.main, [*op.argv, "--out", str(out)])
            except Exception:  # an uncaught error is a failed operation, not a crash of the run
                traceback.print_exc()
                rc = None
            elapsed = time.perf_counter() - t0
    finally:
        kylepen.cli.solve_equilibrium = solve
    return elapsed, rc, stdout.getvalue(), solutions


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("figures", "solve_sweep", "mc_validate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "kylepen" / "__init__.py").is_file():
        print(f"error: no kylepen sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"

    if args.setup_probe:
        t0 = time.perf_counter()
        set_up(args.workload, args.seed)
        print(repr(time.perf_counter() - t0))
        return 0

    setup_times = setup_seconds(args.workload, args.seed)
    kylepen, workloads, tracer, ops = set_up(args.workload, args.seed, bool(args.trace))
    if args.trace:
        undo = tracer.install(kylepen)

    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    correct, attempted, failed = True, 0, 0
    latencies, batch_times = [], []

    def run_checked(op, out: Path):
        nonlocal correct
        elapsed, rc, stdout, sols = run_op(kylepen, tracer, op, out)
        if args.trace:
            tracer.note("cli.bytes_written", bytes_under(out))
        try:
            outcome = op.check(rc, out, stdout, sols)
        except Exception:  # a wrong or missing output: report it and keep running
            print(f"check failed: {op.label}", file=sys.stderr)
            traceback.print_exc()
            correct, outcome = False, workloads.OK
        shutil.rmtree(out, ignore_errors=True)
        return elapsed, outcome

    try:
        run_checked(ops[0], work / "warmup")
        if args.trace:
            tracer.reset()
        measured = 0.0
        while measured < args.seconds:
            batch = 0.0
            for k, op in enumerate(ops):
                tracer.op = attempted
                elapsed, outcome = run_checked(op, work / f"op{k}")
                attempted += 1
                failed += outcome == workloads.FAILED
                latencies.append(elapsed)
                batch += elapsed
            batch_times.append(batch)
            measured += batch
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # probes on both sides of the loop, so that one slow spell of the machine
    # does not decide the median
    setup_times += setup_seconds(args.workload, args.seed)

    end_to_end = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "wall_s": {"value": statistics.median(batch_times), "unit": "s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }
    metrics = end_to_end
    if args.trace:
        undo()
        metrics = tracer.metrics(attempted)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json", metrics, end_to_end)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
