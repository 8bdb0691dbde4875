"""Per-layer tracing from the benchmark's own code.

``Tracer.install`` wraps kylepen's public functions where the CLI calls
them, and the public methods of ``PriceFunction`` and ``DemandSchedule``, so
that each call becomes a span (name, operation, parent, start, end).  Spans
stay in memory and are written out when the run ends.  ``Untraced`` has the
same ``call``, ``time`` and ``peak`` for untraced runs: it only calls through.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# functions the CLI module imported by name: (attribute of kylepen.cli, span)
CLI_CALLS = (
    ("solve_equilibrium", "equilibrium.solve"),
    ("verify_equilibrium", "equilibrium.verify"),
    ("compute_metrics", "metrics.compute_metrics"),
    ("monte_carlo_metrics", "metrics.monte_carlo"),
    ("fmin_efficient_frontier", "frontier.fmin_frontier"),
    ("gaussian_fixed_point", "gaussian.fixed_point"),
    ("validate", "penalties.validate"),
    ("normalize_penalty", "supports.normalize"),
)

# methods: (class name, method, span, trace only calls on more than one point)
METHOD_CALLS = (
    ("PriceFunction", "expected_price", "equilibrium.expected_price", False),
    ("PriceFunction", "sample_rows", "equilibrium.price_sample_rows", False),
    ("PriceFunction", "evaluate", "equilibrium.price_evaluate", True),
    ("DemandSchedule", "sample_rows", "schedules.sample_rows", False),
    ("DemandSchedule", "evaluate", "schedules.evaluate", True),
    ("DemandSchedule", "inverse_left", "schedules.inverse", True),
    ("DemandSchedule", "inverse_right", "schedules.inverse", True),
)

# what a span's result says about the work done, recorded per call
NOTES = {
    "equilibrium.solve": lambda sol: len(sol.schedule.nodes),
    "gaussian.fixed_point": lambda sol: sol.iterations,
    "metrics.monte_carlo": lambda est: est.n,
}

# per_layer metrics: name -> (unit, better)
METRICS = {
    "equilibrium.solve_s": ("s/op", "lower"),
    "equilibrium.solve_calls": ("calls/op", "lower"),
    "equilibrium.schedule_nodes": ("count", "lower"),
    "equilibrium.expected_price_s": ("s/op", "lower"),
    "equilibrium.expected_price_calls": ("calls/op", "lower"),
    "equilibrium.verify_s": ("s/op", "lower"),
    "equilibrium.price_sample_rows_s": ("s/op", "lower"),
    "schedules.sample_rows_s": ("s/op", "lower"),
    "equilibrium.price_evaluate_s": ("s/op", "lower"),
    "schedules.evaluate_s": ("s/op", "lower"),
    "schedules.inverse_s": ("s/op", "lower"),
    "metrics.compute_metrics_s": ("s/op", "lower"),
    "metrics.compute_metrics_calls": ("calls/op", "lower"),
    "metrics.monte_carlo_s": ("s/op", "lower"),
    "metrics.mc_samples_per_s": ("1/s", "higher"),
    "frontier.fmin_frontier_s": ("s/op", "lower"),
    "frontier.fmin_frontier_calls": ("calls/op", "lower"),
    "gaussian.fixed_point_s": ("s/op", "lower"),
    "gaussian.iterations": ("count", "lower"),
    "gaussian.price_update_ms": ("ms", "lower"),
    "gaussian.best_response_ms": ("ms", "lower"),
    "gaussian.price_update_peak_mb": ("MB", "lower"),
    "penalties.validate_s": ("s/op", "lower"),
    "supports.normalize_s": ("s/op", "lower"),
    "cli.self_s": ("s/op", "lower"),
    "cli.bytes_written": ("B/op", "lower"),
}


class Untraced:
    """Direct calls, nothing recorded."""

    op = -1

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def time(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def peak(self, name, fn, *args, **kwargs):
        pass


class Tracer(Untraced):
    def __init__(self):
        self.spans = []  # [name, op, parent index or -1, start, end]
        self.values = defaultdict(list)
        self._stack = []

    def reset(self):
        self.spans.clear()
        self.values.clear()

    def call(self, name, fn, *args, **kwargs):
        rec = [name, self.op, self._stack[-1] if self._stack else -1, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[3] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def time(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.values[name].append(1e3 * (time.perf_counter() - t0))
        return out

    def peak(self, name, fn, *args, **kwargs):
        """Peak traced allocation of one call, numpy buffers included."""
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            self.values[name].append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()

    def note(self, name, value):
        self.values[name].append(value)

    def _wrap(self, name, fn, vector_only):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if vector_only and np.size(args[1]) <= 1:
                return fn(*args, **kwargs)
            out = self.call(name, fn, *args, **kwargs)
            if note is not None:
                self.values[name].append(note(out))
            return out

        return traced

    def install(self, kylepen):
        """Wrap the layer entry points; returns a function that undoes it."""
        saved = []
        targets = [(kylepen.cli, attr, span, False) for attr, span in CLI_CALLS]
        targets += [(getattr(kylepen, cls), meth, span, vec) for cls, meth, span, vec in METHOD_CALLS]
        for owner, attr, span, vec in targets:
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(span, fn, vec))

        def undo():
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

        return undo

    # ------------------------------------------------------------------
    def metrics(self, n_ops: int) -> dict:
        total = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        for name, _, parent, t0, t1 in self.spans:
            total[name] += t1 - t0
            calls[name] += 1
            if parent >= 0:
                child[parent] += t1 - t0
        cli_self = sum(t1 - t0 - child[i] for i, (name, _, _, t0, t1) in enumerate(self.spans) if name == "cli.main")
        v = self.values

        def mean(xs):
            return statistics.fmean(xs) if xs else 0.0

        def median(xs):
            return statistics.median(xs) if xs else 0.0

        per_op = {
            "equilibrium.solve_s": total["equilibrium.solve"],
            "equilibrium.solve_calls": calls["equilibrium.solve"],
            "equilibrium.expected_price_s": total["equilibrium.expected_price"],
            "equilibrium.expected_price_calls": calls["equilibrium.expected_price"],
            "equilibrium.verify_s": total["equilibrium.verify"],
            "equilibrium.price_sample_rows_s": total["equilibrium.price_sample_rows"],
            "schedules.sample_rows_s": total["schedules.sample_rows"],
            "equilibrium.price_evaluate_s": total["equilibrium.price_evaluate"],
            "schedules.evaluate_s": total["schedules.evaluate"],
            "schedules.inverse_s": total["schedules.inverse"],
            "metrics.compute_metrics_s": total["metrics.compute_metrics"],
            "metrics.compute_metrics_calls": calls["metrics.compute_metrics"],
            "metrics.monte_carlo_s": total["metrics.monte_carlo"],
            "frontier.fmin_frontier_s": total["frontier.fmin_frontier"],
            "frontier.fmin_frontier_calls": calls["frontier.fmin_frontier"],
            "gaussian.fixed_point_s": total["gaussian.fixed_point"],
            "penalties.validate_s": total["penalties.validate"],
            "supports.normalize_s": total["supports.normalize"],
            "cli.self_s": cli_self,
            "cli.bytes_written": sum(v["cli.bytes_written"]),
        }
        out = {name: value / n_ops for name, value in per_op.items()}
        mc_time = total["metrics.monte_carlo"]
        out.update(
            {
                "equilibrium.schedule_nodes": mean(v["equilibrium.solve"]),
                "metrics.mc_samples_per_s": sum(v["metrics.monte_carlo"]) / mc_time if mc_time else 0.0,
                "gaussian.iterations": mean(v["gaussian.fixed_point"]),
                "gaussian.price_update_ms": median(v["gaussian.price_update_ms"]),
                "gaussian.best_response_ms": median(v["gaussian.best_response_ms"]),
                "gaussian.price_update_peak_mb": max(v["gaussian.price_update_peak_mb"], default=0.0),
            }
        )
        return {name: {"value": float(out[name]), "unit": unit} for name, (unit, _) in METRICS.items()}

    def write(self, path, metrics, end_to_end):
        """Spans plus both metric sets; end_to_end here includes tracing cost."""
        with open(path, "w") as fh:
            json.dump({"metrics": metrics, "end_to_end_traced": end_to_end, "spans": self.spans}, fh)
