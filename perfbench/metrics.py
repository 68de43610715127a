"""Metric names, units and the small statistics the benchmark reports.

BENCHMARK.json lists the same names and units; test_perfbench.py checks
that the two agree.
"""

import math
import re

NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Printed with --trace 0. Host time unless the name says otherwise.
END_TO_END = {
    "setup_s": "s",          # fresh process to first iteration
    "run_s": "s",            # first iteration to outputs written, best case
    "iter_ms_p50": "ms",     # per-iteration best host time, median
    "iter_ms_p90": "ms",     # per-iteration host time, 90th percentile
    "peak_rss_mb": "MB",     # maximum resident set of the repeat process
}

# Printed with --trace 1. Every ".ms" is self time inside the run window
# (the span minus its timed children), except the two set-up spans
# model.load_config and predictor.synthesize_windows, which lie before it.
GRU_LAYERS = 4
PER_LAYER = {
    "engine.step.calls": "count",
    "engine.step.self_ms": "ms",
    "engine.step.growth": "ratio",
    "thermal.vm_delta_temperature.calls": "count",
    "thermal.cpu_temperature.calls": "count",
    "energy.dynamic_power.calls": "count",
    "energy.host_power.calls": "count",
    "energy.host_power.ms": "ms",
    "utilization.task_views.ms": "ms",
    "utilization.task_views.tasks": "count",
    "utilization.utilization_sort.ms": "ms",
    "utilization.map_workloads.ms": "ms",
    "utilization.map_workloads.offered": "count",
    "utilization.map_workloads.assigned": "count",
    "utilization.map_workloads.assign_ratio": "ratio",
    "scheduler.run_policy.calls": "count",
    "scheduler.run_policy.ms": "ms",
    "scheduler.run_policy.waiting": "count",
    "scheduler.run_policy.actions": "count",
    "scheduler.place_ratio": "ratio",
    "scheduler.migrations": "count",
    "scheduler.schedule_round.ms": "ms",
    "scheduler.classify_and_enqueue.ms": "ms",
    "traceio.generate_workloads.ms": "ms",
    "traceio.generate_workloads.tasks": "count",
    "traceio.write_report.ms": "ms",
    "traceio.write_report.bytes": "bytes",
    "model.load_config.ms": "ms",
    **{f"gru.forward.l{i}.ms": "ms" for i in range(GRU_LAYERS)},
    **{f"gru.backward.l{i}.ms": "ms" for i in range(GRU_LAYERS)},
    "gru.sigmoid.calls": "count",
    "gru.sigmoid.ms": "ms",
    "gru.forward.gflop_s": "GFLOP/s",
    "gru.backward.gflop_s": "GFLOP/s",
    "predictor.epoch.self_ms": "ms",
    "predictor.synthesize_windows.ms": "ms",
    "predictor.final_mse": "mse",
    "predictor.accuracy": "fraction",
    "trace.other_self_ms": "ms",
    "trace.overhead": "ratio",
}


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of
    the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    return ordered[math.ceil(q / 100.0 * len(ordered)) - 1]


def beyond(n_samples, q):
    """How many samples lie above the nearest-rank q-th percentile."""
    return n_samples - math.ceil(q / 100.0 * n_samples)


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def best_iterations(runs):
    """Each iteration's fastest time across repeats.

    ``runs`` holds one list of per-iteration times per repeat, in
    iteration order. Host noise only ever adds time, so the fastest of
    several timings of the same iteration is the one least disturbed.
    """
    if not runs:
        raise ValueError("no repeats")
    if len({len(times) for times in runs}) != 1:
        raise ValueError("repeats ran different numbers of iterations")
    return [min(times) for times in zip(*runs)]


def best_run_s(runs_s, runs_iter_ms):
    """Best-case run time in seconds: every iteration at its fastest across
    repeats, plus the fastest remainder (the part of a run outside its
    iterations, such as writing the report)."""
    rest = min(run_s - sum(iters) / 1e3
               for run_s, iters in zip(runs_s, runs_iter_ms))
    return sum(best_iterations(runs_iter_ms)) / 1e3 + rest


def ratio(num, den):
    return num / den if den else 0.0
