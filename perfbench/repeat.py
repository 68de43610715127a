"""One benchmark repeat in a fresh process.

    python3 perfbench/repeat.py --workload NAME --seed N --input PATH
        --out DIR --result PATH --spawn-ns T [--trace]

The caller (run.py) sets PYTHONPATH to the checkout's src/ and the BLAS
thread variables to 1. This process imports dctherm, builds the inputs,
runs the workload through the public API the CLI uses, writes the outputs,
checks them, and writes one JSON result file. ``--spawn-ns`` is the
caller's CLOCK_MONOTONIC reading just before it started this process, so
set-up time includes interpreter start-up.

Timing is done by replacing module and class attributes that the callers
look up with wrappers (spans.Recorder); src/ is not modified. Without
--trace only the iteration boundaries and a few once-per-run or
once-per-step calls are wrapped. With --trace every layer listed in
metrics.PER_LAYER is wrapped too.
"""

import time

ENTRY_NS = time.monotonic_ns()

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import metrics  # noqa: E402
import spans as spanlib  # noqa: E402
import workloads  # noqa: E402


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Run:
    """Shared state of one repeat: the recorder, the run-window root span
    and the per-workload facts gathered by the wrappers."""

    def __init__(self, traced):
        self.rec = spanlib.Recorder()
        self.traced = traced
        self.root = None
        self.cpu_start = self.cpu_end = 0.0

    def start(self):
        """Open the run window at the first iteration."""
        if self.root is None:
            self.cpu_start = time.process_time()
            self.root = self.rec.open("run")

    def finish(self):
        self.rec.close(self.root)
        self.cpu_end = time.process_time()
        self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.rec.restore()

    def add(self, name, amount):
        self.rec.counts[name] += amount

    def timed(self, owner, attr, name, after=None, before=None):
        rec = self.rec
        rec.patch(owner, attr, lambda fn: rec.timed(fn, name, before, after))

    def counted(self, owner, attr, name):
        rec = self.rec
        rec.patch(owner, attr, lambda fn: rec.counted(fn, name))


# ---------------------------------------------------------------------------
# Simulation workloads: load_config -> run_once -> write_report.
# ---------------------------------------------------------------------------

def simulate(args, run):
    from dctherm import energy, engine, model, scheduler, thermal, traceio
    from dctherm import utilization

    backlog = []
    seen = {}

    def before_step(a, kw):
        seen.setdefault("state", a[0])
        run.start()

    def after_step(a, kw, result):
        backlog.append(len(a[0].pending_tasks) + len(a[0].running_tasks))

    def after_policy(a, kw, actions):
        run.add("scheduler.run_policy.waiting", len(a[1].waiting))
        run.add("scheduler.run_policy.actions", len(actions))
        run.add("scheduler.migrations",
                sum(1 for act in actions if act.kind == "migrate"))

    run.timed(engine, "step", "engine.step", after_step, before_step)
    run.timed(scheduler, "run_policy", "scheduler.run_policy",
              after_policy if run.traced else None)
    run.timed(model, "load_config", "model.load_config")
    run.timed(traceio, "write_report", "traceio.write_report",
              lambda a, kw, paths: seen.setdefault("paths", paths))
    if run.traced:
        run.timed(engine, "generate_workloads", "traceio.generate_workloads",
                  lambda a, kw, out: run.add("traceio.generate_workloads.tasks",
                                             len(out)))
        run.timed(utilization, "task_views", "utilization.task_views",
                  lambda a, kw, out: run.add("utilization.task_views.tasks",
                                             len(a[0])))
        run.timed(utilization, "utilization_sort", "utilization.utilization_sort")

        def after_map(a, kw, out):
            run.add("utilization.map_workloads.offered", len(a[0]))
            run.add("utilization.map_workloads.assigned", len(out.assigned))

        run.timed(utilization, "map_workloads", "utilization.map_workloads",
                  after_map)
        run.timed(scheduler, "schedule_round", "scheduler.schedule_round")
        run.timed(scheduler, "classify_and_enqueue",
                  "scheduler.classify_and_enqueue")
        run.timed(energy, "host_power", "energy.host_power")
        run.counted(energy, "dynamic_power", "energy.dynamic_power.calls")
        run.counted(thermal, "vm_delta_temperature",
                    "thermal.vm_delta_temperature.calls")
        run.counted(thermal, "cpu_temperature", "thermal.cpu_temperature.calls")

    cfg = model.load_config(args.input)
    report = engine.run_once(cfg)
    traceio.write_report(report, args.out)
    run.finish()

    # Everything below is outside the timed window.
    state = seen["state"]
    summary_path, per_step_path, _ = seen["paths"]
    with open(summary_path, newline="") as fh:
        summary = next(csv.DictReader(fh))
    with open(per_step_path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        power_sum = sum(float(row[4]) for row in rows)
    resummed_j = power_sum * cfg.interval_s
    total_j = float(summary["total_energy_kwh"]) * 3.6e6
    migrate_events = sum(1 for event in report.events if event[1] == "migrate")
    n_steps = len(backlog)
    policy_calls = len(spanlib.durations_ns(run.rec.spans, "scheduler.run_policy"))
    placed = sum(1 for vm in state.vms.values() if vm.host_id is not None)
    quarters = [backlog[max(0, n_steps * k // 4 - 1)] for k in (1, 2, 3, 4)]
    checks = {
        "energy re-summed from per-step power x interval equals the total":
            abs(resummed_j - total_j) <= 1e-9 * max(1.0, total_j),
        "migrations equals the count of migrate events":
            int(summary["migrations"]) == migrate_events,
        "tasks_completed <= tasks_generated":
            int(summary["tasks_completed"]) <= int(summary["tasks_generated"]),
        f"one iteration per step ({cfg.step_count})": n_steps == cfg.step_count,
    }
    selfchecks = {}
    if args.workload == "churn":
        selfchecks[f"migrations > 0 (got {migrate_events})"] = migrate_events > 0
        selfchecks[f"scheduler ran on at least half the steps "
                   f"({policy_calls} of {n_steps})"] = 2 * policy_calls >= n_steps
    else:
        selfchecks[f"scheduler called at most once (got {policy_calls})"] = \
            policy_calls <= 1
    if args.workload == "overload":
        selfchecks[f"unfinished backlog grows every quarter {quarters}"] = all(
            a < b for a, b in zip(quarters, quarters[1:]))
    if args.workload == "fleet":
        selfchecks[f"all {workloads.FLEET_VMS} VMs placed (placed {placed}, "
                   f"waiting {len(state.waiting)})"] = (
            placed == workloads.FLEET_VMS and not state.waiting)
    per_step_sha256 = sha256_file(per_step_path)
    digest = hashlib.sha256(repr(report.summary_row()).encode())
    digest.update(per_step_sha256.encode())
    return {
        "iteration": "engine.step",
        "checks": checks,
        "selfchecks": selfchecks,
        "digest": digest.hexdigest(),
        "per_step_sha256": per_step_sha256,
        "qos": {"energy_kwh": report.total_energy_kwh, "svr": report.svr,
                "migrations": report.migrations,
                "tasks_generated": report.tasks_generated,
                "tasks_completed": report.tasks_completed,
                "temp_mean_c": report.temp_mean_c,
                "temp_max_c": report.temp_max_c,
                "scheduler_calls": policy_calls,
                "final_backlog": backlog[-1] if backlog else 0},
        "report_bytes": sum(os.path.getsize(p) for p in seen["paths"]),
    }


# ---------------------------------------------------------------------------
# Training workload: synthesize_windows -> train_predictor ->
# save_model/load_model.
# ---------------------------------------------------------------------------

def gru_flops(kind, xs_shape, hidden):
    """Flops (two per multiply-add) of one GRU layer call, from shapes.

    Forward, per step: three input and three recurrent products.
    Backward, per step: twice that (weight and input gradients, plus the
    recurrent products for the hidden-state gradient).
    """
    steps, batch, n_in = xs_shape
    macs = steps * batch * hidden * (3 * n_in + 3 * hidden)
    return 2 * macs * (2 if kind == "backward" else 1)


def train(args, run):
    import numpy as np

    from dctherm import gru, predictor

    epoch = {"open": None}
    layer_index = {}

    def before_forward(a, kw):
        model = a[0]
        if len(layer_index) != len(model.layers):
            layer_index.clear()
            layer_index.update({id(l): i for i, l in enumerate(model.layers)})
        keep_cache = kw.get("keep_cache", a[2] if len(a) > 2 else False)
        if not keep_cache:
            return
        # Each training forward starts an epoch and ends the one before.
        run.start()
        if epoch["open"] is not None:
            run.rec.close(epoch["open"])
        epoch["open"] = run.rec.open("predictor.epoch")

    def before_arrays(a, kw):
        # The evaluation windows are converted right after the last epoch.
        if epoch["open"] is not None:
            run.rec.close(epoch["open"])
            epoch["open"] = None

    rec = run.rec
    rec.patch(gru.GruModel, "forward_normalized",
              lambda fn: rec.hooked(fn, before_forward))
    rec.patch(predictor, "sequences_to_arrays",
              lambda fn: rec.hooked(fn, before_arrays))
    run.timed(predictor, "synthesize_windows", "predictor.synthesize_windows")
    if run.traced:
        for kind in ("forward", "backward"):
            def layer_name(a, kind=kind):
                return f"gru.{kind}.l{layer_index.get(id(a[0]), 'x')}"

            def add_flops(a, kw, out, kind=kind):
                xs = a[1] if kind == "forward" else a[1][0]
                run.add(f"gru.{kind}.flops",
                        gru_flops(kind, xs.shape, a[0].hidden_size))

            run.timed(gru.GruLayer, kind, layer_name, add_flops)
        run.timed(gru, "sigmoid", "gru.sigmoid")

    windows = predictor.synthesize_windows(workloads.TRAIN_WINDOWS,
                                           seed=args.seed)
    train_set, test_set = predictor.interleaved_split(
        windows, workloads.TRAIN_HELD_OUT)
    settings = predictor.TrainSettings(epochs=workloads.TRAIN_EPOCHS,
                                       hidden_sizes=workloads.TRAIN_HIDDEN,
                                       seed=workloads.TRAIN_INIT_SEED)
    model, report = predictor.train_predictor(train_set, settings,
                                              test_sequences=test_set)
    model_path = os.path.join(args.out, "model.bin")
    predictor.save_model(model, model_path)
    loaded = predictor.load_model(model_path)
    run.finish()

    x_test, y_test = predictor.sequences_to_arrays(test_set)
    in_memory = model.predict_batch(x_test)
    reloaded = loaded.predict_batch(x_test)
    history = report.loss_history
    seen_layers = sorted({name for name, *_ in run.rec.spans
                          if name.startswith("gru.forward.l")})
    checks = {
        f"all {len(history)} losses finite": (
            len(history) == workloads.TRAIN_EPOCHS
            and all(math.isfinite(v) for v in history)),
        "save_model/load_model round trip predicts identically":
            bool(np.array_equal(in_memory, reloaded)),
        "accuracy recomputed from the reloaded model matches the report":
            predictor.prediction_accuracy(reloaded, y_test) == report.test_accuracy,
    }
    four = f"{metrics.GRU_LAYERS} GRU layers"
    selfchecks = {f"model has {four} (got {len(loaded.layers)})":
                  len(loaded.layers) == metrics.GRU_LAYERS}
    if run.traced:
        selfchecks[f"trace saw {four} (got {len(seen_layers)})"] = \
            len(seen_layers) == metrics.GRU_LAYERS
    digest = hashlib.sha256(repr((report.test_accuracy, history)).encode())
    digest.update(sha256_file(model_path).encode())
    return {
        "iteration": "predictor.epoch",
        "checks": checks,
        "selfchecks": selfchecks,
        "digest": digest.hexdigest(),
        "qos": {"accuracy": report.test_accuracy,
                "final_mse": report.final_train_mse,
                "epochs": report.epochs_run},
    }


# ---------------------------------------------------------------------------
# Per-layer numbers from the spans of a traced repeat.
# ---------------------------------------------------------------------------

def layer_metrics(run, facts):
    spans, counts = run.rec.spans, run.rec.counts
    selfs = {name: ns / 1e6 for name, ns in
             spanlib.self_time_by_name(spans, run.root).items()}

    def calls(name):
        return len(spanlib.durations_ns(spans, name))

    def setup_ms(name):
        return sum(spanlib.durations_ns(spans, name)) / 1e6

    def gflop_s(kind):
        total_ns = sum(sum(spanlib.durations_ns(spans, f"gru.{kind}.l{i}"))
                       for i in range(metrics.GRU_LAYERS))
        return metrics.ratio(counts[f"gru.{kind}.flops"], total_ns)

    steps = spanlib.durations_ns(spans, "engine.step")
    quarter = len(steps) // 4
    growth = metrics.ratio(sum(steps[-quarter:]), sum(steps[:quarter])) \
        if quarter else 0.0
    out = {
        "engine.step.calls": len(steps),
        "engine.step.self_ms": selfs.get("engine.step", 0.0),
        "engine.step.growth": growth,
        "energy.host_power.calls": calls("energy.host_power"),
        "scheduler.run_policy.calls": calls("scheduler.run_policy"),
        "scheduler.place_ratio": metrics.ratio(
            counts["scheduler.run_policy.actions"],
            counts["scheduler.run_policy.waiting"]),
        "utilization.map_workloads.assign_ratio": metrics.ratio(
            counts["utilization.map_workloads.assigned"],
            counts["utilization.map_workloads.offered"]),
        "traceio.write_report.bytes": facts.get("report_bytes", 0),
        "model.load_config.ms": setup_ms("model.load_config"),
        "predictor.synthesize_windows.ms": setup_ms("predictor.synthesize_windows"),
        "gru.sigmoid.calls": calls("gru.sigmoid"),
        "gru.forward.gflop_s": gflop_s("forward"),
        "gru.backward.gflop_s": gflop_s("backward"),
        "predictor.epoch.self_ms": selfs.get("predictor.epoch", 0.0),
        "predictor.final_mse": facts["qos"].get("final_mse", 0.0),
        "predictor.accuracy": facts["qos"].get("accuracy", 0.0),
        "trace.other_self_ms": selfs.get("run", 0.0),
    }
    for name, unit in metrics.PER_LAYER.items():
        if name in out or name == "trace.overhead":
            continue
        if unit == "ms":
            out[name] = selfs.get(name[:-len(".ms")], 0.0)
        else:
            out[name] = counts[name]
    return out, selfs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--input")
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    run = Run(args.trace)
    import dctherm  # noqa: F401  (import time belongs to set-up)
    import_done_ns = spanlib.clock_ns()
    body = train if args.workload == "train" else simulate
    facts = body(args, run)

    spans = run.rec.spans
    _, root_start, root_end, _ = spans[run.root]
    result = dict(facts)
    result.update({
        "setup_s": (root_start - args.spawn_ns) / 1e9,
        "interpreter_s": (ENTRY_NS - args.spawn_ns) / 1e9,
        "import_s": (import_done_ns - args.spawn_ns) / 1e9,
        "run_s": (root_end - root_start) / 1e9,
        "run_cpu_s": run.cpu_end - run.cpu_start,
        "peak_rss_mb": run.rss_mb,
        "iter_ms": [ns / 1e6 for ns in
                    spanlib.durations_ns(spans, facts["iteration"])],
        "nesting_errors": spanlib.nesting_errors(spans),
        "env": environment(),
    })
    if args.trace:
        result["layers"], result["self_ms"] = layer_metrics(run, facts)
        spans_path = os.path.join(args.out, "spans.json")
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": spans, "counts": dict(run.rec.counts)}, fh)
        result["spans_path"] = spans_path
    with open(args.result, "w") as fh:
        json.dump(result, fh)


def environment():
    import platform

    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        **{var: os.environ.get(var, "unset") for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


if __name__ == "__main__":
    main()
