"""Differential sweep: run the same simulations on two checkouts and compare.

    python tools/diffsweep.py PARENT_ROOT CHANGE_ROOT [--configs 60]
                              [--seeds 1 2 3]

Each side runs in its own process with ``PYTHONPATH=<root>/src``, so it
imports that checkout's ``dctherm``. Both sides build their configs with
the generators of the checkout holding this script, loaded by file path:
``tests/test_engine.py::random_config`` (``--configs`` configs x 4 policies
x 2 thermal modes, 30 steps each, each run once on synthetic load and once
replaying the traces of ``tests/test_golden.py::write_traces``, written to
one temporary directory for both sides, as its path is part of the config
digest) and ``perfbench/workloads.py``'s fleet, overload and
churn configs at each of ``--seeds``. Every run is reduced to
one sha256 over the digest of its (events, per-step rows, summary row), as
in ``tests/test_golden.py``, and the sha256 of the ``summary.csv``,
``per_step.csv`` and ``manifest.json`` its side's ``traceio.write_report``
writes, so a change to the report writer or to the config digest shows
too. At each of ``--seeds`` it also runs perfbench's
train protocol (``synthesize_windows`` -> ``interleaved_split`` ->
``train_predictor`` -> ``save_model``, with ``perfbench/workloads.py``'s
constants), reduced to one sha256 over the loss history, the test accuracy
and the model file's bytes. The script prints the number of runs, of runs
with an overheat eviction, of runs with a migration and of mismatches, and
exits 1 on any mismatch.
"""

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
POLICIES = ("fcfs", "utilization", "thermal", "thermal+utilization")
SIMULATIONS = ("fleet", "overload", "churn")
# The random configs' generator seed, as in the engine's invariant test.
CONFIG_SEED = 2026


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(configs, seeds, trace_dir):
    """(name, config) per run, built with this checkout's generators; the
    traced random runs replay the files in ``trace_dir``."""
    import numpy as np

    from dctherm import model, thermal

    test_engine = _load(ROOT / "tests" / "test_engine.py", "test_engine")
    workloads = _load(ROOT / "perfbench" / "workloads.py", "workloads")
    rng = np.random.default_rng(CONFIG_SEED)
    for index in range(configs):
        base = test_engine.random_config(rng)
        for policy in POLICIES:
            for mode in thermal.MODES:
                name = f"random-{index}/{policy}/{mode}"
                cfg = dataclasses.replace(base, policy=policy,
                                          thermal_mode=mode)
                yield name, model.validate_config(cfg)
                yield (f"{name}/trace", model.validate_config(
                    dataclasses.replace(cfg, trace_dir=trace_dir)))
    for name in SIMULATIONS:
        for seed in seeds:
            yield (f"{name}/seed-{seed}", model.config_from_dict(
                workloads.simulation_config(name, seed)))


def run_digest(report, out_dir):
    """sha256 over the report's in-memory digest and the sha256 of the
    summary.csv, per_step.csv and manifest.json it writes to ``out_dir``."""
    from dctherm import traceio
    from test_golden import report_digest

    parts = [report_digest(report)]
    for path in traceio.write_report(report, out_dir):
        parts.append(hashlib.sha256(pathlib.Path(path).read_bytes())
                     .hexdigest())
    return hashlib.sha256(" ".join(parts).encode("ascii")).hexdigest()


def train_digest(seed, out_dir):
    """sha256 over perfbench's train protocol at ``seed``: the loss
    history, the test accuracy and the bytes of the saved model file."""
    from dctherm import predictor

    workloads = _load(ROOT / "perfbench" / "workloads.py", "workloads")
    windows = predictor.synthesize_windows(workloads.TRAIN_WINDOWS, seed=seed)
    train_set, test_set = predictor.interleaved_split(
        windows, workloads.TRAIN_HELD_OUT)
    settings = predictor.TrainSettings(epochs=workloads.TRAIN_EPOCHS,
                                       hidden_sizes=workloads.TRAIN_HIDDEN,
                                       seed=workloads.TRAIN_INIT_SEED)
    model, report = predictor.train_predictor(train_set, settings,
                                              test_sequences=test_set)
    model_path = pathlib.Path(out_dir) / "model.bin"
    predictor.save_model(model, model_path)
    digest = hashlib.sha256(repr((report.loss_history,
                                  report.test_accuracy)).encode())
    digest.update(model_path.read_bytes())
    return digest.hexdigest()


def run_side(configs, seeds, trace_dir):
    """Print one JSON line per run: [name, digest, evicted, migrated]. The
    traced runs replay the files this side writes to ``trace_dir``."""
    sys.path.insert(0, str(ROOT / "tests"))   # test_engine imports siblings
    from dctherm import engine
    from test_golden import write_traces

    src = pathlib.Path(os.environ["PYTHONPATH"]).resolve()
    if src not in pathlib.Path(engine.__file__).resolve().parents:
        sys.exit(f"dctherm was imported from {engine.__file__}, not {src}")

    write_traces(pathlib.Path(trace_dir))
    with tempfile.TemporaryDirectory() as work:
        out_dir = os.path.join(work, "report")
        for name, cfg in _runs(configs, seeds, trace_dir):
            report = engine.run_once(cfg)
            evicted = any(kind == "overheat-evict"
                          for _, kind, _ in report.events)
            print(json.dumps([name, run_digest(report, out_dir), evicted,
                              report.migrations > 0]))
        for seed in seeds:
            print(json.dumps([f"train/seed-{seed}",
                              train_digest(seed, work), False, False]))


def side_results(root, configs, seeds, trace_dir):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(root).resolve() / "src"))
    command = [sys.executable, __file__, "--side", "--configs", str(configs),
               "--trace-dir", trace_dir, "--seeds", *map(str, seeds)]
    out = subprocess.run(command, env=env, check=True, text=True,
                         stdout=subprocess.PIPE).stdout
    return {name: rest for name, *rest in map(json.loads, out.splitlines())}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs="*", metavar="ROOT",
                        help="the two checkouts to compare")
    parser.add_argument("--configs", type=int, default=60,
                        help="random configs, each run 16 ways")
    parser.add_argument("--seeds", type=int, nargs="*", default=[1, 2, 3],
                        help="perfbench seeds (simulations and train)")
    parser.add_argument("--side", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--trace-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.side:
        run_side(args.configs, args.seeds, args.trace_dir)
        return 0
    if len(args.roots) != 2:
        parser.error("give two checkout roots")
    with tempfile.TemporaryDirectory() as trace_dir:
        before, after = (side_results(root, args.configs, args.seeds,
                                      trace_dir) for root in args.roots)
    mismatches = sorted(name for name in before.keys() | after.keys()
                        if before.get(name, [None])[0]
                        != after.get(name, [None])[0])
    for name in mismatches:
        print(f"mismatch: {name}")
    print(f"runs={len(after)} "
          f"with_evictions={sum(e for _, e, _ in after.values())} "
          f"with_migrations={sum(m for _, _, m in after.values())} "
          f"mismatches={len(mismatches)}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
