"""Command-line front end.

Subcommands: simulate, train-predictor, predict, report.
Exit codes: 0 success, 2 configuration error, 3 io/parse error or any
other OSError, 4 numeric failure.
"""

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import engine, predictor, traceio
from .errors import (DcthermError, DomainError, InvalidConfig, IoError,
                     NonFiniteLoss, ParseError, SchemaError, UnknownPolicy)
from .model import load_config
from .scheduler import registered_policies

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _number(kind, low):
    """argparse type: a finite ``kind`` (int or float) >= ``low``."""
    def number(text):
        value = kind(text)
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and >= {low}, got {text}")
        return value
    return number


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dctherm",
        description="Thermal-aware datacenter simulator and temperature predictor")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a trace-driven or synthetic experiment")
    sim.add_argument("--config", required=True, help="JSON datacenter config")
    sim.add_argument("--policy", choices=registered_policies(),
                     help="override the config's placement policy")
    sim.add_argument("--seed", type=int, help="override the config's seed")
    sim.add_argument("--replicates", type=int, help="number of replicate runs")
    sim.add_argument("--out", help="directory for summary/per-step CSVs")

    train = sub.add_parser("train-predictor", help="fit the temperature network")
    src = train.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="telemetry CSV to train on")
    src.add_argument("--synthetic", type=_number(int, 1), metavar="N",
                     help="train on N synthesized telemetry windows")
    train.add_argument("--test-count", type=_number(int, 1), default=None,
                       help="held-out windows (default N//11 for synthetic)")
    train.add_argument("--epochs", type=_number(int, 0), default=300)
    train.add_argument("--seed", type=_number(int, 0), default=0)
    train.add_argument("--out", required=True, help="model file to write")

    pred = sub.add_parser("predict", help="score a model against telemetry")
    pred.add_argument("--model", required=True)
    pred.add_argument("--data", required=True)
    pred.add_argument("--epsilon", type=_number(float, 0), default=0.05,
                      help="relative tolerance counted as correct")

    rep = sub.add_parser("report", help="re-summarize a run directory")
    rep.add_argument("--in", dest="run_dir", required=True,
                     help="directory containing per_step.csv")
    return parser


def _cmd_simulate(args):
    cfg = load_config(args.config)
    overrides = {}
    if args.policy is not None:
        overrides["policy"] = args.policy
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.replicates is not None:
        overrides["replicates"] = args.replicates
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    if args.out:
        _check_out_path(args.out, is_dir=True)
    report = engine.run(cfg)
    print(f"policy={report.policy} seed={report.seed} "
          f"lambda={report.lambda_per_interval:.4g}")
    print(f"energy_kwh={report.total_energy_kwh:.6f} svr={report.svr:.4f} "
          f"migrations={report.migrations} temp_mean={report.temp_mean_c:.2f}C "
          f"temp_max={report.temp_max_c:.2f}C")
    if args.out:
        paths = traceio.write_report(report, args.out)
        for path in paths:
            print(f"wrote {path}")
    return EXIT_OK


def _windows_from_args(args):
    if args.data:
        records = traceio.load_telemetry_csv(args.data)
        windows = predictor.sliding_windows(records)
        test_count = args.test_count or max(1, len(windows) // 11)
        if test_count >= len(windows):
            raise InvalidConfig("test_count", "no windows left for training")
        return predictor.interleaved_split(windows, test_count)
    n_train = args.synthetic
    n_test = args.test_count or max(1, n_train // 11)
    windows = predictor.synthesize_windows(n_train + n_test, seed=args.seed)
    return predictor.interleaved_split(windows, n_test)


def _check_out_path(path, is_dir=False):
    """Raise IoError unless ``path`` can be written: a file in a directory
    that exists or, with ``is_dir``, a directory that exists or can be made
    in its nearest existing ancestor. Checked before a long run, so a bad
    --out fails at once rather than after; it creates nothing."""
    if os.path.exists(path) and os.path.isdir(path) != is_dir:
        raise IoError(f"cannot write {path}: it is "
                      f"{'not ' if is_dir else ''}a directory")
    directory = path if is_dir else os.path.dirname(path) or os.curdir
    while is_dir and not os.path.exists(directory):
        directory = os.path.dirname(directory) or os.curdir
    if not os.path.isdir(directory):
        raise IoError(f"cannot write {path}: no directory {directory}")
    if not os.access(directory, os.W_OK):
        raise IoError(f"cannot write {path}: {directory} is not writable")


def _cmd_train(args):
    _check_out_path(args.out)
    train_seqs, test_seqs = _windows_from_args(args)
    settings = predictor.TrainSettings(epochs=args.epochs, seed=args.seed)
    model, report = predictor.train_predictor(train_seqs, settings,
                                              test_sequences=test_seqs or None)
    predictor.save_model(model, args.out)
    print(f"trained on {len(train_seqs)} windows, tested on {len(test_seqs)}")
    print(f"epochs={report.epochs_run} final_mse={report.final_train_mse:.6f} "
          f"test_accuracy={report.test_accuracy:.4f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_predict(args):
    model = predictor.load_model(args.model)
    records = traceio.load_telemetry_csv(args.data)
    preds, actuals = predictor.predict_records(model, records)
    accuracy = predictor.prediction_accuracy(preds, actuals, args.epsilon)
    errors = np.abs(preds - actuals)
    print(f"windows={len(preds)} accuracy={accuracy:.4f} "
          f"(epsilon={args.epsilon:g} relative)")
    print(f"mean_abs_error={errors.mean():.3f}C max_abs_error={errors.max():.3f}C")
    return EXIT_OK


def _cmd_report(args):
    summary = traceio.summarize_per_step(os.path.join(args.run_dir, "per_step.csv"))
    # SVR as run_once defines it, counting tasks unfinished at the horizon;
    # per_step.csv's svr_cum counts only finished tasks.
    rows = traceio.read_summary_csv(os.path.join(args.run_dir, "summary.csv"))
    if "replicate-0" not in rows:
        raise SchemaError("summary.csv has no replicate-0 row")
    summary["svr"] = rows["replicate-0"]["svr"]
    for key in sorted(summary):
        print(f"{key}={summary[key]}")
    return EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "train-predictor": _cmd_train,
        "predict": _cmd_predict,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (InvalidConfig, UnknownPolicy) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IoError, ParseError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NonFiniteLoss, DomainError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DcthermError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
