import argparse
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dctherm import cli, predictor, traceio
from dctherm.gru import FeatureNorm, GruModel
from dctherm.model import WorkloadGenConfig, config_to_dict, default_datacenter

from test_traceio import SAMPLE_TELEMETRY, write_telemetry_csv

SRC = Path(__file__).resolve().parent.parent / "src"


def write_config(tmp_path, **kw):
    cfg = default_datacenter(seed=2, horizon_s=3000,
                             workload=WorkloadGenConfig(lambda_per_interval=1.5),
                             **kw)
    path = tmp_path / "dc.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    return path


def test_simulate_writes_report(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out_dir = tmp_path / "run"
    code = cli.main(["simulate", "--config", str(cfg_path),
                     "--out", str(out_dir), "--policy", "thermal"])
    assert code == 0
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "per_step.csv").exists()
    assert (out_dir / "manifest.json").exists()
    assert "energy_kwh=" in capsys.readouterr().out


def test_simulate_bad_config_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"interval_s": 0}))
    assert cli.main(["simulate", "--config", str(path)]) == 2
    path.write_bytes(b'{"hosts": [{"id": "pm-\xff"}]}')   # not UTF-8
    assert cli.main(["simulate", "--config", str(path)]) == 2


def test_simulate_negative_power_draw_exit_2(tmp_path, capsys):
    # Once exited 0 and printed energy_kwh=-1.275239.
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"hosts": [{"id": "pm-0", "power": {
        "idle_w": -500.0, "storage": {"read_w": -1.0},
        "extra": {"ports": -3}}}]}))
    assert cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    # The nested parts are built, and checked, before their parent.
    assert "'hosts[0].power.storage.read_w': must be >= 0" in captured.err
    assert "energy_kwh" not in captured.out


def test_simulate_missing_config_exit_3(tmp_path):
    missing = tmp_path / "nope.json"
    code = cli.main(["simulate", "--config", str(missing)])
    assert code == 3


def test_unknown_config_key_exit_2(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"interval_s": 300, "horizon_s": 300,
                                "wat": True}))
    assert cli.main(["simulate", "--config", str(path)]) == 2


def test_simulate_and_report_cycle(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    run_dir = tmp_path / "run"
    cli.main(["simulate", "--config", str(cfg_path), "--out", str(run_dir)])
    capsys.readouterr()
    assert cli.main(["report", "--in", str(run_dir)]) == 0
    assert "total_energy_kwh=" in capsys.readouterr().out


def test_report_prints_the_simulated_svr(tmp_path, capsys):
    # 100 steps at 30 arrivals per step leave about a thousand tasks
    # unfinished; the run's SVR counts them, per_step.csv's svr_cum does not.
    cfg = default_datacenter(horizon_s=100 * 300,
                             workload=WorkloadGenConfig(lambda_per_interval=30.0))
    cfg_path = tmp_path / "dc.json"
    cfg_path.write_text(json.dumps(config_to_dict(cfg)))
    run_dir = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(cfg_path),
                     "--out", str(run_dir)]) == 0
    capsys.readouterr()
    svr = traceio.read_summary_csv(run_dir / "summary.csv")["replicate-0"]["svr"]
    assert svr > 0.3
    assert cli.main(["report", "--in", str(run_dir)]) == 0
    assert f"svr={svr}" in capsys.readouterr().out.splitlines()


def test_report_without_summary_exit_3(tmp_path):
    run_dir = tmp_path / "run"
    cli.main(["simulate", "--config", str(write_config(tmp_path)),
              "--out", str(run_dir)])
    (run_dir / "summary.csv").unlink()
    assert cli.main(["report", "--in", str(run_dir)]) == 3


def test_report_missing_dir_exit_3(tmp_path):
    assert cli.main(["report", "--in", str(tmp_path / "ghost")]) == 3


def test_train_predict_cycle(tmp_path, capsys):
    model_path = tmp_path / "model.bin"
    code = cli.main(["train-predictor", "--synthetic", "60",
                     "--epochs", "5", "--seed", "1",
                     "--out", str(model_path)])
    assert code == 0
    assert model_path.exists()
    out = capsys.readouterr().out
    assert "test_accuracy=" in out

    data_path = tmp_path / "telemetry.csv"
    records = predictor.synthesize_telemetry(1, 30, np.random.default_rng(4))
    write_telemetry_csv(records, data_path)
    assert cli.main(["predict", "--model", str(model_path),
                     "--data", str(data_path)]) == 0
    assert "accuracy=" in capsys.readouterr().out


@pytest.mark.parametrize("case", ["missing-dir", "out-is-a-dir"])
def test_train_unwritable_out_exit_3_before_training(tmp_path, capsys,
                                                     monkeypatch, case):
    # save_model once ran only after training, so a bad --out cost the
    # whole run before it exited 3.
    def no_work(*args, **kwargs):
        raise AssertionError("windows drawn or trained before --out was checked")

    monkeypatch.setattr(predictor, "synthesize_windows", no_work)
    monkeypatch.setattr(predictor, "train_predictor", no_work)
    out = tmp_path / "missing" / "m.bin" if case == "missing-dir" else tmp_path
    assert cli.main(["train-predictor", "--synthetic", "20",
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("io error: cannot write")


def test_predict_garbage_model_exit_3(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"nope")
    data = tmp_path / "d.csv"
    data.write_text(",".join(traceio.CSV_COLUMNS) + "\n")
    assert cli.main(["predict", "--model", str(bad), "--data", str(data)]) == 3


def test_predict_truncated_model_exit_3(tmp_path, monkeypatch):
    # Every case must fail on its length before a model is built: the
    # 184-byte file's header claims a 9 -> 20000 layer (8.94 GiB for u).
    def no_model(*args, **kwargs):
        raise AssertionError("model built before the file length was checked")

    monkeypatch.setattr(predictor.GruModel, "create", no_model)
    blob = (Path(__file__).parent / "data" / "model_v1.bin").read_bytes()
    no_layers = (predictor.MODEL_MAGIC + struct.pack("<III", 1, 0, 9)
                 + bytes(168))
    huge_layer = (predictor.MODEL_MAGIC + struct.pack("<IIII", 1, 1, 9, 20000)
                  + bytes(160))
    model_path = tmp_path / "model.bin"
    data = tmp_path / "d.csv"
    data.write_text(",".join(traceio.CSV_COLUMNS) + "\n")
    for bad in (blob[:12], blob[:30], blob[:-3], blob + b"\0", no_layers,
                huge_layer):
        model_path.write_bytes(bad)
        assert cli.main(["predict", "--model", str(model_path),
                         "--data", str(data)]) == 3


def test_predict_with_a_model_of_other_input_size_exit_3(tmp_path, capsys):
    # Once a numpy broadcast ValueError (exit 1) in feature normalization.
    norm = FeatureNorm(np.zeros(5), np.ones(5), 0.0, 1.0)
    model_path = tmp_path / "five.bin"
    predictor.save_model(GruModel.create(5, (3,), norm), model_path)
    data_path = tmp_path / "telemetry.csv"
    write_telemetry_csv(
        predictor.synthesize_telemetry(1, 10, np.random.default_rng(4)),
        data_path)
    assert cli.main(["predict", "--model", str(model_path),
                     "--data", str(data_path)]) == 3
    err = capsys.readouterr().err
    assert "5 features" in err and "9" in err


@pytest.mark.parametrize("field", ("cpu_temp_c", "fan"))
def test_non_finite_telemetry_exit_3(tmp_path, capsys, field):
    # Once read as inf: predict printed mean_abs_error=infC and exited 0.
    data_path = tmp_path / "telemetry.csv"
    write_telemetry_csv(
        predictor.synthesize_telemetry(1, 12, np.random.default_rng(4)),
        data_path)
    header, *rows = data_path.read_text().splitlines()
    fields = rows[-1].split(",")
    fields[11 if field == "cpu_temp_c" else 2] = "1e400"
    rows[-1] = ",".join(fields)
    data_path.write_text("\n".join([header, *rows]) + "\n")
    model = Path(__file__).parent / "data" / "model_v1.bin"
    assert cli.main(["predict", "--model", str(model),
                     "--data", str(data_path)]) == 3
    assert cli.main(["train-predictor", "--data", str(data_path),
                     "--epochs", "1", "--out", str(tmp_path / "m.bin")]) == 3
    assert "must be finite" in capsys.readouterr().err


NOT_UTF8 = b"\xff\xfe\xfa"


def _unreadable_inputs(tmp_path, case):
    """argv for one CLI command given an input it cannot read or parse, or
    an output path it cannot write."""
    missing_dir = tmp_path / "missing-dir"
    model = Path(__file__).parent / "data" / "model_v1.bin"
    if case == "predict-missing-model":
        return ["predict", "--model", str(tmp_path / "missing.bin"),
                "--data", SAMPLE_TELEMETRY]
    if case == "simulate-out-below-a-file":
        below = tmp_path / "a-file"
        below.write_text("")
        return ["simulate", "--config", str(write_config(tmp_path)),
                "--out", str(below / "run")]
    if case == "train-predictor-missing-dir":
        return ["train-predictor", "--synthetic", "20", "--epochs", "1",
                "--out", str(missing_dir / "m.bin")]
    # The shipped sample holds one record for each of six servers.
    if case == "predict-too-short-telemetry":
        return ["predict", "--model", str(model), "--data", SAMPLE_TELEMETRY]
    if case == "train-predictor-too-short-telemetry":
        return ["train-predictor", "--data", SAMPLE_TELEMETRY,
                "--out", str(tmp_path / "model.bin")]
    telemetry = tmp_path / "telemetry.csv"
    telemetry.write_bytes(",".join(traceio.CSV_COLUMNS).encode() + b"\n"
                          + NOT_UTF8 + b"\n")
    if case == "train-predictor":
        return ["train-predictor", "--data", str(telemetry),
                "--out", str(tmp_path / "model.bin")]
    if case == "predict":
        return ["predict", "--model", str(model), "--data", str(telemetry)]
    if case == "simulate":
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        (trace_dir / "vm_0.trace").write_bytes(b"10\n" + NOT_UTF8 + b"\n")
        return ["simulate", "--config",
                str(write_config(tmp_path, trace_dir=str(trace_dir)))]
    run_dir = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(write_config(tmp_path)),
                     "--out", str(run_dir)]) == 0
    if case == "report-summary-without-svr":
        (run_dir / "summary.csv").write_text("label,seed\nreplicate-0,2\n")
        return ["report", "--in", str(run_dir)]
    name, damage = {
        "report-summary-not-utf8": ("summary.csv", NOT_UTF8),
        "report-per-step-not-utf8": ("per_step.csv", NOT_UTF8),
        "report-summary-not-a-number": ("summary.csv", b"x"),
        "report-summary-extra-field": ("summary.csv", b"0.5,0.5"),
    }[case]
    path = run_dir / name
    text = path.read_bytes()
    # Replace the last field of the second line (a number in both files).
    header, row, rest = text.split(b"\n", 2)
    path.write_bytes(header + b"\n" + row[:row.rindex(b",") + 1] + damage
                     + b"\n" + rest)
    return ["report", "--in", str(run_dir)]


# What stderr must say, where the exit code alone would not tell the
# failure apart from an earlier one.
UNREADABLE_MESSAGES = {
    "predict-too-short-telemetry": "need at least 8 records per server",
    "train-predictor-too-short-telemetry": "need at least 8 records per server",
    "report-summary-without-svr": "summary header",
    "report-summary-extra-field": "expected 10 fields, got 11",
}


@pytest.mark.parametrize("case", [
    "train-predictor", "predict", "simulate", "report-summary-not-utf8",
    "report-per-step-not-utf8", "report-summary-not-a-number",
    "report-summary-without-svr", "report-summary-extra-field",
    "predict-missing-model", "simulate-out-below-a-file",
    "train-predictor-missing-dir", "predict-too-short-telemetry",
    "train-predictor-too-short-telemetry"])
def test_unreadable_text_input_exit_3_without_traceback(tmp_path, capsys,
                                                        case):
    # Each once leaked a UnicodeDecodeError, ValueError, KeyError or
    # FileNotFoundError traceback (exit 1), or, for too-short telemetry,
    # exited 4 (predict) or 2 blaming --test-count (train-predictor). An
    # --out below a regular file once cost the whole simulation first.
    argv = _unreadable_inputs(tmp_path, case)
    capsys.readouterr()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-m", "dctherm.cli", *argv],
                            env=env, capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 3, result.stderr
    assert result.stderr.startswith("io error:")
    assert "Traceback" not in result.stderr
    assert UNREADABLE_MESSAGES.get(case, "") in result.stderr
    assert "energy_kwh=" not in result.stdout


def test_train_on_telemetry_with_too_few_windows_for_test_count_exit_2(
        tmp_path, capsys):
    # Eight records of one server cut one window, which leaves none to
    # train on once the default held-out window is taken.
    data_path = tmp_path / "telemetry.csv"
    write_telemetry_csv(
        predictor.synthesize_telemetry(1, 8, np.random.default_rng(4)),
        data_path)
    assert cli.main(["train-predictor", "--data", str(data_path),
                     "--out", str(tmp_path / "m.bin")]) == 2
    assert "test_count" in capsys.readouterr().err


def test_simulate_arrival_rate_above_bound_exit_2(tmp_path, capsys):
    # 800 arrivals per interval, given as a rate and as a total count
    for workload in ({"lambda_per_interval": 800.0}, {"count": 800 * 10}):
        path = tmp_path / "fast.json"
        path.write_text(json.dumps({
            "hosts": [{"id": "pm-0"}], "vms": [{"id": "vm-0", "host_id": "pm-0"}],
            "horizon_s": 3000, "workload": workload}))
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert "workload" in capsys.readouterr().err


def test_malformed_config_exit_2_without_traceback(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    host = {"id": "pm-0"}
    cases = [
        ({"hosts": [{"id": "pm-0", "thermal": {"r_kw": "0.5"}}]},
         "hosts[0].thermal.r_kw"),
        ({"hosts": [host], "interval_s": 300.0}, "interval_s"),
        ({"hosts": [host], "vms": [{"id": "vm-0", "mips": float("nan")}]},
         "vms[0].mips"),
        # Once a MemoryError in the power model at the first step.
        ({"hosts": [{"id": "pm-0", "cores": 10 ** 12}]}, "hosts[0].cores"),
        # Each constant is > 0 but R*C underflows to 0.0: once a
        # ZeroDivisionError in the time-dependent formula (exit 1).
        ({"hosts": [{"id": "pm-0", "thermal": {"r_kw": 1e-200, "c_jk": 1e-200}}],
          "thermal_mode": "time-dependent"}, "hosts[0].thermal.c_jk"),
    ]
    # Ranges that once passed load and failed at the first arrival (or,
    # with no arrivals, ran and exited 0). The last one's width overflows a
    # double: numpy's uniform draw raised OverflowError, a traceback (exit 1).
    for field, value in (("mips_range", [-5, -1]), ("ram_range", [-50, -10]),
                         ("length_scale", [0, 0]),
                         ("cost_range", [-1.7e308, 1.7e308])):
        cases.append(({"hosts": [host], "vms": [{"id": "vm-0",
                                                  "host_id": "pm-0"}],
                       "workload": {"lambda_per_interval": 5.0,
                                    field: value}},
                      f"workload.{field}"))
    for i, (data, path) in enumerate(cases):
        cfg_path = tmp_path / f"bad{i}.json"
        cfg_path.write_text(json.dumps(data))
        result = subprocess.run(
            [sys.executable, "-m", "dctherm.cli", "simulate",
             "--config", str(cfg_path)],
            env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("config error:")
        assert f"'{path}'" in result.stderr
        assert "Traceback" not in result.stderr


@pytest.mark.parametrize("argv", [
    ["train-predictor", "--synthetic", "0"],
    ["train-predictor", "--synthetic", "-5"],
    ["train-predictor", "--synthetic", "60", "--test-count", "0"],
    ["train-predictor", "--synthetic", "60", "--test-count", "-2"],
    ["train-predictor", "--data", "telemetry.csv", "--test-count", "0"],
    ["train-predictor", "--synthetic", "60", "--epochs", "-3"],
    ["predict", "--model", "model.bin", "--data", "telemetry.csv",
     "--epsilon", "-1"],
    ["predict", "--model", "model.bin", "--data", "telemetry.csv",
     "--epsilon", "nan"],
    ["predict", "--model", "model.bin", "--data", "telemetry.csv",
     "--epsilon", "inf"],
], ids=lambda argv: "_".join(argv[1:]))
def test_out_of_range_numeric_flag_exit_2(tmp_path, capsys, argv):
    # Each once ran (exit 0 or 4) or read its files (exit 3). The bad flag
    # is the last one given.
    flag = argv[-2]
    out = tmp_path / "model.out"
    if argv[0] == "train-predictor":
        argv = argv + ["--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    "simulate --config {config} --seed -1",
    "simulate --config {negative_seed_config}",
    "train-predictor --synthetic 12 --seed -1 --out {out}",
], ids=["simulate-flag", "simulate-config", "train-predictor"])
def test_negative_seed_exit_2(tmp_path, capsys, command):
    # Each once died in numpy's default_rng with a traceback (exit 1).
    negative = tmp_path / "negative.json"
    negative.write_text(json.dumps({"hosts": [{"id": "pm-0"}], "seed": -1}))
    out = tmp_path / "out"
    argv = command.format(config=write_config(tmp_path),
                          negative_seed_config=negative, out=out).split()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_readme_cli_block_lists_exactly_the_parser_subcommands():
    # A removed or added subcommand must not leave README's synopsis stale.
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    documented = [line.split()[1] for line in block.splitlines()
                  if line.startswith("dctherm ")]
    (subparsers,) = [action for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    assert sorted(documented) == sorted(subparsers.choices)
