import json

from dctherm import cli, traceio
from dctherm.model import WorkloadGenConfig, config_to_dict, default_datacenter


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


def test_simulate_missing_config_exit_3(tmp_path):
    missing = tmp_path / "nope.json"
    code = cli.main(["simulate", "--config", str(missing)])
    assert code == 3


def test_unknown_config_key_exit_2(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"interval_s": 300, "horizon_s": 300,
                                "wat": True}))
    assert cli.main(["simulate", "--config", str(path)]) == 2


def test_gen_workload_and_report_cycle(tmp_path, capsys):
    out = tmp_path / "wl.csv"
    assert cli.main(["gen-workload", "--count", "30", "--seed", "9",
                     "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 31

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
    import numpy as np

    from dctherm.predictor import synthesize_telemetry
    records = synthesize_telemetry(1, 30, np.random.default_rng(4))
    traceio.save_telemetry_csv(records, data_path)
    assert cli.main(["predict", "--model", str(model_path),
                     "--data", str(data_path)]) == 0
    assert "accuracy=" in capsys.readouterr().out


def test_predict_garbage_model_exit_3(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"nope")
    data = tmp_path / "d.csv"
    data.write_text(",".join(traceio.CSV_COLUMNS) + "\n")
    assert cli.main(["predict", "--model", str(bad), "--data", str(data)]) == 3
