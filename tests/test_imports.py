"""What a process loads: the package alone loads none of its modules, the
simulator never loads the predictor, and the predictor never loads the
simulator. Each case runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

from dctherm.model import WorkloadGenConfig, config_to_dict, default_datacenter

SRC = Path(__file__).resolve().parent.parent / "src"
SIMULATOR = {"dctherm.engine", "dctherm.model", "dctherm.traceio",
             "dctherm.utilization"}
PREDICTOR = {"dctherm.gru", "dctherm.predictor"}


def loaded_after(code):
    """numpy and the dctherm modules in ``sys.modules`` once a fresh
    interpreter has run ``code``."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    names = json.loads(result.stdout.splitlines()[-1])
    return {n for n in names if n == "numpy" or n.startswith("dctherm")}


def cli_main(argv):
    return (f"from dctherm import cli\n"
            f"if cli.main({argv!r}) != 0:\n"
            f"    raise SystemExit('cli.main failed')")


def test_package_import_loads_no_module_and_not_numpy():
    assert loaded_after("import dctherm") == {"dctherm"}


def test_engine_loads_no_predictor():
    loaded = loaded_after("import dctherm.engine")
    assert SIMULATOR <= loaded
    assert not loaded & PREDICTOR


def test_predictor_loads_only_its_dependencies():
    assert loaded_after("import dctherm.predictor") == {
        "numpy", "dctherm", "dctherm.errors", "dctherm.energy",
        "dctherm.thermal", "dctherm.gru", "dctherm.predictor"}


def test_simulate_command_loads_no_predictor(tmp_path):
    cfg = default_datacenter(seed=2, horizon_s=3000,
                             workload=WorkloadGenConfig(lambda_per_interval=1.5))
    path = tmp_path / "dc.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    loaded = loaded_after(cli_main(["simulate", "--config", str(path)]))
    assert "dctherm.engine" in loaded
    assert not loaded & PREDICTOR


def test_synthetic_train_command_loads_no_simulator(tmp_path):
    loaded = loaded_after(cli_main([
        "train-predictor", "--synthetic", "24", "--epochs", "1",
        "--out", str(tmp_path / "model.bin")]))
    assert "dctherm.predictor" in loaded
    assert not loaded & SIMULATOR
