"""tools/diffsweep.py, pointed at this checkout on both sides."""

import dataclasses
import importlib.util
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_diffsweep_of_a_checkout_against_itself_finds_no_mismatch():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "diffsweep.py"), str(ROOT),
         str(ROOT), "--configs", "2", "--seeds", "1"],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    counts = dict(field.split("=") for field in result.stdout.split())
    # 2 random configs x 4 policies x 2 thermal modes x (synthetic, trace),
    # and fleet, overload, churn and the train protocol at seed 1.
    assert counts["runs"] == "36" and counts["mismatches"] == "0"


def test_run_digest_covers_the_manifest(tmp_path):
    # A moved config digest changes only manifest.json among the outputs.
    from dctherm import engine, model
    spec = importlib.util.spec_from_file_location(
        "diffsweep", ROOT / "tools" / "diffsweep.py")
    diffsweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(diffsweep)
    report = engine.run_once(model.default_datacenter(horizon_s=900))
    moved = dataclasses.replace(report, config_digest="0" * 64)
    assert diffsweep.run_digest(report, tmp_path) \
        == diffsweep.run_digest(report, tmp_path)
    assert diffsweep.run_digest(moved, tmp_path) \
        != diffsweep.run_digest(report, tmp_path)
