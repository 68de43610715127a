"""The benchmark's simulation runs, pinned by their per_step.csv bytes.

perfbench/run.py prints the sha256 of the per_step.csv each simulation
workload writes; the digests below are the ones its fleet, churn and
overload runs print at seed 1. Overload (about 0.3 s) is the only full run
whose backlog holds tasks across steps, so it is the one that exercises the
backlog's splice, removal and held-task paths. The configs come from
perfbench/workloads.py, loaded from its file and used as they are, so the
file hashed here is the one the benchmark writes. tests/test_golden.py pins
other configs.
"""

import hashlib
import importlib.util
import pathlib

import pytest

from dctherm import engine, model, traceio

WORKLOADS = (pathlib.Path(__file__).resolve().parents[1]
             / "perfbench" / "workloads.py")

PER_STEP_SHA256 = {
    "fleet": "d19c82ecc7f3369d1f8b857ae67353abbec7eae1cdf5a65c6d3aa89619bc9b1c",
    "churn": "0bd7bfe6fcb1608829b2828ed4ef22410107dd20f82bc97795c012ff8afeacc9",
    "overload":
        "756ee70151728a9ebd6b0b307c0d2d6f103662320461cca5a4e8e491d6b5e051",
}


def simulation_config(name, seed):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.simulation_config(name, seed)


@pytest.mark.parametrize("name", sorted(PER_STEP_SHA256))
def test_per_step_csv_sha256(name, tmp_path):
    cfg = model.config_from_dict(simulation_config(name, seed=1))
    _, per_step_path, _ = traceio.write_report(engine.run_once(cfg), tmp_path)
    digest = hashlib.sha256(pathlib.Path(per_step_path).read_bytes())
    assert digest.hexdigest() == PER_STEP_SHA256[name]
