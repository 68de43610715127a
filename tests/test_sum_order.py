"""Outputs that do not depend on the interpreter's ``sum()``.

CPython 3.12 and later add floats in ``sum()`` with Neumaier compensation;
3.11 adds them left to right. The golden digests and the benchmark's
sha256 pins were recorded on 3.11, and every float sum that reaches an
output goes through ``energy.ordered_sum``, so with ``builtins.sum``
replaced by a compensated sum each of them must still hold.
"""

import builtins
import hashlib
import itertools
import math
import pathlib

from dctherm import engine, model, traceio
from test_bench_bytes import PER_STEP_SHA256, simulation_config
from test_golden import (GOLDEN_CHURN, GOLDEN_MATRIX, GOLDEN_STRESS, MODES,
                         POLICIES, churn_config, digest, matrix_config,
                         report_digest, stress_state, write_traces)


def compensated_sum(iterable, /, start=0):
    """``sum()`` as CPython 3.12 computes it over ints and floats: exact
    ints until the first float, then Neumaier-compensated float addition,
    with the compensation added once at the end."""
    total, comp = start, 0.0
    for x in iterable:
        if type(total) is float and type(x) is float:
            t = total + x
            if abs(total) >= abs(x):
                comp += (total - t) + x
            else:
                comp += (x - t) + total
            total = t
        elif type(total) is float and type(x) is int:
            total += float(x)
        else:
            total = total + x
    if type(total) is float and comp and math.isfinite(comp):
        total += comp
    return total


def test_outputs_hold_under_a_compensated_sum(monkeypatch, tmp_path):
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert sum([0.1] * 10) == 1.0     # left to right gives 0.9999999999999999
    trace_dir = write_traces(tmp_path)
    moved = []
    for policy, mode, traced in itertools.product(POLICIES, MODES,
                                                  (False, True)):
        key = f"{policy}/{mode}/{'trace' if traced else 'synthetic'}"
        cfg = matrix_config(policy, mode, trace_dir if traced else None)
        if report_digest(engine.run_once(cfg)) != GOLDEN_MATRIX[key]:
            moved.append(key)
    for policy, mode in itertools.product(("thermal", "thermal+utilization"),
                                          MODES):
        key = f"{policy}/{mode}"
        if report_digest(engine.run_once(churn_config(policy, mode))) \
                != GOLDEN_CHURN[key]:
            moved.append(f"churn {key}")
    state = stress_state()
    classes = sorted((vm_id, vm.thermal_class.value)
                     for vm_id, vm in state.vms.items())
    if digest(state.events, state.per_step_rows,
              (classes, state.temp_series)) != GOLDEN_STRESS:
        moved.append("stress")
    for name, want in PER_STEP_SHA256.items():
        cfg = model.config_from_dict(simulation_config(name, seed=1))
        _, per_step_path, _ = traceio.write_report(engine.run_once(cfg),
                                                   tmp_path / name)
        got = hashlib.sha256(pathlib.Path(per_step_path).read_bytes())
        if got.hexdigest() != want:
            moved.append(f"{name} per_step.csv")
    assert moved == []
