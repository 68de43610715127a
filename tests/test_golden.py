"""Golden digests of whole simulation runs.

Each case hashes the event list, the per-step rows and the summary row of
one run. The digests were recorded before the engine's per-step work was
cut to what its outputs read, so any refactor of engine.step, the mapper or
the scheduler must reproduce them byte for byte. A change that alters
results on purpose (a named bug fix) updates the affected digests and says
why.
"""

import hashlib

import pytest

from dctherm import engine, thermal
from dctherm.model import (DataCenterConfig, HostSpec, VmSpec,
                           WorkloadGenConfig, validate_config)

POLICIES = ("fcfs", "utilization", "thermal", "thermal+utilization")
MODES = (thermal.MODE_LITERAL, thermal.MODE_TIME_DEPENDENT)

# Hosts with low thermal limits: they overheat under load, so VMs are
# evicted and migrate on most steps.
CHURN_THERMAL = thermal.ThermalParams(
    t_over_c=43.0, t_danger_c=40.0, t_normal_c=29.0, theta_cl_c=29.0,
    theta_ch_c=40.0, theta_vl_c=1.0, theta_vh_c=3.0)


def digest(events, rows, summary):
    blob = repr((events, rows, summary)).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def report_digest(report):
    return digest(report.events, report.per_step_rows, report.summary_row())


def write_traces(trace_dir):
    # Three fixed utilization traces of different lengths, so the replay
    # cycles each at its own period.
    for i, period in enumerate((7, 11, 13)):
        samples = [(17 * k + 29 * i) % 101 for k in range(period)]
        (trace_dir / f"vm_{i}.trace").write_text(
            "\n".join(str(s) for s in samples) + "\n")
    return str(trace_dir)


def matrix_config(policy, mode, trace_dir=None):
    """Four hosts (one half-size), eight placed VMs and thirteen unplaced
    2000-MIPS VMs: more demand than capacity, so some VMs wait on every
    step and the policy runs each step."""
    hosts = tuple(HostSpec(id=f"pm-{i}", cores=2 if i == 3 else 4)
                  for i in range(4))
    vms = tuple(VmSpec(id=f"vm-{i:02d}", host_id=f"pm-{i % 4}")
                for i in range(8)) \
        + tuple(VmSpec(id=f"big-{i:02d}", mips=2000.0) for i in range(13))
    return validate_config(DataCenterConfig(
        hosts=hosts, vms=vms, horizon_s=30 * 300, seed=5, policy=policy,
        thermal_mode=mode, trace_dir=trace_dir,
        workload=WorkloadGenConfig(lambda_per_interval=6.0)))


def churn_config(policy, mode):
    """Four hot-running hosts filled to their RAM by sixteen placed VMs
    each, four more VMs waiting, and 40 arrivals per interval. Hosts
    overheat, so VMs are evicted and migrate; the waiting VMs take the room
    an eviction frees, so some evicted VMs stay unplaced across steps."""
    hosts = tuple(HostSpec(id=f"pm-{i}", thermal=CHURN_THERMAL)
                  for i in range(4))
    vms = tuple(VmSpec(id=f"vm-{i:02d}", ram_mb=512.0, host_id=f"pm-{i % 4}")
                for i in range(64)) \
        + tuple(VmSpec(id=f"extra-{i}", ram_mb=512.0) for i in range(4))
    return validate_config(DataCenterConfig(
        hosts=hosts, vms=vms, horizon_s=30 * 300, seed=11, policy=policy,
        thermal_mode=mode,
        workload=WorkloadGenConfig(lambda_per_interval=40.0)))


GOLDEN_MATRIX = {
    "fcfs/literal/synthetic":
        "71f0c8e0b9c5e7f843a1e2c029c0c88fe26f11f498401ec489040db9abb37b0f",
    "fcfs/literal/trace":
        "0b39fe166c064212a70966a5af6ad9352de843213fca9c7ff634f07fbe4e11d1",
    "fcfs/time-dependent/synthetic":
        "92face05dd7a6a11e4acca330c2eaa0070a3b548da553437944b9f94817d5f27",
    "fcfs/time-dependent/trace":
        "c683ab90f2a9c75f7d97a869af490180eaa5150034410ba22d206ae4e7c488b6",
    "utilization/literal/synthetic":
        "f88545991564859420b22c0b405ea4422cdcd75b76f9457bc8b7d5caaa4a2940",
    "utilization/literal/trace":
        "6ec3b564dd4b004d664a2794b25eec95f967f7c550f122fa4b2009d4d2f07baf",
    "utilization/time-dependent/synthetic":
        "c80e4338afdc299c893bef2ea91038964b31e9058ef610e095942bc69ade2200",
    "utilization/time-dependent/trace":
        "e6b8f6a06901316b8c61b44442703bef57689f6191f9c07ef91a24a8cef27008",
    "thermal/literal/synthetic":
        "ed245363fe734a6d2797f4986340fd1ce9389ffb5205db24d030d6e6092de525",
    "thermal/literal/trace":
        "64c9b0b181fad8f9fd18e4818fccc6c1dfc0e7f323cc607e08b9f185b7f5a2ce",
    "thermal/time-dependent/synthetic":
        "8a6c6e5fbd9f701b863e6ead7e11077672ee0d606eccae43e8ead586f516ff9d",
    "thermal/time-dependent/trace":
        "ffe7252a9942b47109691c8a699b519b2fd0fae943a1f2b6a4565c7f2988a78c",
    "thermal+utilization/literal/synthetic":
        "ed245363fe734a6d2797f4986340fd1ce9389ffb5205db24d030d6e6092de525",
    "thermal+utilization/literal/trace":
        "64c9b0b181fad8f9fd18e4818fccc6c1dfc0e7f323cc607e08b9f185b7f5a2ce",
    "thermal+utilization/time-dependent/synthetic":
        "8a6c6e5fbd9f701b863e6ead7e11077672ee0d606eccae43e8ead586f516ff9d",
    "thermal+utilization/time-dependent/trace":
        "ffe7252a9942b47109691c8a699b519b2fd0fae943a1f2b6a4565c7f2988a78c",
}

GOLDEN_CHURN = {
    "thermal/literal":
        "728dbd5d52feadd563919b14d4332b9e936f7d8a4fccf8c3b19b55f5dffc288a",
    "thermal/time-dependent":
        "4516c413eb791383a13ac4d6278889be867cbc6236ed27ba4729f935d613073c",
    "thermal+utilization/literal":
        "728dbd5d52feadd563919b14d4332b9e936f7d8a4fccf8c3b19b55f5dffc288a",
    "thermal+utilization/time-dependent":
        "4516c413eb791383a13ac4d6278889be867cbc6236ed27ba4729f935d613073c",
}

GOLDEN_STRESS = (
    "8337eca367863d52d214bc139195da673e44804b99668ea99287749b2bb9b707")


@pytest.mark.parametrize("traced", (False, True), ids=("synthetic", "trace"))
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("policy", POLICIES)
def test_matrix_digest(policy, mode, traced, tmp_path):
    trace_dir = write_traces(tmp_path) if traced else None
    report = engine.run_once(matrix_config(policy, mode, trace_dir))
    key = f"{policy}/{mode}/{'trace' if traced else 'synthetic'}"
    assert report_digest(report) == GOLDEN_MATRIX[key]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("policy", ("thermal", "thermal+utilization"))
def test_churn_digest(policy, mode):
    report = engine.run_once(churn_config(policy, mode))
    # the matrix must cover evict -> delta-T -> schedule_round, including
    # evicted VMs that stay unplaced
    assert report.migrations > 0
    kinds = {kind for _, kind, _ in report.events}
    assert {"overheat-evict", "overheat-unresolved", "allocate"} <= kinds
    assert report_digest(report) == GOLDEN_CHURN[f"{policy}/{mode}"]


def stress_state():
    """Acceptance criterion 9's setup: one host preheated above theta_ch,
    cold and hot VMs all waiting for placement."""
    tp = thermal.ThermalParams(theta_vl_c=1.5, theta_vh_c=5.0)
    hosts = (HostSpec(id="pm-0", thermal=tp), HostSpec(id="pm-1", thermal=tp))
    vms = tuple(VmSpec(id=f"cold-{i}", mips=250.0) for i in range(12)) \
        + tuple(VmSpec(id=f"hot-{i}", mips=2000.0) for i in range(4))
    cfg = validate_config(DataCenterConfig(hosts=hosts, vms=vms,
                                           horizon_s=1500, policy="thermal"))
    state = engine.SimulationState(cfg=cfg, seed=9)
    state.hosts[0].current_temp_c = 75.0
    for _ in range(cfg.step_count):
        engine.step(state)
    return state


def test_stress_digest():
    state = stress_state()
    classes = sorted((vm_id, vm.thermal_class.value)
                     for vm_id, vm in state.vms.items())
    assert digest(state.events, state.per_step_rows,
                  (classes, state.temp_series)) == GOLDEN_STRESS
