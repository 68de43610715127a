import dataclasses

import pytest

from dctherm import model
from dctherm.errors import InvalidConfig


def test_default_config_step_count():
    cfg = model.default_datacenter()
    assert cfg.horizon_s == 172800
    assert cfg.interval_s == 300
    assert cfg.step_count == 576


def test_zero_interval_rejected():
    cfg = dataclasses.replace(model.default_datacenter(), interval_s=0)
    with pytest.raises(InvalidConfig):
        model.validate_config(cfg)


def test_horizon_not_multiple_rejected():
    cfg = dataclasses.replace(model.default_datacenter(),
                              horizon_s=1000, interval_s=300)
    with pytest.raises(InvalidConfig):
        model.validate_config(cfg)


def test_step_count_is_exact_for_many_horizons():
    for steps in (1, 3, 17, 576, 10000):
        cfg = dataclasses.replace(model.default_datacenter(),
                                  horizon_s=300 * steps)
        assert cfg.step_count == steps


def test_default_datacenter_matches_reference_shape():
    cfg = model.default_datacenter()
    assert len(cfg.hosts) == 4 and len(cfg.vms) == 12
    host = cfg.hosts[0]
    assert (host.cores, host.mips_per_core, host.ram_mb, host.bandwidth_bps) \
        == (4, 2000.0, 8192.0, 1e9)
    vm = cfg.vms[0]
    assert (vm.mips, vm.ram_mb, vm.bandwidth_bps) == (500.0, 1024.0, 1e8)


def test_unknown_host_reference_rejected():
    hosts = (model.HostSpec(id="pm-0"),)
    vms = (model.VmSpec(id="vm-0", host_id="pm-9"),)
    with pytest.raises(InvalidConfig):
        model.validate_config(model.DataCenterConfig(hosts=hosts, vms=vms))


def test_initial_overcommit_rejected():
    hosts = (model.HostSpec(id="pm-0", cores=1, mips_per_core=500),)
    vms = tuple(model.VmSpec(id=f"vm-{i}", mips=300, host_id="pm-0")
                for i in range(2))
    with pytest.raises(InvalidConfig):
        model.validate_config(model.DataCenterConfig(hosts=hosts, vms=vms))


def test_utilization_snapshot_ranges():
    model.UtilizationSnapshot(resource=1.0, memory_pct=100.0)
    with pytest.raises(InvalidConfig):
        model.UtilizationSnapshot(resource=1.5)
    with pytest.raises(InvalidConfig):
        model.UtilizationSnapshot(memory_pct=150.0)


def test_workload_invariants():
    with pytest.raises(InvalidConfig):
        model.Workload(id="w", length_mi=0, mips_requested=100)
    with pytest.raises(InvalidConfig):
        model.Workload(id="w", length_mi=10, mips_requested=100, arrival_s=-1)
    w = model.Workload(id="w", length_mi=300000, mips_requested=500)
    assert w.nominal_runtime_s == 600.0


def test_config_round_trip(tmp_path):
    cfg = model.default_datacenter(
        seed=99, policy="thermal+utilization",
        workload=model.WorkloadGenConfig(count=120))
    path = tmp_path / "dc.json"
    model.save_config(cfg, path)
    loaded = model.load_config(path)
    assert loaded == cfg
    assert model.config_digest(loaded) == model.config_digest(cfg)


def test_unknown_keys_fail_fast():
    with pytest.raises(InvalidConfig):
        model.config_from_dict({"interval_s": 300, "surprise": 1})
    with pytest.raises(InvalidConfig):
        model.config_from_dict({"hosts": [{"id": "pm-0", "sockets": 2}]})


def test_unknown_policy_fails_at_load():
    # All VMs placed and no workload: the scheduler never fires, so the
    # name would otherwise never be looked up.
    data = {"hosts": [{"id": "pm-0"}],
            "vms": [{"id": "vm-0", "host_id": "pm-0"}],
            "horizon_s": 600, "policy": "no-such-policy"}
    with pytest.raises(InvalidConfig) as err:
        model.config_from_dict(data)
    assert err.value.field == "policy"
    cfg = dataclasses.replace(model.default_datacenter(horizon_s=600),
                              policy="no-such-policy")
    with pytest.raises(InvalidConfig):
        model.validate_config(cfg)


def test_presets_expand():
    cfg = model.config_from_dict({
        "hosts": [{"id": "pm-0", "thermal": "default", "power": "default"}],
        "vms": [{"id": "vm-0", "host_id": "pm-0"}],
    })
    assert cfg.hosts[0].thermal.t_over_c == 79.0
    assert cfg.hosts[0].power.dyn.mu1 == 120.0


def test_arrival_rate_above_bound_fails_at_load():
    base = {"hosts": [{"id": "pm-0"}],
            "vms": [{"id": "vm-0", "host_id": "pm-0"}], "horizon_s": 3000}
    # 10 steps: a count of 8000 is 800 arrivals per interval
    for workload in ({"lambda_per_interval": 800.0}, {"count": 8000}):
        with pytest.raises(InvalidConfig) as err:
            model.config_from_dict({**base, "workload": workload})
        assert err.value.field == "workload"
    for workload in ({"lambda_per_interval": float(model.MAX_ARRIVAL_RATE)},
                     {"count": 10 * model.MAX_ARRIVAL_RATE}):
        cfg = model.config_from_dict({**base, "workload": workload})
        assert model.derive_lambda(cfg) == model.MAX_ARRIVAL_RATE
