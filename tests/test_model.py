import dataclasses
import hashlib
import json

import numpy as np
import pytest

from dctherm import energy, model
from dctherm.errors import InvalidConfig


def dump_config(cfg, path):
    """Write ``cfg`` as a config file: its JSON with sorted keys."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def test_initial_ram_overcommit_rejected():
    # Once accepted: the run started with a negative RAM residual the
    # scheduler's _fits never allows, so the host could not take a VM back.
    hosts = (model.HostSpec(id="pm-0", ram_mb=1024.0),)
    vms = tuple(model.VmSpec(id=f"vm-{i}", ram_mb=768.0, host_id="pm-0")
                for i in range(2))
    with pytest.raises(InvalidConfig, match="host pm-0 over-committed.*RAM"):
        model.validate_config(model.DataCenterConfig(hosts=hosts, vms=vms))
    # Filled exactly to its RAM is allowed.
    model.validate_config(model.DataCenterConfig(
        hosts=hosts, vms=tuple(model.VmSpec(id=f"vm-{i}", ram_mb=512.0,
                                            host_id="pm-0")
                               for i in range(2))))


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
    dump_config(cfg, path)
    loaded = model.load_config(path)
    assert loaded == cfg
    assert model.config_digest(loaded) == model.config_digest(cfg)
    # The digest is run provenance: a loader or writer change must not move it.
    assert model.config_digest(cfg) == \
        "2cb58911d524c9062d401fd9d73d98ed9713b53b95da7b2bb09e0383fb38bf6b"


def test_config_digest_matches_sorted_json_oracle():
    from oracles import oracle_config_dict, oracle_config_digest
    from test_engine import random_config
    rng = np.random.default_rng(2026)
    configs = [random_config(rng) for _ in range(25)]
    base = configs[0]
    host = base.hosts[0]
    configs += [
        # A power field of -0.0 prints as -0.0, not as 0.0.
        dataclasses.replace(base, hosts=(dataclasses.replace(
            host, power=energy.PowerParams(leakage_w=-0.0)),)),
        # theta_vl_c and theta_vh_c left None.
        dataclasses.replace(base, hosts=(dataclasses.replace(
            host, thermal=dataclasses.replace(
                host.thermal, theta_vl_c=None, theta_vh_c=None)),)),
        # A non-ASCII host id, escaped as json.dumps escapes it.
        dataclasses.replace(base, vms=(), hosts=(dataclasses.replace(
            host, id="pm-\u00e9\u6771-0"),)),
        dataclasses.replace(base, workload=None),
        dataclasses.replace(base, trace_dir="traces/vm-\u00e9"),
        model.default_datacenter(seed=99, policy="thermal+utilization",
                                 workload=model.WorkloadGenConfig(count=120)),
    ]
    for cfg in configs:
        assert model.config_to_dict(cfg) == oracle_config_dict(cfg)
        assert model.config_digest(cfg) == oracle_config_digest(cfg) \
            == hashlib.sha256(json.dumps(
                model.config_to_dict(cfg), sort_keys=True,
                separators=(",", ":")).encode("utf-8")).hexdigest()
    assert "-0.0" in json.dumps(model.config_to_dict(configs[25]))


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


def test_workload_ranges_checked_at_load():
    base = {"hosts": [{"id": "pm-0"}]}
    rejected = [("length_base_mi", 0), ("length_scale", [0.0, 1.0]),
                ("mips_range", [0, 5]), ("ram_range", [-1, 5]),
                ("file_base_mb", -1.0), ("file_scale", [-0.5, 1.0]),
                ("output_base_mb", -1.0), ("output_scale", [-0.5, 1.0])]
    for field, value in rejected:
        with pytest.raises(InvalidConfig) as err:
            model.config_from_dict({**base, "workload": {field: value}})
        assert err.value.field == f"workload.{field}"
    # Zero RAM and zero-sized files are valid tasks.
    accepted = {"ram_range": [0, 5], "file_base_mb": 0, "file_scale": [0, 1],
                "output_base_mb": 0, "output_scale": [0, 1]}
    model.config_from_dict({**base, "workload": accepted})


def test_core_count_bounded_at_load():
    for cores in (0, model.MAX_CORES + 1, 10 ** 12):
        with pytest.raises(InvalidConfig) as err:
            model.config_from_dict({"hosts": [{"id": "pm-0", "cores": cores}]})
        assert err.value.field == "hosts[0].cores"
    cfg = model.config_from_dict(
        {"hosts": [{"id": "pm-0", "cores": model.MAX_CORES}]})
    assert cfg.hosts[0].cores == model.MAX_CORES


HOST = {"id": "pm-0"}

# Inputs that once crashed the loader or the run, or ran anyway, each with
# the path its InvalidConfig must name.
MALFORMED = [
    ({"hosts": [{"cores": 2}]}, "hosts[0].id"),
    ({"hosts": [{"id": "pm-0", "thermal": {"r_kw": "0.5"}}]},
     "hosts[0].thermal.r_kw"),
    ({"hosts": [HOST], "vms": [{"id": "vm-0", "mips": None}]}, "vms[0].mips"),
    ({"hosts": [HOST], "workload": {"length_scale": [1.1]}},
     "workload.length_scale"),
    ({"hosts": [HOST], "seed": 1.5}, "seed"),
    ({"hosts": [{"id": "pm-0", "power": {"storage": 5}}]},
     "hosts[0].power.storage"),
    ({"hosts": [HOST], "replicates": 2.5}, "replicates"),
    ({"hosts": [{"id": "pm-0", "cores": 2.5}]}, "hosts[0].cores"),
    ({"hosts": [HOST], "workload": {"count": "10"}}, "workload.count"),
    ({"hosts": [HOST], "interval_s": 300.0}, "interval_s"),
    ({"hosts": [{"id": "pm-0", "thermal": {"r_kw": float("nan")}}]},
     "hosts[0].thermal.r_kw"),
    ({"hosts": [HOST], "vms": [{"id": "vm-0", "mips": float("inf")}]},
     "vms[0].mips"),
    ({"hosts": [{"id": "pm-0", "ram_mb": 10 ** 400}]}, "hosts[0].ram_mb"),
    ([], "config"),
    ({}, "hosts"),
    ({"hosts": [{"id": "pm-0", "power": {"dyn": {"mu1": -1.0}}}]},
     "hosts[0].power.dyn.mu1"),
    ({"hosts": [{"id": "pm-0", "power": {"cooling": {"fan_w": -1.0}}}]},
     "hosts[0].power.cooling.fan_w"),
]


@pytest.mark.parametrize("data,path", MALFORMED,
                         ids=[path for _, path in MALFORMED])
def test_malformed_config_names_its_path(data, path):
    with pytest.raises(InvalidConfig) as err:
        model.config_from_dict(data)
    assert err.value.field == path


def power_leaf_paths(cls=energy.PowerParams, prefix=""):
    """Every number field of the power parameter set, as a dotted path."""
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.type):
            yield from power_leaf_paths(f.type, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


@pytest.mark.parametrize("leaf", list(power_leaf_paths()))
def test_negative_power_field_fails_at_load(leaf):
    # Once only the cooling and dynamic coefficients were checked: a
    # negative idle draw loaded and simulated a negative energy.
    *parents, name = leaf.split(".")
    power = value = {}
    for part in parents:
        value = value.setdefault(part, {})
    value[name] = -1 if name == "ports" else -0.5
    with pytest.raises(InvalidConfig) as err:
        model.config_from_dict({"hosts": [{"id": "pm-0", "power": power}]})
    assert err.value.field == f"hosts[0].power.{leaf}"
    assert err.value.reason == "must be >= 0"


def test_every_nested_set_round_trips(tmp_path):
    power = {"short_circuit_w": 1.5, "leakage_w": 3, "idle_w": 7.0,
             "storage": {"read_w": 14.0, "write_w": 13.0, "idle_w": 4.0},
             "memory": {"sram_w": 2.0, "dram_w": 6.0},
             "network": {"router_w": 29.0, "gateway_w": 19.0,
                         "lan_card_w": 9.0, "switch_w": 8.0},
             "extra": {"motherboard_w": 1.5, "connector_w": 0.2, "ports": 6},
             "cooling": {"ac_w": 190.0, "compressor_w": 140.0, "fan_w": 40.0},
             "dyn": {"capacitance_f": 2e-9, "voltage_v": 1.1,
                     "frequency_hz": 2.4e9, "mu1": 110.0, "mu2": 55}}
    data = {
        "hosts": [{"id": "pm-0", "cores": 8, "power": power,
                   "thermal": {"r_kw": 0.4, "theta_vl_c": None}},
                  {"id": "pm-1", "thermal": {"theta_vl_c": 1.0,
                                             "theta_vh_c": 3}}],
        "vms": [{"id": "vm-0", "host_id": "pm-0"}, {"id": "vm-1", "mips": 250}],
        "interval_s": 600, "horizon_s": 6000, "seed": 5,
        "policy": "utilization", "thermal_mode": "time-dependent",
        "sla_slack": 0.2, "replicates": 2, "trace_dir": "traces",
        "workload": {"count": 30, "lambda_per_interval": 2.5,
                     "length_base_mi": 9000.0, "length_scale": [1.0, 1.2],
                     "file_base_mb": 200.0, "file_scale": [1.1, 1.3],
                     "output_base_mb": 250, "output_scale": [1.1, 1.4],
                     "cost_range": [2.0, 4.0], "mips_range": [50, 400.0],
                     "ram_range": [64.0, 256.0]},
    }
    cfg = model.config_from_dict(data)
    assert cfg.hosts[0].power.dyn.mu2 == 55 and cfg.workload.mips_range[0] == 50
    assert cfg.hosts[0].thermal.theta_vl_c is None
    assert cfg.hosts[1].thermal.theta_vh_c == 3
    written = model.config_to_dict(cfg)
    for key, value in data.items():
        if key not in ("hosts", "vms"):
            assert written[key] == value, key
    assert written["hosts"][0]["power"] == power
    path = tmp_path / "dc.json"
    dump_config(cfg, path)
    loaded = model.load_config(path)
    assert loaded == cfg
    assert model.config_digest(loaded) == model.config_digest(cfg)
