from collections import deque

import numpy as np
import pytest

from dctherm.errors import InvalidConfig, UnknownPolicy
from dctherm.model import HostSpec, HostState, VmSpec, VmState
from dctherm.scheduler import (PlacementAction, Snapshot,
                               classify_and_enqueue, queue_preference,
                               registered_policies, run_policy,
                               schedule_round)
from dctherm.thermal import ThermalClass, ThermalParams, VmThresholds

TH = VmThresholds(theta_low_c=-55.5, theta_high_c=9.0)


def make_vm(idx, delta, mips=500.0, ram=1024.0, host_id=None):
    vm = VmState(spec=VmSpec(id=f"vm-{idx}", mips=mips, ram_mb=ram))
    vm.delta_t_c = delta
    vm.host_id = host_id
    return vm


def make_host(idx, temp, cores=4, mips=2000.0, ram=8192.0, tp=None):
    spec = HostSpec(id=f"pm-{idx}", cores=cores, mips_per_core=mips,
                    ram_mb=ram, thermal=tp or ThermalParams())
    return HostState(spec=spec, current_temp_c=temp)


def snapshot_of(hosts, vms, waiting=None, thresholds=TH):
    vm_map = {vm.id: vm for vm in vms}
    for host in hosts:
        for vm in vms:
            if vm.host_id == host.id and vm.id not in host.placed_vms:
                host.placed_vms.append(vm.id)
    if waiting is None:
        waiting = [vm.id for vm in vms if vm.host_id is None]
    return Snapshot(hosts=hosts, vms=vm_map, waiting=list(waiting),
                    thresholds=thresholds)


# --- classification --------------------------------------------------------

def test_classify_empty():
    qs = classify_and_enqueue([], TH)
    assert list(qs) == [ThermalClass.HOT, ThermalClass.WARM, ThermalClass.COLD]
    assert not any(qs.values())


def test_classify_one_per_queue():
    vms = [make_vm(0, 10.0), make_vm(1, 0.0), make_vm(2, -60.0)]
    qs = classify_and_enqueue(vms, TH)
    assert list(qs[ThermalClass.HOT]) == ["vm-0"]
    assert list(qs[ThermalClass.WARM]) == ["vm-1"]
    assert list(qs[ThermalClass.COLD]) == ["vm-2"]
    assert vms[0].thermal_class is ThermalClass.HOT


def test_classify_all_warm_preserves_order():
    vms = [make_vm(i, float(i) - 1.0) for i in range(5)]
    qs = classify_and_enqueue(vms, TH)
    assert list(qs[ThermalClass.WARM]) == [f"vm-{i}" for i in range(5)]
    assert not qs[ThermalClass.HOT] and not qs[ThermalClass.COLD]


def test_classify_partition_random():
    rng = np.random.default_rng(31)
    for _ in range(500):
        th = VmThresholds(theta_low_c=-2.0, theta_high_c=3.0)
        vms = [make_vm(i, float(rng.uniform(-6, 6))) for i in range(10)]
        qs = classify_and_enqueue(vms, th)
        ids = [vm_id for q in qs.values() for vm_id in q]
        assert sorted(ids) == sorted(vm.id for vm in vms)
        assert len(set(ids)) == len(ids)


def test_classify_requires_delta():
    vm = make_vm(0, None)
    with pytest.raises(InvalidConfig):
        classify_and_enqueue([vm], TH)


# --- selection -------------------------------------------------------------

def first_pick(host_temp_c, hot=(), warm=(), cold=()):
    """VM a lone host at host_temp_c takes first from the given queues."""
    qs = {ThermalClass.HOT: deque(hot), ThermalClass.WARM: deque(warm),
          ThermalClass.COLD: deque(cold)}
    vms = {vm_id: VmState(spec=VmSpec(id=vm_id), delta_t_c=0.0)
           for vm_id in (*hot, *warm, *cold)}
    snap = Snapshot(hosts=[make_host(0, host_temp_c)], vms=vms,
                    waiting=list(vms), thresholds=TH)
    actions = schedule_round(snap, qs)
    return actions[0].vm_id if actions else None


def test_select_hot_host_prefers_cold_queue():
    assert first_pick(75.0, hot=["h1"], warm=["w1"], cold=["c1", "c2"]) == "c1"


def test_select_hot_host_falls_back_to_warm():
    assert first_pick(75.0, hot=["h1"], warm=["w1"]) == "w1"


def test_select_cold_host_prefers_hot_queue():
    assert first_pick(20.0, hot=["h1"], warm=["w1"], cold=["c1"]) == "h1"


def test_select_empty_queues_returns_none():
    assert first_pick(50.0) is None


def test_select_midband_prefers_warm():
    assert first_pick(50.0, hot=["h1"], warm=["w1"], cold=["c1"]) == "w1"


def test_midband_side_preference():
    tp = ThermalParams()   # theta_cl 29, theta_ch 70, midpoint 49.5
    assert queue_preference(60.0, tp) == (ThermalClass.WARM, ThermalClass.COLD,
                                          ThermalClass.HOT)
    assert queue_preference(35.0, tp) == (ThermalClass.WARM, ThermalClass.HOT,
                                          ThermalClass.COLD)


# --- placement rounds ------------------------------------------------------

def test_round_no_pending_vms():
    hosts = [make_host(0, 40.0)]
    snap = snapshot_of(hosts, [])
    assert schedule_round(snap, classify_and_enqueue([], TH)) == []


def test_round_prefers_cooler_host():
    hosts = [make_host(0, 60.0), make_host(1, 40.0)]
    vm = make_vm(0, 0.0)
    snap = snapshot_of(hosts, [vm])
    qs = classify_and_enqueue([vm], TH)
    actions = schedule_round(snap, qs)
    assert len(actions) == 1
    assert actions[0].kind == "allocate" and actions[0].dst_host == "pm-1"


def test_round_oversized_vm_stays_queued():
    hosts = [make_host(0, 40.0, cores=1, mips=100.0)]
    vm = make_vm(0, 0.0, mips=5000.0)
    snap = snapshot_of(hosts, [vm])
    qs = classify_and_enqueue([vm], TH)
    assert schedule_round(snap, qs) == []
    assert list(qs[ThermalClass.WARM]) == ["vm-0"]


def test_round_marks_migration_and_same_host_replacement():
    hosts = [make_host(0, 75.0), make_host(1, 30.0)]
    vm = make_vm(0, 0.0, host_id="pm-0")
    hosts[0].placed_vms = []      # evicted, pending re-placement
    snap = Snapshot(hosts=hosts, vms={vm.id: vm}, waiting=[vm.id],
                    thresholds=TH)
    qs = classify_and_enqueue([vm], TH)
    actions = schedule_round(snap, qs)
    assert actions[0].kind == "migrate"
    assert actions[0].src_host == "pm-0" and actions[0].dst_host == "pm-1"


def test_migrate_action_requires_distinct_hosts():
    with pytest.raises(InvalidConfig):
        PlacementAction(kind="migrate", vm_id="v", dst_host="a", src_host="a")
    with pytest.raises(InvalidConfig):
        PlacementAction(kind="sideways", vm_id="v", dst_host="a")


def test_round_anti_aggravation_random():
    # a host above theta_ch never receives a hot VM while cold or warm VMs
    # remain classified
    rng = np.random.default_rng(77)
    for _ in range(500):
        th = VmThresholds(theta_low_c=-1.0, theta_high_c=2.0)
        hosts = [make_host(i, float(rng.uniform(20, 85))) for i in range(3)]
        vms = [make_vm(i, float(rng.uniform(-4, 6)),
                       mips=float(rng.choice([250.0, 500.0])))
               for i in range(int(rng.integers(1, 6)))]
        snap = snapshot_of(hosts, vms)
        qs = classify_and_enqueue(vms, th)
        classified = {vm.id: vm.thermal_class for vm in vms}
        remaining = {klass: set(q) for klass, q in qs.items()}
        host_temp = {h.id: h.current_temp_c for h in hosts}
        for action in schedule_round(snap, qs, tie_break="id"):
            klass = classified[action.vm_id]
            if host_temp[action.dst_host] > 70.0 and klass is ThermalClass.HOT:
                assert not remaining[ThermalClass.COLD]
                assert not remaining[ThermalClass.WARM]
            remaining[klass].discard(action.vm_id)
            host_temp[action.dst_host] += snap.vms[action.vm_id].delta_t_c


def test_round_capacity_safety_random():
    rng = np.random.default_rng(78)
    for _ in range(200):
        hosts = [make_host(i, float(rng.uniform(20, 85)),
                           cores=int(rng.integers(1, 4)),
                           mips=1000.0, ram=float(rng.integers(2, 8) * 512))
                 for i in range(int(rng.integers(1, 4)))]
        vms = [make_vm(i, float(rng.uniform(-70, 15)),
                       mips=float(rng.integers(1, 8) * 250),
                       ram=float(rng.integers(1, 6) * 256))
               for i in range(int(rng.integers(0, 6)))]
        snap = snapshot_of(hosts, vms)
        qs = classify_and_enqueue(vms, TH)
        actions = schedule_round(snap, qs)
        load = {h.id: [0.0, 0.0] for h in hosts}
        for action in actions:
            vm = snap.vms[action.vm_id]
            load[action.dst_host][0] += vm.spec.mips
            load[action.dst_host][1] += vm.spec.ram_mb
        for host in hosts:
            assert load[host.id][0] <= host.spec.total_mips
            assert load[host.id][1] <= host.spec.ram_mb
        # determinism: replay yields identical actions
        snap2 = snapshot_of([make_host(i, h.current_temp_c, h.spec.cores,
                                       h.spec.mips_per_core, h.spec.ram_mb)
                             for i, h in enumerate(hosts)],
                            [make_vm(i, vm.delta_t_c, vm.spec.mips,
                                     vm.spec.ram_mb) for i, vm in
                             enumerate(vms)])
        qs2 = classify_and_enqueue(list(snap2.vms.values()), TH)
        assert schedule_round(snap2, qs2) == actions


# --- oracle: direct transcription of the queue-based procedure -------------

def test_oracle_equivalence_200_cases():
    from oracles import oracle_round
    rng = np.random.default_rng(505)
    for _ in range(200):
        th = VmThresholds(theta_low_c=float(rng.uniform(-3, 0)),
                          theta_high_c=float(rng.uniform(0.5, 4)))
        hosts = [make_host(i, float(rng.uniform(15, 90)),
                           cores=int(rng.integers(1, 3)), mips=1000.0,
                           ram=float(rng.integers(2, 6) * 512))
                 for i in range(int(rng.integers(1, 4)))]
        vms = [make_vm(i, float(rng.uniform(-5, 7)),
                       mips=float(rng.integers(1, 6) * 250),
                       ram=float(rng.integers(1, 5) * 256))
               for i in range(int(rng.integers(0, 6)))]
        snap = snapshot_of(hosts, vms)
        qs = classify_and_enqueue(vms, th)
        got = [(a.kind, a.vm_id, a.dst_host)
               for a in schedule_round(snap, qs, tie_break="id")]
        assert got == oracle_round(hosts, vms, th)


# --- registry --------------------------------------------------------------

def test_builtin_policies_registered():
    assert registered_policies() == ("fcfs", "thermal", "thermal+utilization",
                                     "utilization")


def test_thermal_policy_delegates_to_schedule_round():
    hosts = [make_host(0, 60.0), make_host(1, 40.0)]
    vms = [make_vm(0, 0.0), make_vm(1, 12.0)]
    snap = snapshot_of(hosts, vms)
    direct_qs = classify_and_enqueue([make_vm(0, 0.0), make_vm(1, 12.0)], TH)
    direct = schedule_round(snapshot_of([make_host(0, 60.0),
                                         make_host(1, 40.0)],
                                        [make_vm(0, 0.0), make_vm(1, 12.0)]),
                            direct_qs)
    assert run_policy("thermal", snap) == direct


def test_unknown_and_duplicate_policy():
    with pytest.raises(UnknownPolicy):
        run_policy("nope", None)


def test_fcfs_defers_when_hosts_full():
    hosts = [make_host(0, 40.0, cores=1, mips=400.0)]
    vms = [make_vm(i, 0.0, mips=500.0) for i in range(3)]
    snap = snapshot_of(hosts, vms)
    assert run_policy("fcfs", snap) == []


def test_fcfs_first_fit_in_arrival_order():
    hosts = [make_host(0, 40.0, cores=1, mips=600.0), make_host(1, 20.0)]
    vms = [make_vm(0, 0.0, mips=500.0), make_vm(1, 0.0, mips=500.0)]
    snap = snapshot_of(hosts, vms)
    actions = run_policy("fcfs", snap)
    assert [(a.vm_id, a.dst_host) for a in actions] \
        == [("vm-0", "pm-0"), ("vm-1", "pm-1")]
