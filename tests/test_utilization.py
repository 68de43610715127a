import numpy as np

from dctherm.model import UtilizationSnapshot, VmSpec, VmState, Workload
from dctherm.utilization import (TASK_KEY, map_workloads, task_views,
                                 utilization_sort, vm_means)


def make_vm(idx, mips=500, ram=1024, resource=0.0, mem=0.0, disk=0.0, net=0.0,
            e_total=0.0, reserved_mips=0.0, reserved_ram=0.0, bw=1e8):
    vm = VmState(spec=VmSpec(id=f"vm-{idx}", mips=mips, ram_mb=ram,
                             bandwidth_bps=bw))
    vm.util = UtilizationSnapshot(resource=resource, memory_pct=mem,
                                  disk_pct=disk, network_pct=net)
    vm.e_total_w = e_total
    vm.reserved_mips = reserved_mips
    vm.reserved_ram_mb = reserved_ram
    return vm


# --- sorting ---------------------------------------------------------------

def test_sort_empty():
    assert utilization_sort([]) == []


def test_sort_tasks_ascending():
    items = [make_vm(i, resource=r) for i, r in enumerate([0.3, 0.1, 0.2])]
    ordered = utilization_sort(items, is_vm=False)
    assert [it.util.resource for it in ordered] == [0.1, 0.2, 0.3]


def test_sort_vm_memory_tiebreak_decreasing():
    a = make_vm(0, resource=0.5, mem=80.0, e_total=10.0)
    b = make_vm(1, resource=0.5, mem=40.0, e_total=10.0)
    ordered = utilization_sort([b, a], is_vm=True)
    assert [vm.id for vm in ordered] == ["vm-0", "vm-1"]


def test_sort_vm_energy_primary():
    # equal utilization chain: energy ascending decides
    low = make_vm(0, resource=0.5, e_total=5.0)
    high = make_vm(1, resource=0.5, e_total=50.0)
    ordered = utilization_sort([high, low], is_vm=True)
    assert [vm.id for vm in ordered] == ["vm-0", "vm-1"]


def test_sort_permutation_and_idempotent():
    rng = np.random.default_rng(5)
    items = [make_vm(i, resource=float(rng.choice([0.2, 0.5, 0.8])),
                     mem=float(rng.choice([10.0, 40.0])),
                     disk=float(rng.choice([5.0, 25.0])),
                     net=float(rng.choice([1.0, 9.0])),
                     e_total=float(rng.choice([3.0, 7.0])))
             for i in range(40)]
    for is_vm in (False, True):
        once = utilization_sort(items, is_vm)
        assert sorted(v.id for v in once) == sorted(v.id for v in items)
        assert utilization_sort(once, is_vm) == once


# --- mapping ---------------------------------------------------------------

def task(idx, mips, ram=64.0, arrival=0):
    return Workload(id=f"t-{idx}", length_mi=1000.0, mips_requested=mips,
                    ram_mb=ram, arrival_s=arrival)


def walk(tasks, vms):
    """The engine's call: views against the VMs' spec means, views and VMs
    sorted into walk order, then mapped; returns (views, assignment)."""
    means = vm_means(vms)
    views = utilization_sort(task_views(tasks, means))
    return views, map_workloads(views, utilization_sort(vms, is_vm=True),
                                means[0])


def test_map_single_suitable():
    vms = [make_vm(0)]
    _, result = walk([task(0, 100)], vms)
    assert result.assigned == [("t-0", "vm-0")] and not result.unassigned


def test_map_infeasible_task_unassigned():
    vms = [make_vm(0, mips=200)]
    _, result = walk([task(0, 10_000)], vms)
    assert result.unassigned == ["t-0"] and not result.assigned


def test_map_light_to_busy_heavy_to_idle():
    busy = make_vm(0, resource=0.8, reserved_mips=400)   # 100 MIPS left
    idle = make_vm(1, resource=0.0)                      # 500 MIPS left
    light, heavy = task(0, 50), task(1, 300)
    _, result = walk([heavy, light], [busy, idle])
    assert ("t-0", "vm-0") in result.assigned   # light -> busy
    assert ("t-1", "vm-1") in result.assigned   # heavy -> idle


def test_map_never_overcommits():
    rng = np.random.default_rng(11)
    for _ in range(100):
        vms = [make_vm(i, mips=float(rng.integers(100, 1000)),
                       ram=float(rng.integers(128, 2048)),
                       resource=float(rng.uniform(0, 1)))
               for i in range(rng.integers(1, 5))]
        tasks = [task(i, mips=float(rng.integers(50, 700)),
                      ram=float(rng.integers(16, 1024)))
                 for i in range(rng.integers(0, 7))]
        views, result = walk(tasks, vms)
        used = {vm.id: [vm.reserved_mips, vm.reserved_ram_mb] for vm in vms}
        by_id = {v.id: v for v in views}
        for tid, vid in result.assigned:
            used[vid][0] += by_id[tid].mips_requested
            used[vid][1] += by_id[tid].ram_mb
        for vm in vms:
            assert used[vm.id][0] <= vm.spec.mips + 1e-9
            assert used[vm.id][1] <= vm.spec.ram_mb + 1e-9


def test_map_lighter_task_lands_on_busier_vm():
    # if task a demands strictly less than b and both are assigned, a's VM
    # shows utilization >= b's VM at their assignment instants
    rng = np.random.default_rng(23)
    for _ in range(100):
        vms = [make_vm(i, mips=1000.0, ram=4096.0,
                       resource=float(rng.uniform(0, 1)))
               for i in range(3)]
        tasks = [task(i, mips=float(rng.integers(10, 400)), ram=1.0)
                 for i in range(4)]
        views, result = walk(tasks, vms)
        demand = {v.id: v.mips_requested for v in views}
        vm_util = {vm.id: vm.util.resource for vm in vms}
        placed = dict(result.assigned)
        for a in placed:
            for b in placed:
                if demand[a] < demand[b]:
                    assert vm_util[placed[a]] >= vm_util[placed[b]]


# --- oracle: a line-by-line transcription of the mapping procedure ---------

def test_oracle_sort_agrees_with_library_sort():
    from oracles import oracle_sort
    rng = np.random.default_rng(88)
    # Its own stream, so the VM inputs stay those drawn from ``rng``.
    task_rng = np.random.default_rng(89)
    for _ in range(100):
        items = [make_vm(i, resource=float(rng.choice([0.2, 0.5])),
                         mem=float(rng.choice([10.0, 40.0])),
                         disk=float(rng.choice([5.0, 25.0])),
                         net=float(rng.choice([1.0, 9.0])),
                         e_total=float(rng.choice([3.0, 7.0])))
                 for i in range(int(rng.integers(0, 8)))]
        # Tasks ascend, VMs descend: the oracle's direction is is_vm.
        for is_vm in (False, True):
            assert utilization_sort(items, is_vm) \
                == oracle_sort(items, is_vm, decreasing=is_vm)
        # Task views of tied tasks: TASK_KEY, the views' leading fields,
        # orders them as the mapper's key and the oracle do.
        pick = task_rng.choice
        tasks = [Workload(id=f"t-{i}", length_mi=1000.0,
                          mips_requested=float(pick([100.0, 250.0])),
                          ram_mb=float(pick([256.0, 512.0])),
                          file_size_mb=float(pick([1.0, 4.0])),
                          output_size_mb=float(pick([1.0, 9.0])))
                 for i in range(int(task_rng.integers(0, 8)))]
        views = task_views(tasks, (500.0, 1024.0, 1e8))
        assert sorted(views, key=TASK_KEY) == utilization_sort(views) \
            == oracle_sort(views, False, decreasing=False)


def assert_walk_matches_oracle(tasks, vms):
    from oracles import oracle_map
    # The oracle sorts the views itself, so it gets them in input order.
    means = vm_means(vms)
    views = task_views(tasks, means)
    got = map_workloads(utilization_sort(views),
                        utilization_sort(vms, is_vm=True), means[0])
    want_assigned, want_unassigned = oracle_map(views, vms)
    assert got.assigned == want_assigned
    assert got.unassigned == want_unassigned


def test_oracle_equivalence_200_cases():
    # A wide pool of snapshot values.
    rng = np.random.default_rng(404)
    pools = {
        "resource": [0.1, 0.4, 0.4, 0.9],
        "mem": [10.0, 10.0, 60.0],
        "disk": [5.0, 50.0],
        "net": [2.0, 2.0, 20.0],
        "e": [4.0, 4.0, 9.0],
    }
    for _ in range(200):
        n_vms = int(rng.integers(1, 5))
        n_tasks = int(rng.integers(0, 7))
        vms = [make_vm(i, mips=float(rng.integers(2, 12) * 100),
                       ram=float(rng.integers(2, 16) * 128),
                       resource=float(rng.choice(pools["resource"])),
                       mem=float(rng.choice(pools["mem"])),
                       disk=float(rng.choice(pools["disk"])),
                       net=float(rng.choice(pools["net"])),
                       e_total=float(rng.choice(pools["e"])))
               for i in range(n_vms)]
        tasks = [task(i, mips=float(rng.integers(1, 10) * 100),
                      ram=float(rng.integers(1, 8) * 64))
                 for i in range(n_tasks)]
        assert_walk_matches_oracle(tasks, vms)


def test_presorted_walk_that_stops_early_matches_oracle():
    # Coarse values with reservations and small bandwidths make ties and
    # exact fits (a task's MIPS equal to the largest residual) common, where
    # an off-by-one skip or stop bound would show.
    rng = np.random.default_rng(505)
    for _ in range(300):
        vms = [make_vm(i, mips=float(rng.integers(2, 8) * 100),
                       ram=float(rng.integers(2, 8) * 128),
                       resource=float(rng.choice([0.1, 0.5])),
                       e_total=float(rng.choice([4.0, 9.0])),
                       reserved_mips=float(rng.integers(0, 3) * 100),
                       reserved_ram=float(rng.integers(0, 3) * 128),
                       bw=float(rng.integers(1, 6) * 8e6))
               for i in range(int(rng.integers(1, 5)))]
        # A 300 MB file over 300 s needs 8e6 bit/s.
        tasks = [task(i, mips=float(rng.integers(1, 8) * 100),
                      ram=float(rng.integers(1, 8) * 64))
                 for i in range(int(rng.integers(0, 12)))]
        assert_walk_matches_oracle(tasks, vms)
