"""Utilization-driven task mapping: light tasks onto loaded VMs.

Tasks are sorted by rising demand, VMs by falling utilization (energy
draw breaking the first tie), and each task lands on the first VM whose
residual capacity covers it.
"""

from dctherm.model import UtilizationSnapshot, VmSpec, VmState, Workload
from dctherm.utilization import (TASK_KEY, map_workloads, task_views,
                                 utilization_sort, vm_means)

# a little fleet: one loaded VM, one midway, one idle
fleet = []
for idx, (resource, reserved) in enumerate([(0.8, 400.0), (0.4, 200.0), (0.0, 0.0)]):
    vm = VmState(spec=VmSpec(id=f"vm-{idx}", mips=500.0, ram_mb=1024.0))
    vm.util = UtilizationSnapshot(resource=resource)
    vm.reserved_mips = reserved
    vm.e_total_w = 10.0 * resource
    fleet.append(vm)

order = utilization_sort(fleet)
print("== VM order the mapper will scan (most utilized first) ==")
for vm in order:
    print(f"  {vm.id}: utilization {vm.util.resource:.0%}, "
          f"{vm.spec.mips - vm.reserved_mips:.0f} MIPS free")

tasks = [
    Workload(id="tiny", length_mi=30000, mips_requested=60.0, ram_mb=64),
    Workload(id="small", length_mi=60000, mips_requested=90.0, ram_mb=64),
    Workload(id="medium", length_mi=120000, mips_requested=250.0, ram_mb=128),
    Workload(id="large", length_mi=240000, mips_requested=450.0, ram_mb=256),
    Workload(id="huge", length_mi=480000, mips_requested=900.0, ram_mb=512),
]

means = vm_means(fleet)
views = sorted(task_views(tasks, means), key=TASK_KEY)
result = map_workloads(views, order, means[0])

print("\n== assignments (light tasks pack the busy VM first) ==")
for task_id, vm_id in result.assigned:
    print(f"  {task_id:7s} -> {vm_id}")
placed = {position for position, _ in result.hits}
for position, view in enumerate(views):
    if position not in placed:
        print(f"  {view.id:7s} -> unassigned (fits no VM)")
