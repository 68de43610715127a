"""Thermal VM placement: hot VMs to cold hosts, cold VMs to hot hosts.

VMs are classified by the temperature change they would add, queued, and
drawn by each host according to its own temperature: a host over the high
threshold pulls cold VMs, one under the low threshold pulls hot VMs.
"""

from dctherm.model import HostSpec, HostState, VmSpec, VmState
from dctherm.scheduler import Snapshot, classify_and_enqueue, schedule_round
from dctherm.thermal import ThermalClass, VmThresholds

th = VmThresholds(theta_low_c=1.0, theta_high_c=5.0)

hosts = [
    HostState(spec=HostSpec(id="pm-hot"), current_temp_c=75.0),
    HostState(spec=HostSpec(id="pm-mid"), current_temp_c=50.0),
    HostState(spec=HostSpec(id="pm-cold"), current_temp_c=20.0),
]

vms = []
for idx, delta in enumerate([0.3, 0.5, 2.5, 3.0, 7.0, 9.5]):
    vm = VmState(spec=VmSpec(id=f"vm-{idx}", mips=500.0))
    vm.delta_t_c = delta
    vms.append(vm)

qs = classify_and_enqueue(vms, th)
print("== queues after classification ==")
print(f"  hot : {list(qs[ThermalClass.HOT])}")
print(f"  warm: {list(qs[ThermalClass.WARM])}")
print(f"  cold: {list(qs[ThermalClass.COLD])}")

snapshot = Snapshot(hosts=hosts, vms={vm.id: vm for vm in vms},
                    waiting=[vm.id for vm in vms], thresholds=th)
actions = schedule_round(snapshot, qs)

print("\n== placement round (hosts visited by thermal headroom) ==")
temps = {h.id: h.current_temp_c for h in hosts}
for action in actions:
    vm = snapshot.vms[action.vm_id]
    print(f"  {action.vm_id} ({vm.thermal_class.value:4s}, "
          f"+{vm.delta_t_c:.1f} C) -> {action.dst_host} "
          f"(was {temps[action.dst_host]:.1f} C)")
    temps[action.dst_host] += vm.delta_t_c

print("\n== projected temperatures after the round ==")
for host in hosts:
    print(f"  {host.id:8s} {host.current_temp_c:5.1f} -> {temps[host.id]:5.1f} C")
