"""Queue-based thermal-aware VM placement and the table of placement policies.

The thermal scheduler keeps three FIFO class queues (a dict of deques,
hot / warm / cold by predicted temperature change) and walks hosts from
the largest thermal headroom down. A host hotter than theta_ch pulls from
the cold queue, one colder than theta_cl pulls from the hot queue, and a
mid-band host pulls warm first; the fallback chain only advances past
*empty* queues (the branch structure of the selection rules). Within the
chosen queue the first VM (FIFO) that fits the host's residual capacity is
taken; if none fits, the host receives nothing that pass.

``POLICIES`` maps each policy name to its schedule function
(``schedule(snapshot) -> actions``) and to whether the engine evicts the
VMs of hosts above their ``t_over_c`` before that policy runs. The four
policies are "fcfs" and "utilization" (first-fit, no eviction) and
"thermal" and "thermal+utilization" (the queue-based round, with eviction).
"""

from collections import deque, namedtuple
from dataclasses import dataclass
from functools import partial

from .energy import ordered_sum
from .errors import InvalidConfig, UnknownPolicy
from .thermal import ThermalClass, classify_vm


class PlacementAction(namedtuple("PlacementAction",
                                 "kind vm_id dst_host src_host")):
    """A placement ("allocate", "migrate" or "none"): a checked tuple, cheap
    to build, as a run's first round places every VM."""

    __slots__ = ()

    def __new__(cls, kind, vm_id, dst_host, src_host=None):
        if kind not in ("allocate", "migrate", "none"):
            raise InvalidConfig("kind", f"unknown action kind {kind!r}")
        if kind == "migrate" and src_host == dst_host:
            raise InvalidConfig("dst_host", "migration needs src != dst")
        return tuple.__new__(cls, (kind, vm_id, dst_host, src_host))


@dataclass
class Snapshot:
    """Read-only view of the datacenter a policy schedules against."""

    hosts: list             # HostState, engine order
    vms: dict               # vm_id -> VmState
    waiting: list           # vm_ids awaiting (re)placement, FIFO
    thresholds: object      # VmThresholds for classification

    def residual(self, host):
        placed = [self.vms[v] for v in host.placed_vms]
        mips = host.spec.total_mips - ordered_sum(v.spec.mips for v in placed)
        ram = host.spec.ram_mb - ordered_sum(v.spec.ram_mb for v in placed)
        return mips, ram


def classify_and_enqueue(vms, th):
    """Distribute VMs over the three class queues, preserving FIFO order:
    a ``{ThermalClass: deque of vm ids}`` dict, hot, warm and cold.

    Every VM must carry a predicted temperature change (delta_t_c); the
    engine fills it for each VM awaiting placement.
    """
    qs = {ThermalClass.HOT: deque(), ThermalClass.WARM: deque(),
          ThermalClass.COLD: deque()}
    for vm in vms:
        if vm.delta_t_c is None:
            raise InvalidConfig("delta_t_c", f"vm {vm.id} has no predicted delta-T")
        vm.thermal_class = classify_vm(vm.delta_t_c, th)
        qs[vm.thermal_class].append(vm.id)
    return qs


def queue_preference(host_temp_c, tp):
    """Queue order a host draws from, by its current temperature."""
    if host_temp_c > tp.theta_ch_c:
        return (ThermalClass.COLD, ThermalClass.WARM, ThermalClass.HOT)
    if host_temp_c < tp.theta_cl_c:
        return (ThermalClass.HOT, ThermalClass.WARM, ThermalClass.COLD)
    midpoint = (tp.theta_cl_c + tp.theta_ch_c) / 2.0
    if host_temp_c >= midpoint:
        return (ThermalClass.WARM, ThermalClass.COLD, ThermalClass.HOT)
    return (ThermalClass.WARM, ThermalClass.HOT, ThermalClass.COLD)


def _fits(vm, residual):
    """Whether vm's MIPS and RAM fit a host's [mips, ram] residual."""
    return vm.spec.mips <= residual[0] and vm.spec.ram_mb <= residual[1]


def _place(vm, host_id, residual):
    """Debit vm from the destination's residual and return its action: an
    unplaced VM is allocated, one evicted from another host migrates, and
    one put back on the host it was evicted from is a "none" action."""
    residual[0] -= vm.spec.mips
    residual[1] -= vm.spec.ram_mb
    if vm.host_id is None:
        kind = "allocate"
    elif vm.host_id != host_id:
        kind = "migrate"
    else:
        kind = "none"
    return PlacementAction(kind, vm.id, host_id, vm.host_id)


def schedule_round(snapshot, qs, tie_break="id"):
    """One placement round over the classified queues ``qs`` (as
    ``classify_and_enqueue`` returns them); placed VMs leave their queue.

    Hosts are visited from the largest headroom (T_over - temperature)
    down; each host takes at most one VM per pass and a VM's predicted
    delta-T is added to the host's effective temperature so later passes
    see the projected state. Rounds end when the queues are empty or a full
    pass places nothing. tie_break="utilization" prefers the less utilized
    host on equal headroom.
    """
    eff_temp = {h.id: h.current_temp_c for h in snapshot.hosts}
    residual = {h.id: list(snapshot.residual(h)) for h in snapshot.hosts}

    def host_key(host):
        headroom = host.spec.thermal.t_over_c - eff_temp[host.id]
        if tie_break == "utilization":
            used = host.spec.total_mips - residual[host.id][0]
            return (-headroom, used / host.spec.total_mips, host.id)
        return (-headroom, host.id)

    actions = []
    while any(qs.values()):
        placed_this_pass = False
        for host in sorted(snapshot.hosts, key=host_key):
            for thermal_class in queue_preference(eff_temp[host.id],
                                                  host.spec.thermal):
                q = qs[thermal_class]
                if not q:
                    continue
                chosen = None
                for vm_id in q:
                    vm = snapshot.vms[vm_id]
                    if _fits(vm, residual[host.id]):
                        chosen = vm
                        break
                if chosen is not None:
                    q.remove(chosen.id)
                    eff_temp[host.id] += chosen.delta_t_c
                    actions.append(_place(chosen, host.id, residual[host.id]))
                    placed_this_pass = True
                break  # only the first non-empty queue is considered
            if not any(qs.values()):
                break
        if not placed_this_pass:
            break
    return actions


def _first_fit(snapshot, host_order):
    """Place waiting VMs (FIFO) on the first host in host_order that fits."""
    residual = {h.id: list(snapshot.residual(h)) for h in snapshot.hosts}
    actions = []
    for vm_id in snapshot.waiting:
        vm = snapshot.vms[vm_id]
        host = next((h for h in host_order if _fits(vm, residual[h.id])), None)
        if host is not None:
            actions.append(_place(vm, host.id, residual[host.id]))
    return actions


def _fcfs(snapshot):
    """First come, first served: waiting order x host-id order."""
    return _first_fit(snapshot, sorted(snapshot.hosts, key=lambda h: h.id))


def _utilization(snapshot):
    """Consolidating first-fit: most-utilized host with room first."""
    def used_fraction(host):
        mips, _ = snapshot.residual(host)
        return 1.0 - mips / host.spec.total_mips

    order = sorted(snapshot.hosts, key=lambda h: (-used_fraction(h), h.id))
    return _first_fit(snapshot, order)


def _thermal(snapshot, tie_break="id"):
    """The queue-based thermal placement round over the waiting VMs."""
    waiting_vms = [snapshot.vms[v] for v in snapshot.waiting]
    qs = classify_and_enqueue(waiting_vms, snapshot.thresholds)
    return schedule_round(snapshot, qs, tie_break=tie_break)


PolicyEntry = namedtuple("PolicyEntry", "schedule evicts_overheated")

POLICIES = {
    "fcfs": PolicyEntry(_fcfs, False),
    "utilization": PolicyEntry(_utilization, False),
    "thermal": PolicyEntry(_thermal, True),
    # thermal rounds with utilization breaking headroom ties
    "thermal+utilization": PolicyEntry(
        partial(_thermal, tie_break="utilization"), True),
}


def run_policy(name, snapshot):
    try:
        schedule = POLICIES[name].schedule
    except KeyError:
        raise UnknownPolicy(f"no policy named {name!r}; "
                            f"known: {registered_policies()}") from None
    return schedule(snapshot)


def registered_policies():
    return tuple(sorted(POLICIES))
