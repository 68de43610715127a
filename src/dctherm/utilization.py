"""The utilization-driven task->VM mapping.

The mapper sorts on utilization snapshots: each VM's reservation percents
(the engine's refresh writes them) and each task's demand estimated
against the VMs' spec means (``task_views``). Resource utilization is a
fraction, the other three fields percents. The mapper is the greedy
two-sort algorithm: tasks ascending by estimated demand, VMs descending by
utilization (energy first), each task to the first VM that still fits it.
``sort_key`` is the one ordering and ``map_workloads`` the one walk; the
engine's backlog keeps its tasks in that order and passes them in already
sorted.
"""

import math
from dataclasses import dataclass, field

from .model import UtilizationSnapshot


@dataclass
class Assignment:
    """The mapper's walk over ``ordered`` (the tasks in walk order):
    ``hits`` holds (position in ``ordered``, vm id) per task placed."""

    ordered: list
    hits: list = field(default_factory=list)

    @property
    def assigned(self):
        """(workload id, vm id) per task placed, in walk order."""
        return [(self.ordered[i].id, vm_id) for i, vm_id in self.hits]

    @property
    def unassigned(self):
        """Workload ids of the tasks left over, in walk order."""
        placed = {i for i, _ in self.hits}
        return [t.id for i, t in enumerate(self.ordered) if i not in placed]


def sort_key(is_vm=False, decreasing=False):
    """The mapper's ordering as a key function.

    The key is the utilization chain: resource utilization with memory,
    disk, network breaking ties, all in the direction of ``decreasing``.
    VMs break remaining ties by energy draw ascending, which orders them as
    a stable energy sort followed by a stable chain sort would. Items need
    a ``.util`` snapshot, VMs also ``.e_total_w``.
    """
    sign = -1.0 if decreasing else 1.0
    if is_vm:
        return lambda v: (sign * v.util.resource, sign * v.util.memory_pct,
                          sign * v.util.disk_pct, sign * v.util.network_pct,
                          v.e_total_w)
    return lambda t: (sign * t.util.resource, sign * t.util.memory_pct,
                      sign * t.util.disk_pct, sign * t.util.network_pct)


def utilization_sort(items, is_vm=False, decreasing=False):
    """Order VMs or tasks for the mapper by ``sort_key``; equal keys keep
    their input order."""
    return sorted(items, key=sort_key(is_vm, decreasing))


@dataclass(frozen=True)
class TaskView:
    """Sortable wrapper pairing a workload with its estimated demand."""

    id: str
    mips_requested: float
    ram_mb: float
    bandwidth_bps_required: float
    util: object


def vm_means(vms):
    """Mean (MIPS, RAM, bandwidth) of the VMs' specs, the scale task demand
    is estimated against; (1.0, 1.0, 1.0) for no VMs."""
    if not vms:
        return 1.0, 1.0, 1.0
    n = len(vms)
    return (sum(vm.spec.mips for vm in vms) / n,
            sum(vm.spec.ram_mb for vm in vms) / n,
            sum(vm.spec.bandwidth_bps for vm in vms) / n)


def task_views(workloads, vms, interval_s=300, means=None):
    """Estimate each task's utilization demand against the VM fleet.

    Resource demand is mips_requested over the mean VM MIPS; memory, disk
    and network percents are scaled the same way from the task's RAM, file
    and transfer footprints. Values are clamped to their field ranges so
    oversized tasks still sort (they just saturate the key). ``means`` is
    ``vm_means(vms)``, for a caller that holds it already.
    """
    mean_mips, mean_ram, mean_bw = vm_means(vms) if means is None else means
    views = []
    for w in workloads:
        bw_need = 8e6 * w.file_size_mb / interval_s
        util = UtilizationSnapshot(
            resource=min(1.0, w.mips_requested / mean_mips),
            memory_pct=min(100.0, 100.0 * w.ram_mb / mean_ram),
            disk_pct=min(100.0, 100.0 * (w.file_size_mb + w.output_size_mb)
                         / (10 * mean_ram)),
            network_pct=min(100.0, 100.0 * bw_need / mean_bw),
        )
        views.append(TaskView(w.id, w.mips_requested, w.ram_mb, bw_need, util))
    return views


def map_workloads(tasks, vms, mean_mips=None):
    """Greedy mapping of TaskViews onto VMs.

    Tasks are walked in ascending estimated-demand order, VMs in descending
    utilization order; each task lands on the first VM whose residual MIPS,
    RAM and bandwidth all cover it, and the residual is debited
    immediately. Inputs are not mutated.

    Residuals only shrink during the walk, so the largest residual in each
    dimension, read whenever a task fits no VM, bounds every later fit;
    two shortcuts use it and leave the result unchanged. A task whose RAM
    or bandwidth exceeds that bound is not offered to the VMs. When the
    caller passes the ``mean_mips`` its views were estimated against,
    ``tasks`` must already be in walk order (``sort_key()``): they are not
    sorted again, and the walk stops at the first task whose resource key
    exceeds the largest residual MIPS over ``mean_mips``. The key's primary
    field is min(1, mips / mean_mips), and division by a positive number is
    monotone in floating point, so no later task fits any VM.
    """
    slots = [(vm.id, [vm.spec.mips - vm.reserved_mips,
                      vm.spec.ram_mb - vm.reserved_ram_mb,
                      vm.spec.bandwidth_bps - vm.reserved_bw_bps])
             for vm in utilization_sort(vms, is_vm=True, decreasing=True)]
    if mean_mips is None:
        tasks = utilization_sort(tasks, is_vm=False, decreasing=False)
    result = Assignment(tasks)
    if not slots:
        return result
    # The bounds start open, so a walk that places every task never
    # computes them; they are re-read only if a task was placed since.
    most_mips = most_ram = most_bw = limit = math.inf
    debited = True
    hits = result.hits
    for position, task in enumerate(tasks):
        if task.util.resource > limit:
            break
        ram, bw = task.ram_mb, task.bandwidth_bps_required
        if ram > most_ram or bw > most_bw:
            continue
        mips = task.mips_requested
        for vm_id, residual in slots:
            if mips <= residual[0] and ram <= residual[1] and bw <= residual[2]:
                residual[0] -= mips
                residual[1] -= ram
                residual[2] -= bw
                hits.append((position, vm_id))
                debited = True
                break
        else:
            if debited:
                debited = False
                most_mips, most_ram, most_bw = (
                    max(column) for column in zip(*(r for _, r in slots)))
                if mean_mips is not None:
                    limit = most_mips / mean_mips
    return result
