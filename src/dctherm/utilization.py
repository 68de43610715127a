"""The utilization-driven task->VM mapping and the backlog it walks.

The mapper sorts on utilization snapshots: each VM's reservation percents
(the engine's refresh writes them) and each task's demand estimated
against the VMs' spec means (``task_views``), whose first four fields are
that demand. Resource utilization is a fraction, the other three fields
percents. The mapper is the greedy two-sort algorithm: tasks ascending by
estimated demand, VMs descending by utilization (energy first), each task
to the first VM that still fits it. ``TASK_KEY`` is the one task ordering,
``vm_key`` the one VM ordering and ``map_workloads`` the one walk, over
tasks and VMs already in those orders: ``Backlog`` keeps the engine's
pending tasks sorted as one list of ``TaskView`` records and the engine
keeps its placed VMs sorted, while a standalone caller sorts
``task_views(tasks, vm_means(vms))`` by ``TASK_KEY`` and the VMs with
``utilization_sort``.
"""

import bisect
import math
import operator
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .energy import ordered_sum


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


def vm_key(vm):
    """The mapper's VM ordering as a key: the utilization chain (resource
    utilization with memory, disk, network breaking ties) descending,
    then energy draw ascending, which orders VMs as a stable energy sort
    followed by a stable chain sort would."""
    util = vm.util
    return (-util.resource, -util.memory_pct, -util.disk_pct,
            -util.network_pct, vm.e_total_w)


def utilization_sort(vms):
    """Order VMs for the mapper by ``vm_key``; equal keys keep their input
    order."""
    return sorted(vms, key=vm_key)


class TaskView(NamedTuple):
    """A workload with its estimated demand; the first four fields are
    the demand snapshot and the task sort key (``TASK_KEY``): the
    utilization chain ascending."""

    resource: float
    memory_pct: float
    disk_pct: float
    network_pct: float
    id: str
    mips_requested: float
    ram_mb: float
    bandwidth_bps_required: float
    task: object


TASK_KEY = operator.itemgetter(slice(4))


def vm_means(vms):
    """Mean (MIPS, RAM, bandwidth) of the VMs' specs, the scale task demand
    is estimated against; (1.0, 1.0, 1.0) for no VMs."""
    if not vms:
        return 1.0, 1.0, 1.0
    n = len(vms)
    return (ordered_sum(vm.spec.mips for vm in vms) / n,
            ordered_sum(vm.spec.ram_mb for vm in vms) / n,
            ordered_sum(vm.spec.bandwidth_bps for vm in vms) / n)


def bandwidth_need(task, interval_s):
    """Bit/s a task reserves: its input file moved within one interval."""
    return 8e6 * task.file_size_mb / interval_s


def task_views(workloads, means, interval_s=300):
    """Estimate each task's utilization demand against the VM spec means.

    ``means`` is ``vm_means(vms)``. Resource demand is mips_requested over
    the mean VM MIPS; memory, disk and network percents are scaled the same
    way from the task's RAM, file and transfer footprints. Values are
    clamped to their field ranges so oversized tasks still sort (they just
    saturate the key).
    """
    mean_mips, mean_ram, mean_bw = means
    views = []
    for w in workloads:
        bw_need = bandwidth_need(w, interval_s)
        views.append(TaskView(
            min(1.0, w.mips_requested / mean_mips),
            min(100.0, 100.0 * w.ram_mb / mean_ram),
            min(100.0, 100.0 * (w.file_size_mb + w.output_size_mb)
                / (10 * mean_ram)),
            min(100.0, 100.0 * bw_need / mean_bw),
            w.id, w.mips_requested, w.ram_mb, bw_need, w))
    return views


def map_workloads(tasks, vms, mean_mips):
    """Greedy mapping of TaskViews onto VMs.

    ``tasks`` must already be in walk order (ascending ``TASK_KEY``), and
    ``mean_mips`` is the mean VM MIPS their views were estimated against.
    ``vms`` must be in walk order too (ascending ``vm_key``: the most
    utilized first); the engine keeps its placed VMs in that order
    across steps. Each task lands on the first VM whose residual MIPS, RAM
    and bandwidth all cover it, and the residual is debited immediately. A
    VM's residual is read when the walk first reaches it, so a walk whose
    tasks all fit early VMs never reads the rest. Inputs are not mutated.

    Residuals only shrink during the walk, so the largest residual in each
    dimension, read whenever a task fits no VM (by then the walk has reached
    every VM), bounds every later fit; two shortcuts use it and leave the
    result unchanged. A task whose RAM or bandwidth exceeds that bound is
    not offered to the VMs, and the walk stops at the first task whose
    resource key exceeds the largest residual MIPS over ``mean_mips``. The
    key's primary field is min(1, mips / mean_mips), and division by a
    positive number is monotone in floating point, so no later task fits
    any VM. For the same reason a reached VM whose residual MIPS over
    ``mean_mips`` is below the current task's resource key fits no later
    task either; the walk drops such VMs from the front of the reached
    ones and never visits them again. The bounds still cover every
    reached VM.
    """
    result = Assignment(tasks)
    if not vms:
        return result
    reached = []  # (vm id, [MIPS, RAM, bandwidth] residual) of VMs reached
    slots = deque()  # the reached VMs a task may still fit, in walk order
    unreached = iter(vms)
    # The bounds start open, so a walk that places every task never
    # computes them; they are re-read only if a task was placed since.
    most_ram = most_bw = limit = math.inf
    debited = True
    hits = result.hits
    for position, task in enumerate(tasks):
        resource = task.resource
        if resource > limit:
            break
        ram, bw = task.ram_mb, task.bandwidth_bps_required
        if ram > most_ram or bw > most_bw:
            continue
        while slots and slots[0][1][0] / mean_mips < resource:
            slots.popleft()
        mips = task.mips_requested
        for vm_id, residual in slots:
            if mips <= residual[0] and ram <= residual[1] and bw <= residual[2]:
                break
        else:
            for vm in unreached:
                vm_id, residual = slot = (vm.id, [
                    vm.spec.mips - vm.reserved_mips,
                    vm.spec.ram_mb - vm.reserved_ram_mb,
                    vm.spec.bandwidth_bps - vm.reserved_bw_bps])
                reached.append(slot)
                slots.append(slot)
                if mips <= residual[0] and ram <= residual[1] \
                        and bw <= residual[2]:
                    break
            else:
                # The walk has reached every VM and none fits this task.
                if debited:
                    debited = False
                    most_mips, most_ram, most_bw = map(
                        max, zip(*(r for _, r in reached)))
                    limit = most_mips / mean_mips
                continue
        residual[0] -= mips
        residual[1] -= ram
        residual[2] -= bw
        hits.append((position, vm_id))
        debited = True
    return result


class Backlog:
    """Tasks waiting for a VM, kept in the mapper's walk order across steps.

    ``held`` is one list of ``TaskView`` records in walk order, ``inbox``
    the tasks not yet viewed and ``tasks`` every pending task by ``id()``,
    in arrival order. A task is viewed (``task_views``) against the spec
    means of the placed VMs when it is first mapped, and keeps its view
    until those means (or the interval) change; then every pending task is
    viewed again. New tasks wait in ``inbox`` until the next ``take``,
    which sorts their views stably and inserts each after every held view
    with an equal key: the order a stable sort of the whole backlog, in
    arrival order, would give, without sorting or viewing the held tasks
    again.
    """

    def __init__(self):
        self.inbox = []    # tasks not yet viewed, in arrival order
        self.held = []     # TaskViews, ascending by TASK_KEY
        self.tasks = {}    # id(task): task, in arrival order
        self.basis = None  # (VM spec means, interval) of the held views

    def __len__(self):
        return len(self.tasks)

    def extend(self, tasks):
        """Add newly arrived tasks. Each task object is held once: passing
        one that is already pending is not supported."""
        self.inbox += tasks
        self.tasks.update(zip(map(id, tasks), tasks))

    def take(self, vms, means, interval_s):
        """Map the backlog onto ``vms``, in walk order (whose spec means are
        ``means``), and remove the tasks placed; returns (task, vm id) pairs
        in walk order."""
        held = self.held
        if (means, interval_s) != self.basis:
            self.basis = (means, interval_s)
            self.inbox = list(self.tasks.values())
            held.clear()
        if self.inbox:
            views = sorted(task_views(self.inbox, means, interval_s),
                           key=TASK_KEY)
            self.inbox = []
            # Last first: each search stops where the view after it went
            # in, so it sees only views held before this take.
            hi = len(held)
            for view in reversed(views):
                hi = bisect.bisect_right(held, view[:4], 0, hi, key=TASK_KEY)
                held.insert(hi, view)
        hits = map_workloads(held, vms, means[0]).hits
        placed = [(held[i].task, vm_id) for i, vm_id in hits]
        for i, _ in reversed(hits):
            del self.tasks[id(held.pop(i).task)]
        return placed
