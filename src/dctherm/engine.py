"""Discrete-event simulation loop.

Each step covers one interval and runs, in order: workload arrivals, task ->
VM mapping from the ``utilization.Backlog``, VM placement by the active
policy (with migration accounting), power computation and energy integration
(``_power_phase``), host temperature update (``_temperature_phase``), and
task progress / SLA checks. Before placement, a policy whose
``scheduler.POLICIES`` entry says so evicts every VM of a host above its
t_over_c. Every VM is in exactly one of ``state.waiting`` or one
host's ``placed_vms``, so a VM is placed exactly when it is not waiting.

A run's memory follows its live work. Every task is in exactly one of
``state.pending_tasks`` or ``state.running_tasks`` until it finishes; then
its SLA is checked, ``state.tasks_completed`` counts it and the task is
let go. Nothing keeps a finished task: the events name it by id only.

A step does each task's work once and each VM's and host's work only when
its inputs changed. Every VM and host starts dirty:

- arrivals are drawn in one block (``traceio.generate_workloads``);
- the placed VMs and their spec means are rebuilt only when the waiting
  list changes, and the mapper's walk order is kept across steps: each
  VM holds its walk key, and the refresh moves each VM whose key changed,
  unless most of the walk is dirty, when one stable sort after placement
  costs less; the mapper reads a VM's residual only when its walk
  reaches it;
- one function books a task's reservations on its VM, on assignment and
  on completion, and marks the VM and its host dirty;
- the refresh recomputes a VM's utilization, power share and walk key
  only when its reservations or host changed, its scoring host's
  utilization changed while it holds a power share, it replays a trace,
  or it waits;
- the power phase recomputes a host's utilization, busy flag, reserved
  MIPS and power figures only when its VM list or a VM's load on it
  changed, in one pass over its VMs, and takes the total draw from
  ``energy.host_power`` as one float; the next refresh reads the
  utilization and the dynamic draw from the host;
- a host's temperature step is reused while its dynamic draw and start
  temperature equal those of its last one;
- the predicted temperature change (delta-T) that the scheduler
  classifies on is computed only for the VMs awaiting placement.

None of this changes a result: the same inputs reach the same functions
in the same order, each sum runs over the same VMs in the same order,
and the energy total adds every host's draw on every step. One replicate
is one single-threaded deterministic loop; replicates use seeds derived
from the base seed and are merged in index order, so results depend only
on (config, seed).
"""

import bisect
import os
from dataclasses import dataclass, field

import numpy as np

from . import energy, scheduler, thermal, utilization
from .errors import DomainError, IoError
from .model import (HostState, UtilizationSnapshot, VmState, config_digest,
                    derive_lambda, validate_config)
from .traceio import (SUMMARY_FIELDS, generate_workloads, load_planetlab_trace,
                      poisson_arrivals)
from .utilization import Backlog, bandwidth_need

STREAM_ARRIVALS = 0
STREAM_WORKLOAD = 1
VM_KEY = utilization.sort_key(is_vm=True)


def migration_downtime(ram_mb, bandwidth_bps):
    """Seconds a VM grants zero MIPS while its memory image transfers."""
    if bandwidth_bps <= 0:
        raise DomainError("bandwidth must be > 0")
    return ram_mb * 8e6 / bandwidth_bps


def check_sla(task, sla_slack):
    """Violated if the task missed its slack-padded nominal runtime, or
    never finished at all."""
    if task.finish_s is None:
        return True
    deadline = task.arrival_s + task.nominal_runtime_s * (1.0 + sla_slack)
    return task.finish_s > deadline


@dataclass
class SimulationState:
    cfg: object
    seed: int
    clock_s: int = 0
    hosts: list = field(default_factory=list)
    vms: dict = field(default_factory=dict)
    waiting: list = field(default_factory=list)
    pending_tasks: Backlog = field(default_factory=Backlog)
    running_tasks: list = field(default_factory=list)
    # Completions are counted, not kept: phase 6 checks a finishing task's
    # SLA, then releases it.
    tasks_completed: int = 0
    energy_j: float = 0.0
    migrations: int = 0
    sla_violations: int = 0
    tasks_generated: int = 0
    temp_series: dict = field(default_factory=dict)
    per_step_rows: list = field(default_factory=list)
    events: list = field(default_factory=list)

    def __post_init__(self):
        for spec in self.cfg.hosts:
            host = HostState(
                spec=spec, current_temp_c=spec.thermal.t_initial_c,
                dynamic_w=energy.dynamic_power(0.0, spec.power.dyn))
            self.hosts.append(host)
            self.temp_series[spec.id] = []
        self.host_by_id = {h.id: h for h in self.hosts}
        self.vm_index = {spec.id: i for i, spec in enumerate(self.cfg.vms)}
        for spec in self.cfg.vms:
            vm = VmState(spec=spec)
            self.vms[spec.id] = vm
            if spec.host_id is not None:
                vm.host_id = spec.host_id
                self.host_by_id[spec.host_id].placed_vms.append(spec.id)
            else:
                self.waiting.append(spec.id)
        # The placed VMs (VmState, in config order) and their spec means, as
        # of the waiting list ``placed_for``, and the same VMs in the walk
        # order: ascending ``walk_keys``, their ``VmState.walk_key``s.
        # ``resort`` asks for the walk to be sorted afresh after placement.
        self.placed_for = None
        self.placed = []
        self.placed_means = None
        self.walk = []
        self.walk_keys = []
        self.resort = False
        # VMs whose view the next refresh recomputes, and hosts whose
        # utilization, busy flag, reserved MIPS and draws the next power
        # phase recomputes (ids). Everything starts dirty.
        self.dirty_vms = set(self.vms)
        self.dirty_hosts = set(self.host_by_id)
        # Least utilized host at the last refresh with VMs waiting: unplaced
        # VMs are scored against it.
        self.fallback_host = None
        self.rng_arrivals = np.random.default_rng([self.seed, STREAM_ARRIVALS])
        self.rng_workload = np.random.default_rng([self.seed, STREAM_WORKLOAD])
        self.lambda_per_interval = derive_lambda(self.cfg)
        self.thresholds = thermal.vm_thresholds(self.cfg.hosts[0].thermal)
        self.traces = {}
        if self.cfg.trace_dir is not None:
            self.traces = load_trace_assignments(self.cfg.trace_dir,
                                                 [v.id for v in self.cfg.vms])
        _update_placed(self)


def load_trace_assignments(trace_dir, vm_ids):
    """Map each VM to one utilization trace file (sorted order, cycled when
    there are fewer files than VMs)."""
    try:
        names = sorted(os.listdir(trace_dir))
    except OSError as exc:
        raise IoError(f"cannot list trace dir {trace_dir}: {exc}") from exc
    paths = [os.path.join(trace_dir, n) for n in names
             if os.path.isfile(os.path.join(trace_dir, n))]
    if not paths:
        raise IoError(f"trace dir {trace_dir} has no trace files")
    traces = [load_planetlab_trace(p) for p in paths]
    return {vm_id: traces[i % len(traces)] for i, vm_id in enumerate(vm_ids)}


def _scoring_host(state, vm):
    """Host a VM's power share and delta-T are assessed against: its own
    (or, once evicted, its last) host, else the least utilized one."""
    return state.host_by_id.get(vm.host_id) if vm.host_id \
        else state.fallback_host


def _refresh_vm_views(state):
    """Recompute the utilization snapshot, power share and walk key of each
    VM whose inputs may have changed; the mapper sorts on the first two.
    Those are the VMs marked dirty since the last refresh (reservations,
    host or scoring host's utilization changed), every trace-driven VM and
    every waiting VM (their fallback host can change). A VM is in the walk
    exactly when it is not waiting; one whose key changed moves to its new
    place, unless most of the walk is dirty, when one stable sort after
    placement costs less. Delta-T is left to _predict_delta_t, which runs
    only for the VMs awaiting placement."""
    dirty, traces = state.dirty_vms, state.traces
    waiting = set(state.waiting)
    if waiting:
        state.fallback_host = min(state.hosts,
                                  key=lambda h: (h.cpu_util, h.id))
        dirty.update(waiting)
    dirty.update(traces)
    state.resort = 2 * len(dirty) > len(state.walk)
    move = not state.resort
    vms, index, mark_host = state.vms, state.vm_index, state.dirty_hosts.add
    walk, keys = state.walk, state.walk_keys
    for vm_id in dirty:
        vm = vms[vm_id]
        spec = vm.spec
        trace = traces.get(vm_id)
        if trace is not None:
            # Trace-driven load: the replayed CPU percent at the clock,
            # cycling the trace past its end, stands in for the demand.
            resource = trace.samples[state.clock_s // trace.spacing_s
                                     % len(trace.samples)] / 100.0
        else:
            resource = min(1.0, max(0.0, vm.reserved_mips / spec.mips))
        memory_pct = min(100.0, max(0.0, 100.0 * vm.reserved_ram_mb
                                    / spec.ram_mb))
        network_pct = min(100.0, max(0.0, 100.0 * vm.reserved_bw_bps
                                     / spec.bandwidth_bps))
        util = vm.util
        if (resource != util.resource or memory_pct != util.memory_pct
                or network_pct != util.network_pct):
            util = vm.util = UtilizationSnapshot(
                resource, memory_pct, util.disk_pct, network_pct)
            if vm.host_id:
                mark_host(vm.host_id)
        # Waiting VMs are assessed at full demand; placed ones at their
        # current reservation level.
        share = resource if vm.host_id else 1.0
        host = _scoring_host(state, vm)
        u_share = spec.mips * share / host.spec.total_mips
        with_vm = energy.dynamic_power(
            min(1.0, host.cpu_util + u_share), host.spec.power.dyn)
        vm.e_total_w = max(0.0, with_vm - host.dynamic_w)
        key = VM_KEY(vm) + (index[vm_id],)
        if move and key != vm.walk_key and vm_id not in waiting:
            # The VM leaves the walk at its old key and rejoins at its new
            # one; unique keys keep the walk sorted.
            i = bisect.bisect_left(keys, vm.walk_key)
            del walk[i], keys[i]
            i = bisect.bisect_left(keys, key)
            walk.insert(i, vm)
            keys.insert(i, key)
        vm.walk_key = key
    dirty.clear()


def _update_placed(state):
    """Bring the placed VMs, their spec means and their walk order up to
    date after placement.

    The placed VMs and their means are rebuilt when the waiting list
    changed since the last rebuild. The walk is sorted afresh (a stable
    sort of config order, which is ascending walk key) then, or when the
    refresh found most of it dirty; otherwise the refresh has moved each
    VM whose key changed.
    """
    if state.waiting != state.placed_for:
        waiting = set(state.waiting)
        state.placed_for = list(state.waiting)
        state.placed = [vm for vm in state.vms.values()
                        if vm.id not in waiting]
        state.placed_means = utilization.vm_means(state.placed)
        state.resort = True
    if state.resort:
        state.walk = utilization.utilization_sort(state.placed, is_vm=True)
        state.walk_keys = [vm.walk_key for vm in state.walk]
        state.resort = False


def _book(state, task, sign):
    """Reserve (``sign`` 1.0) or release (-1.0) a task's MIPS, RAM and
    bandwidth on its VM, and mark the VM and its host dirty."""
    vm = state.vms[task.assigned_vm]
    vm.reserved_mips += sign * task.mips_requested
    vm.reserved_ram_mb += sign * task.ram_mb
    vm.reserved_bw_bps += sign * bandwidth_need(task, state.cfg.interval_s)
    state.dirty_vms.add(vm.id)
    state.dirty_hosts.add(vm.host_id)


def _predict_delta_t(state):
    """Predicted temperature change of each VM awaiting placement: its
    power share through the thermal constants of the host the refresh
    scored it against. Eviction changes none of these inputs."""
    mode, dt = state.cfg.thermal_mode, state.cfg.interval_s
    for vm_id in state.waiting:
        vm = state.vms[vm_id]
        vm.delta_t_c = thermal.vm_delta_temperature(
            vm.e_total_w, _scoring_host(state, vm).spec.thermal, mode, dt)


def _apply_actions(state, actions):
    """Move each placed VM from `waiting` onto its destination host. Every
    action names a waiting VM, so no host lists it yet; a "none" action
    (put back on the host it was evicted from) emits no event."""
    for action in actions:
        vm = state.vms[action.vm_id]
        dst = state.host_by_id[action.dst_host]
        if action.kind == "migrate":
            state.migrations += 1
            vm.paused_until_s = state.clock_s + migration_downtime(
                vm.spec.ram_mb, dst.spec.bandwidth_bps)
            state.events.append((state.clock_s, "migrate",
                                 f"{vm.id}:{action.src_host}->{action.dst_host}"))
        elif action.kind == "allocate":
            state.events.append((state.clock_s, "allocate",
                                 f"{vm.id}->{action.dst_host}"))
        vm.host_id = action.dst_host
        dst.placed_vms.append(action.vm_id)
        state.dirty_vms.add(action.vm_id)
        state.dirty_hosts.add(action.dst_host)
    placed = {action.vm_id for action in actions}
    state.waiting = [vm_id for vm_id in state.waiting if vm_id not in placed]


def _power_phase(state):
    """Phase 4: bring each dirty host's utilization, reserved MIPS and
    draws up to date, then add every host's draw to the energy total.

    One pass over a dirty host's VMs sums the utilization demand and the
    reserved MIPS, each left to right from the int 0 in ``placed_vms``
    order, as ``energy.ordered_sum`` adds, and finds the busy flag: some
    VM holds a reservation. The total draw is one ``energy.host_power``
    call, which builds no breakdown object."""
    vms, host_by_id = state.vms, state.host_by_id
    host_power, dynamic_power = energy.host_power, energy.dynamic_power
    activity = energy.HOST_ACTIVITY
    for host_id in state.dirty_hosts:
        host = host_by_id[host_id]
        spec = host.spec
        placed = host.placed_vms
        demand = reserved = 0
        busy = False
        for vm_id in placed:
            vm = vms[vm_id]
            demand += vm.util.resource * vm.spec.mips
            mips = vm.reserved_mips
            reserved += mips
            if mips > 0:
                busy = True
        u = min(1.0, demand / spec.total_mips)
        if u != host.cpu_util:
            host.cpu_util = u
            # The VMs with a power share read this host's utilization; a
            # zero share reads 0.0 W whatever the host does.
            state.dirty_vms.update(v for v in placed if vms[v].util.resource)
        host.reserved_mips = reserved
        power = spec.power
        host.power_w = host_power(power, activity[bool(placed)][busy],
                                  spec.cores, u)
        host.dynamic_w = dynamic_power(u, power.dyn)
    state.dirty_hosts.clear()
    interval = state.cfg.interval_s
    energy_j = state.energy_j
    for host in state.hosts:
        energy_j += host.power_w * interval
    state.energy_j = energy_j


def _temperature_phase(state):
    """Phase 5: step every host's temperature and record it. A host whose
    dynamic draw and start temperature equal those of its last step reuses
    that step's result, as ``thermal.cpu_temperature`` is a pure function:
    equal inputs, equal result."""
    cfg = state.cfg
    mode, interval = cfg.thermal_mode, cfg.interval_s
    # temp_series holds one list per host, added in host order.
    for host, series in zip(state.hosts, state.temp_series.values()):
        inputs = (host.dynamic_w, host.current_temp_c)
        if inputs != host.temp_inputs:
            host.temp_inputs = inputs
            host.temp_result_c = thermal.cpu_temperature(
                host.dynamic_w, host.spec.thermal, mode, interval,
                host.current_temp_c)
        temp = host.current_temp_c = host.temp_result_c
        series.append(temp)


def step(state):
    """Advance the simulation by one interval; returns the events emitted."""
    cfg = state.cfg
    events_before = len(state.events)
    clock = state.clock_s
    interval = cfg.interval_s

    # 1. workload arrivals
    count = poisson_arrivals(state.lambda_per_interval, state.rng_arrivals)
    if count:
        new_tasks = generate_workloads(
            cfg.workload, state.rng_workload, count,
            arrival_s=clock, id_offset=state.tasks_generated)
        state.pending_tasks.extend(new_tasks)
        state.tasks_generated += count
        state.events.append((clock, "arrivals", str(count)))

    # 2. map pending tasks onto the placed (not waiting) VMs
    if state.pending_tasks and state.walk:
        for task, vm_id in state.pending_tasks.take(
                state.walk, state.placed_means, interval):
            task.assigned_vm = vm_id
            task.start_s = clock
            _book(state, task, 1.0)
            state.running_tasks.append(task)

    # 3. VM placement by the active policy
    _refresh_vm_views(state)
    if scheduler.POLICIES[cfg.policy].evicts_overheated:
        for host in state.hosts:
            if host.current_temp_c > host.spec.thermal.t_over_c and host.placed_vms:
                state.waiting.extend(host.placed_vms)
                host.placed_vms = []
                state.dirty_hosts.add(host.id)
                state.events.append((clock, "overheat-evict", host.id))
    if state.waiting:
        _predict_delta_t(state)
        snapshot = scheduler.Snapshot(
            hosts=state.hosts, vms=state.vms, waiting=state.waiting,
            thresholds=state.thresholds)
        actions = scheduler.run_policy(cfg.policy, snapshot)
        _apply_actions(state, actions)
        for vm_id in state.waiting:
            vm = state.vms[vm_id]
            if vm.host_id is not None:
                # Evicted from an overheated host but not re-placed.
                state.events.append((clock, "overheat-unresolved", vm_id))
    _update_placed(state)

    _power_phase(state)
    _temperature_phase(state)

    # 6. task progress, SLA, completions (counted, then released)
    still_running = []
    waiting = set(state.waiting)
    for task in state.running_tasks:
        vm = state.vms[task.assigned_vm]
        if vm.id in waiting:
            # Evicted and not re-placed this interval; the task stalls.
            still_running.append(task)
            continue
        host = state.host_by_id[vm.host_id]
        demand = host.reserved_mips
        host_share = min(1.0, host.spec.total_mips / demand) if demand else 1.0
        vm_demand = vm.reserved_mips
        vm_share = min(1.0, vm.spec.mips / vm_demand) if vm_demand else 1.0
        granted = task.mips_requested * vm_share * host_share
        usable_s = interval - max(0.0, min(vm.paused_until_s - clock, interval))
        work = granted * usable_s
        if granted > 0 and task.remaining_mi <= work:
            pause = interval - usable_s
            task.finish_s = clock + pause + task.remaining_mi / granted
            task.remaining_mi = 0.0
            _book(state, task, -1.0)
            state.tasks_completed += 1
            if check_sla(task, cfg.sla_slack):
                state.sla_violations += 1
                state.events.append((clock, "sla-violation", task.id))
        else:
            task.remaining_mi -= work
            still_running.append(task)
    state.running_tasks = still_running

    # 7. advance the clock and record the per-host rows
    clock = state.clock_s = clock + interval
    step_index = clock // interval
    svr_cum = state.sla_violations / max(1, state.tasks_generated)
    energy_j, migrations = state.energy_j, state.migrations
    state.per_step_rows += [
        (step_index, clock, host.id, host.current_temp_c, host.power_w,
         energy_j, migrations, svr_cum) for host in state.hosts]
    return state.events[events_before:]


@dataclass
class SimulationReport:
    seed: int
    config_digest: str
    policy: str
    lambda_per_interval: float
    total_energy_kwh: float
    svr: float
    migrations: int
    sla_violations: int
    tasks_generated: int
    tasks_completed: int
    temp_mean_c: float
    temp_max_c: float
    per_step_rows: list = field(default_factory=list)
    temp_series: dict = field(default_factory=dict)
    events: list = field(default_factory=list)
    replicate_rows: list = field(default_factory=list)

    SUMMARY_FIELDS = SUMMARY_FIELDS   # summary.csv after its label column

    def summary_row(self):
        return tuple(getattr(self, name) for name in self.SUMMARY_FIELDS)


def run_once(cfg, seed=None):
    """One validated replicate: step the state across the whole horizon."""
    validate_config(cfg)
    state = SimulationState(cfg=cfg, seed=cfg.seed if seed is None else seed)
    for _ in range(cfg.step_count):
        step(state)
    unfinished = len(state.pending_tasks) + len(state.running_tasks)
    violations = state.sla_violations + unfinished
    svr = violations / state.tasks_generated if state.tasks_generated else 0.0
    temps = [t for series in state.temp_series.values() for t in series]
    return SimulationReport(
        seed=state.seed,
        config_digest=config_digest(cfg),
        policy=cfg.policy,
        lambda_per_interval=state.lambda_per_interval,
        total_energy_kwh=state.energy_j / 3.6e6,
        svr=svr,
        migrations=state.migrations,
        sla_violations=violations,
        tasks_generated=state.tasks_generated,
        tasks_completed=state.tasks_completed,
        temp_mean_c=energy.ordered_sum(temps) / len(temps),
        temp_max_c=max(temps),
        per_step_rows=state.per_step_rows,
        temp_series=state.temp_series,
        events=state.events,
    )


def run(cfg):
    """Run cfg.replicates replicates (seeds seed+0 .. seed+K-1) and return
    the first replicate's report carrying all summary rows plus their mean."""
    validate_config(cfg)
    reports = [run_once(cfg, seed=cfg.seed + i) for i in range(cfg.replicates)]
    first = reports[0]
    rows = [r.summary_row() for r in reports]
    if len(reports) > 1:
        mean = tuple(
            energy.ordered_sum(row[i] for row in rows) / len(rows)
            for i in range(len(SimulationReport.SUMMARY_FIELDS)))
        rows.append(mean)
    first.replicate_rows = rows
    return first

