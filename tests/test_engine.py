import collections
import copy
import dataclasses
import gc
import hashlib

import numpy as np
import pytest

from dctherm import energy, engine, model, thermal, utilization
from dctherm.engine import (SimulationState, check_sla, migration_downtime,
                            poisson_arrivals, run, run_once, step)
from dctherm.errors import DomainError
from dctherm.model import (DataCenterConfig, HostSpec, VmSpec, VmState,
                           Workload, WorkloadGenConfig, default_datacenter,
                           validate_config)

from test_bench_bytes import simulation_config
from test_energy import random_power_params
from test_golden import CHURN_THERMAL, churn_config, matrix_config, write_traces


def small_config(**kw):
    return default_datacenter(seed=kw.pop("seed", 3), **kw)


# --- arrival draws are checked at scale in the acceptance suite ------------

def test_poisson_zero_lambda():
    rng = np.random.default_rng(0)
    assert all(poisson_arrivals(0.0, rng) == 0 for _ in range(100))


def test_poisson_negative_lambda_rejected():
    with pytest.raises(DomainError):
        poisson_arrivals(-1.0, np.random.default_rng(0))


def test_poisson_deterministic_per_seed():
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    seq1 = [poisson_arrivals(3.5, rng1) for _ in range(50)]
    seq2 = [poisson_arrivals(3.5, rng2) for _ in range(50)]
    assert seq1 == seq2


def test_poisson_rough_mean():
    rng = np.random.default_rng(123)
    draws = [poisson_arrivals(4.0, rng) for _ in range(20000)]
    assert abs(np.mean(draws) - 4.0) < 3 * np.sqrt(4.0 / 20000)


# --- plumbing ---------------------------------------------------------------

def test_migration_downtime_values():
    assert migration_downtime(1024.0, 1e9) == pytest.approx(8.192)
    assert migration_downtime(0.0, 1e9) == 0.0
    assert migration_downtime(512.0, 0.5e9) \
        == pytest.approx(2 * migration_downtime(512.0, 1e9))
    with pytest.raises(DomainError):
        migration_downtime(100.0, 0.0)


def test_check_sla():
    slack = 0.10
    t = Workload(id="w", length_mi=300000, mips_requested=500, arrival_s=0)
    t.finish_s = 600.0    # exactly nominal
    assert not check_sla(t, slack)
    t.finish_s = 700.0    # deadline at 660
    assert check_sla(t, slack)
    t.finish_s = None     # never finished
    assert check_sla(t, slack)


def test_lambda_derivation():
    cfg = small_config(workload=WorkloadGenConfig(count=576))
    assert engine.derive_lambda(cfg) == pytest.approx(1.0)
    cfg = small_config(workload=WorkloadGenConfig(lambda_per_interval=2.5))
    assert engine.derive_lambda(cfg) == 2.5
    assert engine.derive_lambda(small_config()) == 0.0


# --- step semantics ---------------------------------------------------------

def test_idle_step_energy_is_idle_draw():
    hosts = (HostSpec(id="pm-0"),)
    cfg = validate_config(DataCenterConfig(hosts=hosts, horizon_s=300))
    state = SimulationState(cfg=cfg, seed=1)
    step(state)
    p = hosts[0].power
    idle_w = (hosts[0].cores * p.idle_w + p.storage.idle_w
              + energy.cooling_power(p.cooling.ac_w, p.cooling.compressor_w,
                                     p.cooling.fan_w))
    assert state.energy_j == pytest.approx(idle_w * 300)


def test_task_completes_after_exact_intervals():
    cfg = small_config()
    state = SimulationState(cfg=cfg, seed=1)
    task = Workload(id="t", length_mi=300000.0, mips_requested=500.0,
                    ram_mb=64.0, arrival_s=0)
    state.pending_tasks.extend([task])
    state.tasks_generated = 1
    step(state)
    assert not state.tasks_completed and len(state.running_tasks) == 1
    step(state)
    assert state.tasks_completed == 1 and not state.running_tasks
    assert task.finish_s == pytest.approx(600.0)
    assert not check_sla(task, cfg.sla_slack)


def test_migration_counts_once_and_pauses_vm():
    hosts = (HostSpec(id="pm-0"), HostSpec(id="pm-1"))
    vms = (VmSpec(id="vm-0", host_id="pm-0"),)
    cfg = validate_config(DataCenterConfig(hosts=hosts, vms=vms,
                                           horizon_s=300, policy="thermal"))
    state = SimulationState(cfg=cfg, seed=1)
    state.hosts[0].current_temp_c = 85.0   # preheated above t_over = 79
    events = step(state)
    assert state.migrations == 1
    vm = state.vms["vm-0"]
    assert vm.host_id == "pm-1"
    assert vm.paused_until_s == pytest.approx(migration_downtime(1024.0, 1e9))
    assert any(kind == "migrate" for _, kind, _ in events)


def test_evicted_vm_task_stalls_during_migration():
    hosts = (HostSpec(id="pm-0"), HostSpec(id="pm-1"))
    vms = (VmSpec(id="vm-0", host_id="pm-0"),)
    cfg = validate_config(DataCenterConfig(hosts=hosts, vms=vms,
                                           horizon_s=600, policy="thermal"))
    state = SimulationState(cfg=cfg, seed=1)
    task = Workload(id="t", length_mi=150000.0, mips_requested=500.0,
                    ram_mb=64.0, arrival_s=0)
    state.pending_tasks.extend([task])
    state.tasks_generated = 1
    state.hosts[0].current_temp_c = 85.0
    step(state)
    # downtime 8.192 s eats into the interval: 500 MIPS * 291.808 s
    assert task.remaining_mi == pytest.approx(150000 - 500 * (300 - 8.192))


def test_conservation_each_step():
    cfg = small_config(horizon_s=6000,
                       workload=WorkloadGenConfig(lambda_per_interval=3.0))
    state = SimulationState(cfg=cfg, seed=5)
    for _ in range(cfg.step_count):
        step(state)
        total = (len(state.pending_tasks) + len(state.running_tasks)
                 + state.tasks_completed)
        assert total == state.tasks_generated


def test_energy_second_accumulation_path():
    cfg = small_config(horizon_s=6000,
                       workload=WorkloadGenConfig(lambda_per_interval=2.0))
    report = run_once(cfg)
    recomputed = sum(row[4] for row in report.per_step_rows) * cfg.interval_s
    assert abs(recomputed - report.total_energy_kwh * 3.6e6) \
        <= 1e-9 * max(1.0, recomputed)


def test_svr_zero_with_headroom_and_bounds():
    cfg = small_config(horizon_s=17100,
                       workload=WorkloadGenConfig(
                           lambda_per_interval=1.0,
                           length_base_mi=1000.0, mips_range=(100.0, 200.0),
                           ram_range=(16.0, 32.0)))
    report = run_once(cfg)
    assert report.tasks_generated > 0
    assert report.svr == 0.0
    assert 0.0 <= report.svr <= 1.0


def test_empty_horizon_run():
    cfg = small_config(horizon_s=300)
    report = run_once(cfg)
    assert report.svr == 0.0 and report.migrations == 0
    assert report.tasks_generated == 0
    assert len(report.per_step_rows) == len(cfg.hosts)


def test_replay_determinism_hashes():
    cfg = small_config(horizon_s=9000,
                       workload=WorkloadGenConfig(lambda_per_interval=4.0),
                       policy="thermal+utilization")
    r1, r2 = run_once(cfg), run_once(cfg)

    def digest(report):
        blob = repr((report.events, report.per_step_rows,
                     report.summary_row())).encode()
        return hashlib.sha256(blob).hexdigest()

    assert digest(r1) == digest(r2)


def test_distinct_seeds_differ():
    cfg = small_config(horizon_s=9000,
                       workload=WorkloadGenConfig(lambda_per_interval=4.0))
    r1 = run_once(cfg, seed=1)
    r2 = run_once(cfg, seed=2)
    assert r1.tasks_generated != r2.tasks_generated \
        or r1.total_energy_kwh != r2.total_energy_kwh


def test_replicate_mean_is_arithmetic_mean():
    cfg = small_config(horizon_s=3000, replicates=10,
                       workload=WorkloadGenConfig(lambda_per_interval=2.0))
    report = run(cfg)
    rows = report.replicate_rows
    assert len(rows) == 11
    fields = len(engine.SimulationReport.SUMMARY_FIELDS)
    for i in range(fields):
        expected = sum(row[i] for row in rows[:-1]) / 10
        assert abs(rows[-1][i] - expected) <= 1e-12 * max(1.0, abs(expected))


def test_policies_all_run_and_diverge_or_not():
    base = small_config(horizon_s=6000,
                        workload=WorkloadGenConfig(lambda_per_interval=3.0))
    reports = {}
    for policy in ("fcfs", "utilization", "thermal", "thermal+utilization"):
        cfg = dataclasses.replace(base, policy=policy)
        reports[policy] = run_once(cfg)
    for policy, report in reports.items():
        assert report.tasks_generated > 0, policy
        assert 0.0 <= report.svr <= 1.0


def test_time_dependent_mode_runs_and_converges():
    # an RC of 300 s relaxes over a few intervals instead of jumping
    tp = engine.thermal.ThermalParams(c_jk=600.0, t_initial_c=70.0)
    hosts = (HostSpec(id="pm-0", thermal=tp),)
    cfg = validate_config(DataCenterConfig(hosts=hosts, horizon_s=9000,
                                           thermal_mode="time-dependent"))
    report = run_once(cfg)
    temps = report.temp_series["pm-0"]
    steady = 25.0 + engine.energy.dynamic_power(0.0, hosts[0].power.dyn) * 0.5
    gaps = [abs(t - steady) for t in temps]
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1.0
    assert run_once(cfg).per_step_rows == report.per_step_rows


def generated_tasks(monkeypatch):
    """Every task the engine generates from now on, held by the test: the
    engine keeps no finished task."""
    tasks = []
    original = engine.generate_workloads

    def generate(*args, **kwargs):
        new = original(*args, **kwargs)
        tasks.extend(new)
        return new

    monkeypatch.setattr(engine, "generate_workloads", generate)
    return tasks


def test_completed_tasks_time_ordering_invariant(monkeypatch):
    cfg = small_config(horizon_s=30000,
                       workload=WorkloadGenConfig(lambda_per_interval=3.0))
    tasks = generated_tasks(monkeypatch)
    state = SimulationState(cfg=cfg, seed=8)
    for _ in range(cfg.step_count):
        step(state)
    completed = [task for task in tasks if task.finish_s is not None]
    assert completed and len(completed) == state.tasks_completed
    for task in completed:
        assert task.finish_s >= task.start_s >= task.arrival_s


def test_finished_tasks_are_released(monkeypatch):
    """Once a task completes, only the test's own lists refer to it: no
    list, dict or event of the run keeps it."""
    cfg = churn_config("thermal", "literal")
    tasks = generated_tasks(monkeypatch)
    state = SimulationState(cfg=cfg, seed=1)
    for _ in range(cfg.step_count):
        step(state)
    completed = [task for task in tasks if task.finish_s is not None]
    assert len(completed) == state.tasks_completed > 0
    assert any(kind == "sla-violation" for _, kind, _ in state.events)
    holders = gc.get_referrers(*completed)
    assert {id(holder) for holder in holders} == {id(tasks), id(completed)}


def test_trace_driven_utilization(tmp_path):
    for i in range(2):
        (tmp_path / f"vm_{i}.trace").write_text(
            "\n".join(["80"] * 10 if i == 0 else ["5"] * 10))
    cfg = small_config(horizon_s=1500, trace_dir=str(tmp_path))
    report = run_once(cfg)
    idle = run_once(small_config(horizon_s=1500))
    assert report.total_energy_kwh > idle.total_energy_kwh
    # replay is part of the determinism contract
    assert run_once(cfg).per_step_rows == report.per_step_rows


def test_trace_replay_follows_the_sample_spacing(tmp_path):
    # Samples are 300 s apart, so a 600 s step advances two of them. The
    # replay once read one sample per step, whatever the interval.
    (tmp_path / "vm.trace").write_text("\n".join(str(10 * i)
                                                 for i in range(10)))
    cfg = small_config(interval_s=600, horizon_s=6000,
                       trace_dir=str(tmp_path))
    state = SimulationState(cfg=cfg, seed=cfg.seed)
    seen = []
    for _ in range(6):
        step(state)
        seen.append(state.vms["vm-0"].util.resource)
    assert seen == [0.0, 0.2, 0.4, 0.6, 0.8, 0.0]


def test_unplaced_vms_get_allocated_by_policy():
    hosts = (HostSpec(id="pm-0"), HostSpec(id="pm-1"))
    vms = tuple(VmSpec(id=f"vm-{i}") for i in range(4))   # all unplaced
    cfg = validate_config(DataCenterConfig(hosts=hosts, vms=vms,
                                           horizon_s=300, policy="thermal"))
    state = SimulationState(cfg=cfg, seed=1)
    assert len(state.waiting) == 4
    step(state)
    assert not state.waiting
    placed = sum(len(h.placed_vms) for h in state.hosts)
    assert placed == 4


def test_delta_t_computed_only_for_waiting_vms(monkeypatch):
    calls = []
    real = thermal.vm_delta_temperature

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(thermal, "vm_delta_temperature", counting)
    hosts = (HostSpec(id="pm-0"), HostSpec(id="pm-1"))
    vms = tuple(VmSpec(id=f"vm-{i}") for i in range(8))   # all unplaced
    cfg = validate_config(DataCenterConfig(
        hosts=hosts, vms=vms, horizon_s=3000, policy="thermal",
        workload=WorkloadGenConfig(lambda_per_interval=4.0)))
    state = SimulationState(cfg=cfg, seed=2)
    waiting = len(state.waiting)
    step(state)                      # initial placement
    assert waiting == 8 and len(calls) == waiting
    assert not state.waiting
    calls.clear()
    for _ in range(cfg.step_count - 1):
        step(state)                  # fully placed, nothing evicted
    assert not any(kind == "overheat-evict" for _, kind, _ in state.events)
    assert calls == []


# --- the four policies make four different runs -----------------------------

def allocation_pair_config(policy):
    """Three hosts: two VMs on pm-1, one on pm-2 and two waiting. The hosts
    differ in placed MIPS at step 0, so the two first-fit orders differ."""
    hosts = tuple(HostSpec(id=f"pm-{i}") for i in range(3))
    vms = (VmSpec(id="p0", host_id="pm-1"), VmSpec(id="p1", host_id="pm-1"),
           VmSpec(id="p2", host_id="pm-2"), VmSpec(id="w0"),
           VmSpec(id="w1"))
    return validate_config(DataCenterConfig(
        hosts=hosts, vms=vms, horizon_s=10 * 300, seed=3, policy=policy,
        workload=WorkloadGenConfig(lambda_per_interval=5.0)))


def eviction_pair_config(policy):
    """pm-0's limits sit below its idle temperature (31.97 C), so step 1
    evicts its two VMs; the three other hosts are idle and tie on headroom
    while holding three, zero and one VMs."""
    hot = thermal.ThermalParams(t_over_c=30.0, t_danger_c=25.0,
                                t_normal_c=20.0, theta_cl_c=20.0,
                                theta_ch_c=25.0)
    hosts = (HostSpec(id="pm-0", thermal=hot),) \
        + tuple(HostSpec(id=f"pm-{i}") for i in range(1, 4))
    vms = (VmSpec(id="a0", host_id="pm-0"), VmSpec(id="a1", host_id="pm-0"),
           VmSpec(id="b0", host_id="pm-1"), VmSpec(id="b1", host_id="pm-1"),
           VmSpec(id="b2", host_id="pm-1"), VmSpec(id="c0", host_id="pm-3"))
    return validate_config(DataCenterConfig(
        hosts=hosts, vms=vms, horizon_s=10 * 300, seed=3, policy=policy,
        workload=WorkloadGenConfig(lambda_per_interval=3.0)))


def placements(report):
    return [(clock, kind, detail) for clock, kind, detail in report.events
            if kind in ("allocate", "migrate")]


def test_utilization_policy_consolidates_where_fcfs_spreads():
    fcfs = run_once(allocation_pair_config("fcfs"))
    util = run_once(allocation_pair_config("utilization"))
    assert placements(fcfs) == [(0, "allocate", "w0->pm-0"),
                                (0, "allocate", "w1->pm-0")]
    assert placements(util) == [(0, "allocate", "w0->pm-1"),
                                (0, "allocate", "w1->pm-1")]
    assert fcfs.summary_row() != util.summary_row()
    assert round(fcfs.total_energy_kwh, 4) == 1.3402
    assert round(util.total_energy_kwh, 4) == 1.2538


def test_utilization_tie_break_sends_evicted_vms_to_emptier_hosts():
    plain = run_once(eviction_pair_config("thermal"))
    tied = run_once(eviction_pair_config("thermal+utilization"))
    assert placements(plain) == [(300, "migrate", "a0:pm-0->pm-1"),
                                 (300, "migrate", "a1:pm-0->pm-2")]
    assert placements(tied) == [(300, "migrate", "a0:pm-0->pm-2"),
                                (300, "migrate", "a1:pm-0->pm-3")]
    assert plain.summary_row() != tied.summary_row()
    assert round(plain.temp_max_c, 2) == 35.05
    assert round(tied.temp_max_c, 2) == 33.81


# --- placement invariant the engine relies on -------------------------------

@pytest.mark.parametrize("mode", (thermal.MODE_LITERAL,
                                  thermal.MODE_TIME_DEPENDENT))
@pytest.mark.parametrize("policy", ("fcfs", "utilization", "thermal",
                                    "thermal+utilization"))
@pytest.mark.parametrize("config", (matrix_config, churn_config),
                         ids=("matrix", "churn"))
def test_each_vm_waits_or_sits_on_one_host(config, policy, mode):
    cfg = config(policy, mode)
    state = SimulationState(cfg=cfg, seed=cfg.seed)
    for _ in range(cfg.step_count):
        step(state)
        homes = list(state.waiting)
        for host in state.hosts:
            homes.extend(host.placed_vms)
            assert all(state.vms[v].host_id == host.id
                       for v in host.placed_vms)
        assert sorted(homes) == sorted(state.vms)


@pytest.mark.parametrize("policy", ("fcfs", "utilization", "thermal",
                                    "thermal+utilization"))
def test_only_thermal_policies_evict_overheated_hosts(policy):
    cfg = churn_config(policy, thermal.MODE_LITERAL)
    report = run_once(cfg)
    # every policy runs hosts past t_over_c; only the thermal ones evict
    assert report.temp_max_c > cfg.hosts[0].thermal.t_over_c
    evicted = any(kind == "overheat-evict" for _, kind, _ in report.events)
    assert evicted == policy.startswith("thermal")


@pytest.mark.parametrize("policy, peak_c, svr, energy_kwh, migrations", (
    ("fcfs", 53.49, 0.000, 50.105, 0),
    ("utilization", 53.49, 0.000, 50.105, 0),
    ("thermal", 67.18, 0.261, 50.168, 5950),
    ("thermal+utilization", 67.18, 0.261, 50.168, 5950)))
def test_churn_outcomes_per_policy(policy, peak_c, svr, energy_kwh,
                                   migrations):
    """Benchmark churn at seed 1 over 100 steps, as each policy leaves it:
    the thermal policies evict whole hosts, run hotter than fcfs and
    violate more SLAs. This pins today's behaviour, not the paper's claim."""
    cfg = model.config_from_dict(dict(simulation_config("churn", seed=1),
                                      horizon_s=100 * 300, policy=policy))
    report = run_once(cfg)
    assert (round(report.temp_max_c, 2), round(report.svr, 3),
            round(report.total_energy_kwh, 3), report.migrations) == (
        peak_c, svr, energy_kwh, migrations)


# --- the backlog kept across steps ------------------------------------------

def mixed_overload_config():
    """Four hosts filled to their RAM by VMs of three MIPS, RAM and
    bandwidth specs, two VMs waiting, 50 arrivals per interval: the backlog
    grows, hosts overheat, and evicted VMs of differing specs stay unplaced
    across steps, so the placed VMs' spec means change on most steps."""
    ram = (512.0, 512.0, 512.0, 512.0, 1024.0, 1024.0, 2048.0, 2048.0)
    mips = (300.0, 300.0, 500.0, 500.0, 500.0, 800.0, 800.0, 1000.0)
    hosts = tuple(HostSpec(id=f"pm-{h}", thermal=CHURN_THERMAL)
                  for h in range(4))
    vms = tuple(VmSpec(id=f"vm-{h}{j}", mips=mips[j], ram_mb=ram[j],
                       bandwidth_bps=(5e7, 1e8)[j % 2], host_id=f"pm-{h}")
                for h in range(4) for j in range(8)) \
        + tuple(VmSpec(id=f"extra-{i}", mips=600.0, ram_mb=1024.0)
                for i in range(2))
    return validate_config(DataCenterConfig(
        hosts=hosts, vms=vms, horizon_s=25 * 300, seed=11, policy="thermal",
        workload=WorkloadGenConfig(lambda_per_interval=50.0)))


def test_backlog_maps_as_the_oracle_viewing_each_task_once_per_epoch(
        monkeypatch):
    """Each step the engine places what first-fit over the whole backlog,
    viewed afresh, would place; yet each task is viewed only once while the
    placed VMs' spec means stay the same (one epoch). After every step the
    held views are in walk order, and they and the inbox hold each pending
    task once."""
    from oracles import oracle_map

    cfg = mixed_overload_config()
    state = SimulationState(cfg=cfg, seed=cfg.seed)
    epoch = 0
    viewed = collections.Counter()
    task_views = utilization.task_views

    def counted_views(workloads, *args, **kwargs):
        viewed.update((w.id, epoch) for w in workloads)
        return task_views(workloads, *args, **kwargs)

    arrivals, taken = [], []
    generate = engine.generate_workloads
    take = engine.Backlog.take

    def recorded_generate(*args, **kwargs):
        tasks = generate(*args, **kwargs)
        arrivals.extend(tasks)
        return tasks

    def recorded_take(backlog, *args):
        placed = take(backlog, *args)
        taken.extend(placed)
        return placed

    monkeypatch.setattr(utilization, "task_views", counted_views)
    monkeypatch.setattr(engine, "generate_workloads", recorded_generate)
    monkeypatch.setattr(engine.Backlog, "take", recorded_take)

    means, rebuilds = None, 0
    for _ in range(cfg.step_count):
        pending = list(state.pending_tasks.tasks.values())
        waiting = set(state.waiting)
        placed = [copy.copy(vm) for vm in state.vms.values()
                  if vm.id not in waiting]
        if utilization.vm_means(placed) != means:
            means = utilization.vm_means(placed)
            epoch += 1
            rebuilds += bool(pending)
        arrivals.clear()
        taken.clear()
        step(state)
        views = task_views(pending + arrivals, means, cfg.interval_s)
        want, _ = oracle_map(views, placed)
        assert [(task.id, vm_id) for task, vm_id in taken] == want
        backlog = state.pending_tasks
        keys = [utilization.TASK_KEY(view) for view in backlog.held]
        assert keys == sorted(keys)
        ids = sorted(id(task) for task in
                     [view.task for view in backlog.held] + backlog.inbox)
        assert ids == sorted(backlog.tasks)
        assert len(backlog) == len(ids)
    assert rebuilds >= 10 and len(state.pending_tasks) >= 50
    assert set(viewed.values()) == {1}


def test_backlog_keeps_arrival_order_among_ties_across_means_changes():
    """Tasks differ only in RAM, on a coarse grid, so many tie on the sort
    key; those with more RAM than the mean VM RAM also tie (the key's
    memory field is clamped at 100%), and which those are changes with the
    fleet. Each take must equal first-fit over the whole backlog in arrival
    order, viewed afresh."""
    from oracles import oracle_map

    rng = np.random.default_rng(17)
    fleets = [(1024.0, 1024.0, 2048.0), (512.0, 1024.0, 2048.0, 2048.0),
              (1536.0, 2048.0)]
    backlog, pending, arrived = engine.Backlog(), [], 0
    for _ in range(40):
        ram = fleets[int(rng.integers(len(fleets)))]
        vms = []
        for i, r in enumerate(ram):
            vm = VmState(spec=VmSpec(id=f"vm-{i}", ram_mb=r))
            vm.reserved_ram_mb = float(rng.integers(0, 3) * 256)
            vms.append(vm)
        for _ in range(int(rng.integers(0, 8))):
            task = Workload(id=f"t-{arrived}", length_mi=1000.0,
                            mips_requested=100.0,
                            ram_mb=float(rng.integers(8, 13) * 128))
            arrived += 1
            backlog.extend([task])
            pending.append(task)
        means = utilization.vm_means(vms)
        want, _ = oracle_map(utilization.task_views(pending, means), vms)
        got = backlog.take(utilization.utilization_sort(vms), means, 300)
        assert [(task.id, vm_id) for task, vm_id in got] == want
        taken = {task.id for task, _ in got}
        pending = [task for task in pending if task.id not in taken]
        assert list(backlog.tasks.values()) == pending
    assert len(pending) >= 20


# --- invariants over random small configs -----------------------------------

# Limits just above the idle temperature (31.97 C): any load overheats.
NEAR_IDLE_THERMAL = thermal.ThermalParams(
    t_over_c=33.0, t_danger_c=32.5, t_normal_c=29.0, theta_cl_c=29.0,
    theta_ch_c=32.5)


def random_config(rng):
    """One to four hosts of one to eight cores, most with limits low enough
    for the thermal policies to evict; up to twelve VMs of random specs, each
    placed on a random host with room for it or left waiting; up to twelve
    arrivals per interval."""
    limits = (thermal.ThermalParams(), CHURN_THERMAL, NEAR_IDLE_THERMAL)
    hosts = tuple(
        HostSpec(id=f"pm-{i}", cores=int(rng.integers(1, 9)),
                 thermal=limits[int(rng.integers(3))])
        for i in range(int(rng.integers(1, 5))))
    room = {h.id: [h.total_mips, h.ram_mb] for h in hosts}
    vms = []
    for i in range(int(rng.integers(0, 13))):
        mips = float(rng.choice([250.0, 500.0, 1000.0, 2000.0]))
        ram = float(rng.choice([256.0, 512.0, 1024.0, 2048.0]))
        host_id = str(rng.choice([h.id for h in hosts]))
        if rng.random() < 0.5 or mips > room[host_id][0] \
                or ram > room[host_id][1]:
            host_id = None
        else:
            room[host_id][0] -= mips
            room[host_id][1] -= ram
        vms.append(VmSpec(id=f"vm-{i}", mips=mips, ram_mb=ram,
                          host_id=host_id))
    return DataCenterConfig(
        hosts=hosts, vms=tuple(vms), horizon_s=30 * 300,
        seed=int(rng.integers(2 ** 32)),
        workload=WorkloadGenConfig(
            lambda_per_interval=float(rng.uniform(0.0, 12.0))))


def test_engine_invariants_hold_after_every_step():
    rng = np.random.default_rng(2026)
    for _ in range(10):
        base = random_config(rng)
        for policy in ("fcfs", "utilization", "thermal",
                       "thermal+utilization"):
            for mode in thermal.MODES:
                cfg = validate_config(dataclasses.replace(
                    base, policy=policy, thermal_mode=mode))
                state = SimulationState(cfg=cfg, seed=cfg.seed)
                for _ in range(cfg.step_count):
                    energy_before = state.energy_j
                    step(state)
                    assert state.tasks_generated == (
                        len(state.pending_tasks) + len(state.running_tasks)
                        + state.tasks_completed)
                    for host in state.hosts:
                        placed = sum(state.vms[v].spec.mips
                                     for v in host.placed_vms)
                        assert placed <= host.spec.total_mips
                    drawn = sum(h.power_w for h in state.hosts) \
                        * cfg.interval_s
                    assert abs(state.energy_j - energy_before - drawn) \
                        <= 1e-9 * drawn


# --- the per-step work done only for what changed ---------------------------

def assert_incremental_state_matches_full_recompute(cfg, steps=None,
                                                    tasks=(), after_step=0):
    """Step ``cfg``, with ``tasks`` pushed onto the backlog after
    ``after_step`` steps, and check, at each step, every VM's view and walk
    key after the refresh, the walk order after placement, and every
    host's power-phase figures and temperature, against a recompute over
    every VM and host."""
    from oracles import oracle_host_figures, oracle_vm_views

    refresh, update_placed = engine._refresh_vm_views, engine._update_placed
    want_hosts = {}

    def checked_refresh(state):
        refresh(state)
        for vm_id, (util, e_total_w) in oracle_vm_views(state).items():
            vm = state.vms[vm_id]
            assert (vm.util.resource, vm.util.memory_pct, vm.util.disk_pct,
                    vm.util.network_pct, vm.e_total_w) == (*util, e_total_w)
            assert vm.walk_key == (*utilization.vm_key(vm),
                                   state.vm_index[vm_id])

    def recorded_update(state):
        # Runs at the end of placement, just before the power phase.
        update_placed(state)
        for host in state.hosts:
            want_hosts[host.id] = (oracle_host_figures(state, host),
                                   host.current_temp_c)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_refresh_vm_views", checked_refresh)
        patch.setattr(engine, "_update_placed", recorded_update)
        state = SimulationState(cfg=cfg, seed=cfg.seed)
        for index in range(cfg.step_count if steps is None else steps):
            if index == after_step:
                state.pending_tasks.extend(list(tasks))
                state.tasks_generated += len(tasks)
            step(state)
            waiting = set(state.waiting)
            assert state.placed == [vm for vm in state.vms.values()
                                    if vm.id not in waiting]
            assert [vm.id for vm in state.walk] == [
                vm.id for vm in utilization.utilization_sort(state.placed)]
            for host in state.hosts:
                figures, start_temp_c = want_hosts[host.id]
                assert (host.cpu_util, host.reserved_mips, host.power_w,
                        host.dynamic_w) == figures
                assert host.current_temp_c == thermal.cpu_temperature(
                    figures[3], host.spec.thermal, cfg.thermal_mode,
                    cfg.interval_s, start_temp_c)


def quiet_step_configs():
    """Three small runs where a single change happens on a step when
    nothing else is dirty: an idle VM evicted from a host that overheats at
    its idle draw, a lone task that runs for two steps, and an idle host
    cooling under a 300 s RC constant in time-dependent mode."""
    hot = thermal.ThermalParams(t_over_c=30.0, t_danger_c=25.0,
                                t_normal_c=20.0, theta_cl_c=20.0,
                                theta_ch_c=25.0)
    evicting = DataCenterConfig(
        hosts=(HostSpec(id="pm-0", thermal=hot), HostSpec(id="pm-1")),
        vms=(VmSpec(id="vm-0", host_id="pm-0"),), horizon_s=4 * 300,
        policy="thermal")
    lone_task = small_config(horizon_s=4 * 300)
    cooling = DataCenterConfig(
        hosts=(HostSpec(id="pm-0", thermal=thermal.ThermalParams(
            c_jk=600.0, t_initial_c=70.0)),),
        horizon_s=10 * 300, thermal_mode=thermal.MODE_TIME_DEPENDENT)
    return [(validate_config(evicting), ()),
            (validate_config(lone_task),
             (Workload(id="t", length_mi=300000.0, mips_requested=500.0,
                       ram_mb=64.0),)),
            (validate_config(cooling), ())]


def test_reservation_booking_marks_the_host(tmp_path):
    """A task that changes no VM snapshot: its VM replays a constant trace,
    and the task reserves no RAM and no bandwidth. Only the booking's host
    mark brings the host's reserved MIPS and busy flag up to date, on
    assignment and again on completion."""
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    (trace_dir / "flat.trace").write_text("50\n" * 10)
    cfg = validate_config(DataCenterConfig(
        hosts=(HostSpec(id="pm-0"),), vms=(VmSpec(id="vm-0", host_id="pm-0"),),
        horizon_s=6 * 300, trace_dir=str(trace_dir),
        workload=WorkloadGenConfig(lambda_per_interval=0.0)))
    task = Workload(id="t", length_mi=45000.0, mips_requested=100.0,
                    ram_mb=0.0, file_size_mb=0.0, output_size_mb=0.0,
                    arrival_s=600)
    assert_incremental_state_matches_full_recompute(cfg, tasks=(task,),
                                                    after_step=2)
    assert task.start_s == 600 and task.finish_s == 1050.0


def test_incremental_state_matches_full_recompute(tmp_path):
    for cfg, tasks in quiet_step_configs():
        assert_incremental_state_matches_full_recompute(cfg, tasks=tasks)
    assert_incremental_state_matches_full_recompute(
        churn_config("thermal", thermal.MODE_LITERAL))
    assert_incremental_state_matches_full_recompute(matrix_config(
        "thermal", thermal.MODE_TIME_DEPENDENT, write_traces(tmp_path)))
    fleet = model.config_from_dict(simulation_config("fleet", seed=1))
    assert_incremental_state_matches_full_recompute(fleet, steps=40)
    # Every other run here draws the default power constants.
    rng = np.random.default_rng(20)
    assert_incremental_state_matches_full_recompute(validate_config(
        dataclasses.replace(fleet, hosts=tuple(
            dataclasses.replace(host, power=random_power_params(rng))
            for host in fleet.hosts))), steps=40)
    rng = np.random.default_rng(2026)
    for _ in range(10):
        base = random_config(rng)
        for policy in ("fcfs", "utilization", "thermal",
                       "thermal+utilization"):
            for mode in thermal.MODES:
                assert_incremental_state_matches_full_recompute(
                    validate_config(dataclasses.replace(
                        base, policy=policy, thermal_mode=mode)))
