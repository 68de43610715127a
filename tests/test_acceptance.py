"""Acceptance suite: one check per release criterion, one printed verdict
line each. Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import time
from contextlib import contextmanager

import numpy as np

from dctherm import energy, engine, model, predictor, scheduler, thermal
from dctherm import utilization
from dctherm.gru import GruLayer, GruModel, FeatureNorm
from dctherm.model import (DataCenterConfig, HostSpec, VmSpec,
                           WorkloadGenConfig, validate_config)

from oracles import analytic_gradients, finite_difference_gradients


@contextmanager
def verdict(number, label):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number:2d}: {label}")
        raise
    print(f"PASS  criterion {number:2d}: {label} ({time.time() - start:.1f}s)")


def test_criterion_01_fan_model_fidelity():
    rows = (  # (fans, utilizations, temp)
        ((4214, 4289, 4230, 4264, 4263), (58, 62, 63, 72), 44.0),
        ((3979, 4046, 4085, 4060, 4033), (67, 72, 35, 84), 42.0),
    )
    with verdict(1, "fan model matches both telemetry rows"):
        expected_rpm = (4207.5, 4063.5)
        for (fans, utils, temp), want in zip(rows, expected_rpm):
            avg = sum(utils) / 4.0
            rpm = predictor.fan_rpm(avg, temp)
            band = predictor.fan_rpm_band(avg, temp)
            assert rpm == want
            assert min(fans) - band / 2.0 <= rpm <= max(fans) + band / 2.0


def test_criterion_02_threshold_arithmetic():
    with verdict(2, "VM-class cutoffs from (79, 70, 29) are (9.0, -55.5)"):
        tp = thermal.ThermalParams(t_over_c=79.0, t_danger_c=70.0,
                                   t_normal_c=29.0)
        th = thermal.vm_thresholds(tp)
        assert th.raw_high_c == 9.0
        assert th.raw_low_c == -55.5
        assert (th.theta_low_c, th.theta_high_c) == (-55.5, 9.0)


def test_criterion_03_gradient_check():
    with verdict(3, "analytic gradients match finite differences (<= 1e-4)"):
        norm = FeatureNorm(np.zeros(3), np.ones(3), 0.0, 1.0)
        net = GruModel.create(3, (2, 2), norm, seed=321)
        xs = np.random.default_rng(17).uniform(0.0, 1.0, (6, 2, 3))
        ana = analytic_gradients(net, xs)
        fd = finite_difference_gradients(net, xs, step=1e-5)
        for name in ana:
            a = np.atleast_1d(np.asarray(ana[name], dtype=float))
            f = np.atleast_1d(np.asarray(fd[name], dtype=float))
            rel = np.abs(a - f) / np.maximum(1e-8, np.abs(a) + np.abs(f))
            assert rel.max() <= 1e-4, f"{name}: {rel.max():.3e}"


def test_criterion_04_zero_weight_closed_form():
    with verdict(4, "zero-weight hidden state halves per step (<= 1e-12)"):
        layer = GruLayer(4, 3)
        h0 = np.array([[0.9, -0.2, 0.55]])
        for t in range(1, 21):
            hs, _ = layer.forward(np.zeros((t, 1, 4)), h0=h0)
            assert np.abs(hs[-1] - 0.5 ** t * h0).max() <= 1e-12


def test_criterion_05_predictor_accuracy():
    with verdict(5, "synthetic 1100/100 training reaches accuracy >= 0.90"):
        windows = predictor.synthesize_windows(1200, seed=42)
        train, test = predictor.interleaved_split(windows, 100)
        assert len(train) == 1100 and len(test) == 100
        settings = predictor.TrainSettings(epochs=2000, seed=0)
        _, report = predictor.train_predictor(train, settings,
                                              test_sequences=test,
                                              epsilon_rel=0.05)
        assert report.test_accuracy >= 0.90, report.test_accuracy


def test_criterion_06_energy_conservation():
    with verdict(6, "power-tree additivity and engine energy cross-check"):
        rng = np.random.default_rng(606)
        for _ in range(1000):
            vals = rng.uniform(0.0, 400.0, 6)
            parts = energy.ComputingBreakdown(*vals[:5])
            b = energy.total_power(parts, vals[5])
            leaves = (b.processor_w + b.storage_w + b.memory_w + b.network_w
                      + b.extra_w + b.cooling_w)
            assert abs(b.total_w - leaves) <= 1e-9 * max(1.0, abs(b.total_w))
        cfg = model.default_datacenter(
            seed=6, horizon_s=30000,
            workload=WorkloadGenConfig(lambda_per_interval=3.0))
        report = engine.run_once(cfg)
        second_pass = sum(row[4] for row in report.per_step_rows) * cfg.interval_s
        total = report.total_energy_kwh * 3.6e6
        assert abs(second_pass - total) <= 1e-9 * max(1.0, total)


def test_criterion_07_task_mapping_oracle():
    from oracles import oracle_map
    with verdict(7, "task mapper matches its line-by-line interpreter (200 cases)"):
        rng = np.random.default_rng(707)
        for _ in range(200):
            vms = []
            for i in range(int(rng.integers(1, 5))):
                vm = model.VmState(spec=VmSpec(
                    id=f"vm-{i}", mips=float(rng.integers(2, 12) * 100),
                    ram_mb=float(rng.integers(2, 16) * 128)))
                vm.util = model.UtilizationSnapshot(
                    resource=float(rng.choice([0.1, 0.4, 0.4, 0.9])),
                    memory_pct=float(rng.choice([10.0, 10.0, 60.0])),
                    disk_pct=float(rng.choice([5.0, 50.0])),
                    network_pct=float(rng.choice([2.0, 2.0, 20.0])))
                vm.e_total_w = float(rng.choice([4.0, 4.0, 9.0]))
                vms.append(vm)
            tasks = [model.Workload(id=f"t-{i}", length_mi=1000.0,
                                    mips_requested=float(rng.integers(1, 10) * 100),
                                    ram_mb=float(rng.integers(1, 8) * 64))
                     for i in range(int(rng.integers(0, 7)))]
            views = utilization.task_views(tasks, vms)
            got = utilization.map_workloads(views, vms)
            want_assigned, want_unassigned = oracle_map(views, vms)
            assert got.assigned == want_assigned
            assert got.unassigned == want_unassigned


def _random_host(rng, idx):
    spec = HostSpec(id=f"pm-{idx}", cores=int(rng.integers(1, 3)),
                    mips_per_core=1000.0,
                    ram_mb=float(rng.integers(2, 6) * 512))
    return model.HostState(spec=spec,
                           current_temp_c=float(rng.uniform(15, 90)))


def _random_vm(rng, idx, delta_range=(-5.0, 7.0)):
    vm = model.VmState(spec=VmSpec(id=f"vm-{idx}",
                                   mips=float(rng.integers(1, 6) * 250),
                                   ram_mb=float(rng.integers(1, 5) * 256)))
    vm.delta_t_c = float(rng.uniform(*delta_range))
    return vm


def test_criterion_08_thermal_scheduler_safety():
    from oracles import oracle_round
    with verdict(8, "queue partition, anti-aggravation, scheduler oracle"):
        rng = np.random.default_rng(808)
        th = thermal.VmThresholds(theta_low_c=-1.0, theta_high_c=2.0)
        for _ in range(500):   # partition
            vms = [_random_vm(rng, i, (-6.0, 6.0)) for i in range(10)]
            qs = scheduler.classify_and_enqueue(vms, th)
            ids = list(qs.q_hot) + list(qs.q_warm) + list(qs.q_cold)
            assert sorted(ids) == sorted(vm.id for vm in vms)
            assert len(set(ids)) == len(ids)
        for _ in range(500):   # anti-aggravation
            hosts = [_random_host(rng, i) for i in range(3)]
            vms = [_random_vm(rng, i, (-4.0, 6.0))
                   for i in range(int(rng.integers(1, 6)))]
            snap = scheduler.Snapshot(hosts=hosts,
                                      vms={v.id: v for v in vms},
                                      waiting=[v.id for v in vms],
                                      thresholds=th)
            qs = scheduler.classify_and_enqueue(vms, th)
            klass = {vm.id: vm.thermal_class for vm in vms}
            remaining = {c: set(qs.queue(c)) for c in
                         (thermal.ThermalClass.HOT, thermal.ThermalClass.WARM,
                          thermal.ThermalClass.COLD)}
            temp = {h.id: h.current_temp_c for h in hosts}
            for action in scheduler.schedule_round(snap, qs):
                if (temp[action.dst_host] > hosts[0].spec.thermal.theta_ch_c
                        and klass[action.vm_id] is thermal.ThermalClass.HOT):
                    assert not remaining[thermal.ThermalClass.COLD]
                    assert not remaining[thermal.ThermalClass.WARM]
                remaining[klass[action.vm_id]].discard(action.vm_id)
                temp[action.dst_host] += snap.vms[action.vm_id].delta_t_c
        for _ in range(200):   # oracle equivalence
            hosts = [_random_host(rng, i)
                     for i in range(int(rng.integers(1, 4)))]
            vms = [_random_vm(rng, i)
                   for i in range(int(rng.integers(0, 6)))]
            snap = scheduler.Snapshot(hosts=hosts,
                                      vms={v.id: v for v in vms},
                                      waiting=[v.id for v in vms],
                                      thresholds=th)
            qs = scheduler.classify_and_enqueue(vms, th)
            got = [(a.kind, a.vm_id, a.dst_host)
                   for a in scheduler.schedule_round(snap, qs)]
            assert got == oracle_round(hosts, vms, th)


def test_criterion_09_thermal_stress_scenario():
    with verdict(9, "preheated host cools under the thermal policy"):
        tp = thermal.ThermalParams(theta_vl_c=1.5, theta_vh_c=5.0)
        hosts = (HostSpec(id="pm-0", thermal=tp),
                 HostSpec(id="pm-1", thermal=tp))
        vms = tuple(VmSpec(id=f"cold-{i}", mips=250.0) for i in range(12)) \
            + tuple(VmSpec(id=f"hot-{i}", mips=2000.0) for i in range(4))
        cfg = validate_config(DataCenterConfig(hosts=hosts, vms=vms,
                                               horizon_s=1500,
                                               policy="thermal"))
        state = engine.SimulationState(cfg=cfg, seed=9)
        state.hosts[0].current_temp_c = 75.0   # preheated above theta_ch
        for _ in range(cfg.step_count):
            engine.step(state)
        # the classifier saw a genuinely mixed queue
        classes = {vm.thermal_class for vm in state.vms.values()}
        assert thermal.ThermalClass.HOT in classes
        assert thermal.ThermalClass.COLD in classes
        # cold VMs keep flowing to the hot host, none of the hot ones do
        placed_hot_host = set(state.host_by_id["pm-0"].placed_vms)
        assert placed_hot_host and all(v.startswith("cold") for v in placed_hot_host)
        # preheated host's series never rises over the first three steps
        series = [75.0] + state.temp_series["pm-0"][:3]
        assert all(b <= a for a, b in zip(series, series[1:])), series
        # and no host ever exceeds T_over plus one interval's added heating
        p_full = energy.dynamic_power(1.0, hosts[0].power.dyn)
        bound = tp.t_over_c + p_full * tp.r_kw
        for temps in state.temp_series.values():
            assert max(temps) <= bound


def test_criterion_10_determinism_and_scale():
    with verdict(10, "full-scale run < 60 s and byte-identical per seed"):
        hosts = tuple(HostSpec(id=f"pm-{i:02d}") for i in range(60))
        vms = tuple(VmSpec(id=f"vm-{i:03d}") for i in range(360))
        cfg = validate_config(DataCenterConfig(
            hosts=hosts, vms=vms, seed=10,
            policy="thermal+utilization",
            workload=WorkloadGenConfig(count=3000)))
        assert cfg.step_count == 576
        start = time.time()
        first = engine.run_once(cfg)
        elapsed = time.time() - start
        assert elapsed < 60.0, f"run took {elapsed:.1f}s"
        second = engine.run_once(cfg)
        assert first.per_step_rows == second.per_step_rows
        assert first.events == second.events
        assert first.summary_row() == second.summary_row()
        assert first.tasks_generated > 2500   # count-derived arrival rate


def test_criterion_11_poisson_soundness():
    with verdict(11, "arrival draws: mean within 3 sigma, variance within 5%"):
        rng = np.random.default_rng(1111)
        draws = np.array([engine.poisson_arrivals(4.0, rng)
                          for _ in range(100_000)])
        assert abs(draws.mean() - 4.0) <= 3.0 * np.sqrt(4.0 / 100_000)
        assert abs(draws.var() - 4.0) <= 0.05 * 4.0
