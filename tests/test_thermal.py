import dataclasses
import itertools
import math

import numpy as np
import pytest

from dctherm import thermal
from dctherm.errors import DomainError, InvalidConfig
from dctherm.thermal import (ThermalClass, ThermalParams, classify_vm,
                             cpu_temperature, vm_delta_temperature,
                             vm_thresholds)
from oracles import oracle_vm_delta_temperature


def params(**kw):
    defaults = dict(r_kw=0.5, c_jk=2.0, t_inlet_c=25.0, t_initial_c=20.0)
    defaults.update(kw)
    return ThermalParams(**defaults)


def test_unpowered_cold_start_is_inlet():
    tp = params(t_initial_c=0.0)
    assert cpu_temperature(0.0, tp, "literal") == pytest.approx(25.0)
    assert cpu_temperature(0.0, tp, "time-dependent", dt_s=1e9) \
        == pytest.approx(25.0)


def test_literal_mode_hand_value():
    tp = params()
    expected = 10 * 0.5 + 25 + 20 * math.exp(-1.0)
    assert cpu_temperature(10.0, tp, "literal") == pytest.approx(expected)
    assert expected == pytest.approx(37.3576, abs=1e-4)


def test_time_dependent_converges_to_steady_state():
    tp = params(c_jk=600.0)
    steady = 10 * 0.5 + 25
    assert cpu_temperature(10.0, tp, "time-dependent", dt_s=1e9) \
        == pytest.approx(steady)
    # convergence is monotone in dt
    gaps = [abs(cpu_temperature(10.0, tp, "time-dependent", dt_s=dt) - steady)
            for dt in (10, 100, 1000, 10000)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_temperature_monotone_in_power_and_inlet():
    for mode, dt in (("literal", None), ("time-dependent", 300.0)):
        temps = [cpu_temperature(p, params(), mode, dt) for p in (0, 5, 50, 500)]
        assert all(b >= a for a, b in zip(temps, temps[1:]))
        temps = [cpu_temperature(10.0, params(t_inlet_c=t), mode, dt)
                 for t in (15, 25, 40)]
        assert all(b >= a for a, b in zip(temps, temps[1:]))


def test_temperature_domain_errors():
    with pytest.raises(DomainError):
        cpu_temperature(-1.0, params())
    with pytest.raises(DomainError):
        cpu_temperature(1.0, params(), "time-dependent")  # dt missing
    with pytest.raises(DomainError):
        cpu_temperature(1.0, params(), "sideways")


def test_time_dependent_step_starts_from_t_start():
    tp = params(c_jk=600.0)
    for start in (-5.0, 0.0, 17.0, 61.25, 120.0):
        for p, dt in ((0.0, 1.0), (37.5, 300.0), (200.0, 1e6)):
            moved = dataclasses.replace(tp, t_initial_c=start)
            assert cpu_temperature(p, tp, "time-dependent", dt,
                                   t_start_c=start) \
                == cpu_temperature(p, moved, "time-dependent", dt)
            assert cpu_temperature(p, tp, "literal", dt, t_start_c=start) \
                == cpu_temperature(p, tp, "literal")
    assert cpu_temperature(10.0, tp, "time-dependent", 300.0) \
        == cpu_temperature(10.0, tp, "time-dependent", 300.0,
                           t_start_c=tp.t_initial_c)


def test_vm_delta_zero_power():
    assert vm_delta_temperature(0.0, params()) == 0.0


def test_vm_delta_steady_state_is_power_times_resistance():
    tp = params(c_jk=600.0)
    delta = vm_delta_temperature(8.0, tp, "time-dependent", dt_s=1e9)
    assert delta == pytest.approx(8.0 * 0.5)


def test_vm_delta_additive_in_power():
    for mode, dt in (("literal", None), ("time-dependent", 300.0)):
        one = vm_delta_temperature(6.0, params(), mode, dt)
        two = vm_delta_temperature(12.0, params(), mode, dt)
        assert two == pytest.approx(2 * one)


def test_vm_delta_closed_form_matches_temperature_difference():
    # The oracle subtracts two temperatures, so it carries rounding of the
    # temperature's size; the closed form must agree up to that.
    for c_jk, mode, dt, host_w, vm_w in itertools.product(
            (2.0, 600.0, 5000.0), thermal.MODES, (1.0, 300.0, 1e6),
            np.linspace(0.0, 200.0, 9).tolist(),
            np.linspace(0.0, 100.0, 11).tolist()):
        tp = params(c_jk=c_jk)
        want = oracle_vm_delta_temperature(vm_w, host_w, tp, mode, dt)
        got = vm_delta_temperature(vm_w, tp, mode, dt)
        hot = cpu_temperature(host_w + vm_w, tp, mode, dt)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(hot))


def test_vm_delta_domain_errors():
    with pytest.raises(DomainError):
        vm_delta_temperature(-1.0, params())
    with pytest.raises(DomainError):
        vm_delta_temperature(1.0, params(), "time-dependent")  # dt missing
    with pytest.raises(DomainError):
        vm_delta_temperature(1.0, params(), "sideways")


def test_thresholds_reference_constants():
    tp = ThermalParams(t_over_c=79.0, t_danger_c=70.0, t_normal_c=29.0)
    th = vm_thresholds(tp)
    assert th.raw_high_c == pytest.approx(9.0)
    assert th.raw_low_c == pytest.approx(-55.5)
    assert (th.theta_low_c, th.theta_high_c) == (-55.5, 9.0)


def test_thresholds_degenerate_cases():
    th = vm_thresholds(ThermalParams(t_over_c=70.0001, t_danger_c=70.0,
                                     t_normal_c=29.0))
    assert th.raw_high_c == pytest.approx(0.0, abs=1e-3)
    # raw low crosses zero when normal = 2 * danger (needs negatives to
    # respect normal < danger < over)
    th = vm_thresholds(ThermalParams(t_over_c=5.0, t_danger_c=-10.0,
                                     t_normal_c=-20.0))
    assert th.raw_low_c == pytest.approx(0.0, abs=1e-12)


def test_thermal_params_invariants():
    with pytest.raises(InvalidConfig):
        ThermalParams(t_normal_c=80.0)  # normal above danger
    with pytest.raises(InvalidConfig):
        ThermalParams(r_kw=0.0)


def test_classification_examples():
    th = thermal.VmThresholds(theta_low_c=-55.5, theta_high_c=9.0)
    assert classify_vm(10.0, th) is ThermalClass.HOT
    assert classify_vm(-60.0, th) is ThermalClass.COLD
    assert classify_vm(9.0, th) is ThermalClass.WARM   # boundary -> warm
    assert classify_vm(-55.5, th) is ThermalClass.WARM


def test_classification_partitions_and_is_monotone():
    th = thermal.VmThresholds(theta_low_c=-2.0, theta_high_c=3.0)
    order = {ThermalClass.COLD: 0, ThermalClass.WARM: 1, ThermalClass.HOT: 2}
    rng = np.random.default_rng(99)
    deltas = np.sort(rng.uniform(-10, 10, 500))
    classes = [classify_vm(float(d), th) for d in deltas]
    assert all(c in order for c in classes)          # total partition
    ranks = [order[c] for c in classes]
    assert all(b >= a for a, b in zip(ranks, ranks[1:]))  # monotone
