import numpy as np
import pytest

from dctherm import energy
from dctherm.errors import DomainError
from oracles import oracle_host_power_w


def random_power_params(rng):
    """A PowerParams with every draw and coefficient drawn uniformly from a
    range about its default, and 0 to 8 ports."""
    def draws(cls, **ranges):
        return cls(**{name: float(rng.uniform(*r)) for name, r in ranges.items()})

    return energy.PowerParams(
        short_circuit_w=float(rng.uniform(0.0, 5.0)),
        leakage_w=float(rng.uniform(0.0, 10.0)),
        idle_w=float(rng.uniform(0.0, 20.0)),
        storage=draws(energy.StoragePower, read_w=(0.0, 30.0),
                      write_w=(0.0, 30.0), idle_w=(0.0, 10.0)),
        memory=draws(energy.MemoryPower, sram_w=(0.0, 6.0), dram_w=(0.0, 14.0)),
        network=draws(energy.NetworkPower, router_w=(0.0, 60.0),
                      gateway_w=(0.0, 40.0), lan_card_w=(0.0, 20.0),
                      switch_w=(0.0, 20.0)),
        extra=energy.ExtraPower(motherboard_w=float(rng.uniform(0.0, 3.0)),
                                connector_w=float(rng.uniform(0.0, 0.3)),
                                ports=int(rng.integers(0, 9))),
        cooling=draws(energy.CoolingPower, ac_w=(0.0, 400.0),
                      compressor_w=(0.0, 300.0), fan_w=(0.0, 100.0)),
        dyn=draws(energy.DynamicEnergyParams, capacitance_f=(0.0, 2e-9),
                  voltage_v=(0.8, 1.5), frequency_hz=(1e9, 4e9),
                  mu1=(0.0, 240.0), mu2=(0.0, 120.0)))


def test_dynamic_power_all_zero_params():
    p = energy.DynamicEnergyParams(capacitance_f=0, voltage_v=0,
                                   frequency_hz=0, mu1=0, mu2=0)
    for u in (0.0, 0.3, 1.0):
        assert energy.dynamic_power(u, p) == 0.0


def test_dynamic_power_hand_value():
    p = energy.DynamicEnergyParams(capacitance_f=2, voltage_v=1,
                                   frequency_hz=1, mu1=1, mu2=1)
    assert energy.dynamic_power(1.0, p) == pytest.approx(2.0)


def test_dynamic_power_zero_utilization_leaves_linear_half():
    p = energy.DynamicEnergyParams(capacitance_f=3, voltage_v=2,
                                   frequency_hz=5, mu1=7, mu2=11)
    assert energy.dynamic_power(0.0, p) == pytest.approx(3 * 4 * 5 / 2)


def test_dynamic_power_domain():
    p = energy.DynamicEnergyParams()
    with pytest.raises(DomainError):
        energy.dynamic_power(-0.1, p)
    with pytest.raises(DomainError):
        energy.dynamic_power(1.1, p)


def test_dynamic_power_monotone_in_utilization():
    p = energy.DynamicEnergyParams(mu1=120, mu2=60)
    values = [energy.dynamic_power(u, p) for u in np.linspace(0, 1, 50)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_computing_power_component_sums():
    p = energy.PowerParams()
    watts, parts = energy.computing_power(p, cores=4, cpu_util=0.0)
    assert watts == pytest.approx(parts.processor_w + parts.storage_w
                                  + parts.memory_w + parts.network_w
                                  + parts.extra_w)
    # storage sums every printed term when active
    assert parts.storage_w == pytest.approx(p.storage.read_w + p.storage.write_w
                                            + p.storage.idle_w)


def test_computing_power_storage_literal_sum():
    p = energy.PowerParams(storage=energy.StoragePower(read_w=1, write_w=2, idle_w=3))
    _, parts = energy.computing_power(p)
    assert parts.storage_w == 6.0


def test_computing_power_idle_subsystems():
    p = energy.PowerParams()
    inactive = energy.Activity(processor=False, storage=False, memory=False,
                               network=False, extra=False)
    watts, parts = energy.computing_power(p, inactive, cores=2)
    assert parts.processor_w == 2 * p.idle_w
    assert parts.storage_w == p.storage.idle_w
    assert parts.memory_w == parts.network_w == parts.extra_w == 0.0
    assert watts == pytest.approx(2 * p.idle_w + p.storage.idle_w)


def test_computing_power_zero_params():
    p = energy.PowerParams(
        short_circuit_w=0, leakage_w=0, idle_w=0,
        storage=energy.StoragePower(0, 0, 0),
        memory=energy.MemoryPower(0, 0),
        network=energy.NetworkPower(0, 0, 0, 0),
        extra=energy.ExtraPower(0, 0, 0),
        dyn=energy.DynamicEnergyParams(0, 0, 0, 0, 0))
    watts, _ = energy.computing_power(p, cores=4, cpu_util=1.0)
    assert watts == 0.0


def test_reference_lower_bound_sum():
    # subsystem lower bounds: processor 130, storage 35, memory 10,
    # network 70, extra 2
    parts = energy.ComputingBreakdown(130, 35, 10, 70, 2)
    assert parts.watts == 247.0
    breakdown = energy.total_power(parts, 400.0)
    assert breakdown.total_w == 647.0


def test_cooling_power():
    assert energy.cooling_power(0, 0, 0) == 0.0
    assert energy.cooling_power(400, 300, 200) == 900.0
    assert energy.cooling_power(1, 1, 1) == 3.0
    with pytest.raises(DomainError):
        energy.cooling_power(-1, 0, 0)


def test_total_power_identity_and_zero():
    zero = energy.ComputingBreakdown()
    assert energy.total_power(zero, 0.0).total_w == 0.0
    for x in (1.0, 17.5, 300.0):
        parts = energy.ComputingBreakdown(processor_w=x)
        assert energy.total_power(parts, 0.0).total_w == x


def test_breakdown_additivity_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        vals = rng.uniform(0, 500, 6)
        parts = energy.ComputingBreakdown(*vals[:5])
        b = energy.total_power(parts, vals[5])
        leaves = (b.processor_w + b.storage_w + b.memory_w + b.network_w
                  + b.extra_w + b.cooling_w)
        assert abs(b.total_w - leaves) <= 1e-9 * max(1.0, abs(b.total_w))
        assert abs(b.computing_w - parts.watts) <= 1e-9 * max(1.0, b.computing_w)


def test_total_monotone_in_each_leaf():
    rng = np.random.default_rng(7)
    base = rng.uniform(0, 100, 6)
    total = energy.total_power(energy.ComputingBreakdown(*base[:5]), base[5]).total_w
    for i in range(6):
        bumped = base.copy()
        bumped[i] += 13.0
        t2 = energy.total_power(energy.ComputingBreakdown(*bumped[:5]), bumped[5]).total_w
        assert t2 >= total


def test_host_power_composes_cooling():
    p = energy.PowerParams()
    _, parts = energy.computing_power(p, cores=4, cpu_util=0.5)
    c = p.cooling
    b = energy.total_power(parts,
                           energy.cooling_power(c.ac_w, c.compressor_w, c.fan_w))
    assert b.cooling_w == pytest.approx(c.ac_w + c.compressor_w + c.fan_w)
    assert b.total_w == pytest.approx(b.computing_w + b.cooling_w)
    assert energy.host_power(p, cores=4, cpu_util=0.5) == b.total_w


def test_host_power_and_breakdown_equal_the_oracle():
    """2,000 random parameter sets with full mantissas, so that adding the
    leaves in another order shows in the last bits, under all four
    activities the engine passes and at u = 0, 1 and a random one."""
    rng = np.random.default_rng(20)
    for _ in range(2000):
        p = random_power_params(rng)
        cores = int(rng.integers(1, 9))
        c = p.cooling
        cooling_w = energy.cooling_power(c.ac_w, c.compressor_w, c.fan_w)
        for by_busy in energy.HOST_ACTIVITY:
            for active in by_busy:
                for u in (0.0, 1.0, float(rng.random())):
                    want = oracle_host_power_w(p, active, cores, u)
                    assert energy.host_power(p, active, cores, u) == want
                    _, parts = energy.computing_power(p, active, cores, u)
                    assert energy.total_power(parts, cooling_w).total_w == want
