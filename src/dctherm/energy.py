"""Per-host power model: a seven-leaf component tree.

All functions return instantaneous watts; the engine integrates
watts x interval into joules. The tree is

    total = computing + cooling
    computing = processor + storage + memory + network + extra

with the processor term summed per core over dynamic, short-circuit,
leakage and idle draws, and the dynamic draw being the average of a
linear (C V^2 f) and a nonlinear (mu1 u + mu2 u^2) model. Every sum runs
left to right, so a total is
``((((processor + storage) + memory) + network) + extra) + cooling``.

The leaf formulas are written once, in ``leaves`` (computing) and
``cooling_power``. ``host_power`` adds them into one host's total watts;
the engine calls it once per recomputed host with two flags (the host
holds a VM; one of its VMs holds a reservation) and the dynamic draw it
has already computed for the host.

The constant leaves are never summed ahead of time: adding them in
another order would change the last bits of every total.
"""

import functools
from dataclasses import dataclass, field, fields, is_dataclass

from .errors import DomainError, InvalidConfig

# Processor-level nonlinear coefficients: 120 + 60 = 180 W at full
# utilization, inside the 130-240 W band of the reference parameter set.
DEFAULT_MU1 = 120.0
DEFAULT_MU2 = 60.0


@functools.cache
def _number_fields(cls):
    """Names of the fields of ``cls`` that are not parameter groups; cached,
    as a config load builds every group once per host."""
    return tuple(f.name for f in fields(cls) if not is_dataclass(f.type))


class _NonNegative:
    """Rejects, on construction, a negative value of any field that is not
    itself a parameter group (those check their own fields)."""

    def __post_init__(self):
        for name in _number_fields(type(self)):
            if getattr(self, name) < 0:
                raise InvalidConfig(name, "must be >= 0")


@dataclass(frozen=True)
class DynamicEnergyParams(_NonNegative):
    """Coefficients of the dynamic-draw model (linear and nonlinear halves)."""

    capacitance_f: float = 1e-9
    voltage_v: float = 1.2
    frequency_hz: float = 2.0e9
    mu1: float = DEFAULT_MU1
    mu2: float = DEFAULT_MU2


@dataclass(frozen=True)
class StoragePower(_NonNegative):
    read_w: float = 15.0
    write_w: float = 15.0
    idle_w: float = 5.0


@dataclass(frozen=True)
class MemoryPower(_NonNegative):
    sram_w: float = 3.0
    dram_w: float = 7.0


@dataclass(frozen=True)
class NetworkPower(_NonNegative):
    router_w: float = 30.0
    gateway_w: float = 20.0
    lan_card_w: float = 10.0
    switch_w: float = 10.0


@dataclass(frozen=True)
class ExtraPower(_NonNegative):
    motherboard_w: float = 1.6
    connector_w: float = 0.1
    ports: int = 4


@dataclass(frozen=True)
class CoolingPower(_NonNegative):
    ac_w: float = 200.0
    compressor_w: float = 150.0
    fan_w: float = 50.0


@dataclass(frozen=True)
class PowerParams(_NonNegative):
    """Full parameter set for one host's power tree.

    Per-core static draws are watts per core; the dynamic coefficients are
    processor-level (the engine splits the dynamic draw across cores).
    No draw, coefficient or port count may be negative.
    """

    short_circuit_w: float = 2.0
    leakage_w: float = 4.0
    idle_w: float = 8.0
    storage: StoragePower = field(default_factory=StoragePower)
    memory: MemoryPower = field(default_factory=MemoryPower)
    network: NetworkPower = field(default_factory=NetworkPower)
    extra: ExtraPower = field(default_factory=ExtraPower)
    cooling: CoolingPower = field(default_factory=CoolingPower)
    dyn: DynamicEnergyParams = field(default_factory=DynamicEnergyParams)


def dynamic_power(u, p):
    """Dynamic processor draw at utilization ``u`` in [0, 1].

    Average of the linear model C V^2 f and the nonlinear model
    mu1 u + mu2 u^2.
    """
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"utilization {u} outside [0, 1]")
    linear = p.capacitance_f * p.voltage_v ** 2 * p.frequency_hz
    nonlinear = p.mu1 * u + p.mu2 * u * u
    return (linear + nonlinear) / 2.0


def ordered_sum(values):
    """Sum ``values`` left to right from the int 0, as ``sum()`` did before
    Python 3.12 compensated float sums. Reports carry this rounding, so
    every float sum that reaches one goes through here, or adds the same
    way in a loop written out where a call per sum costs too much (the
    engine's power phase)."""
    total = 0
    for value in values:
        total += value
    return total


def leaves(p, processor, busy, cores, dynamic_w):
    """The five leaves of the computing half, in tree order: (processor,
    storage, memory, network, extra) watts.

    ``processor`` says the host holds a VM, ``busy`` that one of its VMs
    holds a reservation, and ``dynamic_w`` is the processor's dynamic
    draw, ``dynamic_power(u, p.dyn)``. A working subsystem contributes
    every printed term of its equation (idle draw included); an idle one
    contributes its idle draw only, or nothing if it has no idle term.
    """
    if processor:
        core_w = dynamic_w / cores + p.short_circuit_w + p.leakage_w + p.idle_w
    else:
        core_w = p.idle_w
    # Added in a loop, as ordered_sum adds, for the same reason.
    proc = 0.0
    for _ in range(cores):
        proc += core_w

    s = p.storage
    if not busy:
        return proc, s.idle_w, 0.0, 0.0, 0.0
    m, n, e = p.memory, p.network, p.extra
    return (proc, s.read_w + s.write_w + s.idle_w, m.sram_w + m.dram_w,
            n.router_w + n.gateway_w + n.lan_card_w + n.switch_w,
            e.motherboard_w + e.connector_w * e.ports)


def cooling_power(ac_w, compressor_w, fan_w):
    """Cooling draw: air conditioning + compressor + fans."""
    if ac_w < 0 or compressor_w < 0 or fan_w < 0:
        for name, value in (("ac_w", ac_w), ("compressor_w", compressor_w),
                            ("fan_w", fan_w)):
            if value < 0:
                raise DomainError(f"{name} must be >= 0")
    return ac_w + compressor_w + fan_w


def host_power(p, processor, busy, cores, dynamic_w):
    """One host's total draw in watts: the five ``leaves`` and
    ``cooling_power``, added left to right."""
    proc, storage, memory, network, extra = leaves(p, processor, busy, cores,
                                                   dynamic_w)
    c = p.cooling
    return (proc + storage + memory + network + extra
            + cooling_power(c.ac_w, c.compressor_w, c.fan_w))
