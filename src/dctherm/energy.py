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

The leaf formulas are written once, in ``_leaves`` (computing) and
``cooling_power``; the computing sum once, in ``_computing_w``. Both
paths read them:

- ``host_power`` returns one host's total watts as a float and builds no
  breakdown object; the engine calls it once per recomputed host, with
  one of the ``HOST_ACTIVITY`` constants;
- ``computing_power`` and ``total_power`` return the same figures leaf
  by leaf, as a ``ComputingBreakdown`` and an ``EnergyBreakdown``.

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


@dataclass(frozen=True)
class Activity:
    """Which subsystems are actively working this interval.

    An active subsystem contributes every printed term of its equation
    (idle draw included); an inactive one contributes its idle draw only,
    or nothing if the subsystem has no idle term.
    """

    processor: bool = True
    storage: bool = True
    memory: bool = True
    network: bool = True
    extra: bool = True


# The engine's four cases, HOST_ACTIVITY[processor][busy]: the processor
# works when the host holds a VM, the other subsystems when one of its VMs
# holds a reservation.
HOST_ACTIVITY = tuple(
    tuple(Activity(processor=processor, storage=busy, memory=busy,
                   network=busy, extra=busy) for busy in (False, True))
    for processor in (False, True))


@dataclass(frozen=True)
class ComputingBreakdown:
    processor_w: float = 0.0
    storage_w: float = 0.0
    memory_w: float = 0.0
    network_w: float = 0.0
    extra_w: float = 0.0

    @property
    def watts(self):
        return _computing_w(self.processor_w, self.storage_w, self.memory_w,
                            self.network_w, self.extra_w)


@dataclass(frozen=True)
class EnergyBreakdown:
    """One host's instantaneous power, per subsystem and in total."""

    processor_w: float
    storage_w: float
    memory_w: float
    network_w: float
    extra_w: float
    computing_w: float
    cooling_w: float
    total_w: float


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


def _leaves(p, active, cores, cpu_util):
    """The five leaves of the computing half, in tree order: (processor,
    storage, memory, network, extra) watts."""
    if active.processor:
        core_w = (dynamic_power(cpu_util, p.dyn) / cores + p.short_circuit_w
                  + p.leakage_w + p.idle_w)
    else:
        core_w = p.idle_w
    # Added in a loop, as ordered_sum adds, for the same reason.
    proc = 0.0
    for _ in range(cores):
        proc += core_w

    s = p.storage
    storage = (s.read_w + s.write_w + s.idle_w) if active.storage else s.idle_w
    m = p.memory
    memory = (m.sram_w + m.dram_w) if active.memory else 0.0
    n = p.network
    network = (n.router_w + n.gateway_w + n.lan_card_w + n.switch_w) if active.network else 0.0
    e = p.extra
    extra = (e.motherboard_w + e.connector_w * e.ports) if active.extra else 0.0
    return proc, storage, memory, network, extra


def _computing_w(processor_w, storage_w, memory_w, network_w, extra_w):
    """The computing half: its five leaves added left to right."""
    return processor_w + storage_w + memory_w + network_w + extra_w


def computing_power(p, active=Activity(), cores=1, cpu_util=0.0):
    """Compose the computing half of the tree for one host.

    Args:
        p: PowerParams for the host.
        active: per-subsystem activity flags.
        cores: number of processor cores.
        cpu_util: host CPU utilization in [0, 1], drives the dynamic term.

    Returns:
        (watts, ComputingBreakdown) with the five subsystem leaves.
    """
    breakdown = ComputingBreakdown(*_leaves(p, active, cores, cpu_util))
    return breakdown.watts, breakdown


def cooling_power(ac_w, compressor_w, fan_w):
    """Cooling draw: air conditioning + compressor + fans."""
    if ac_w < 0 or compressor_w < 0 or fan_w < 0:
        for name, value in (("ac_w", ac_w), ("compressor_w", compressor_w),
                            ("fan_w", fan_w)):
            if value < 0:
                raise DomainError(f"{name} must be >= 0")
    return ac_w + compressor_w + fan_w


def total_power(computing, cooling_w):
    """Assemble the full EnergyBreakdown from a ComputingBreakdown and the
    cooling draw."""
    if cooling_w < 0:
        raise DomainError("cooling_w must be >= 0")
    watts = computing.watts
    return EnergyBreakdown(
        processor_w=computing.processor_w,
        storage_w=computing.storage_w,
        memory_w=computing.memory_w,
        network_w=computing.network_w,
        extra_w=computing.extra_w,
        computing_w=watts,
        cooling_w=cooling_w,
        total_w=watts + cooling_w,
    )


def host_power(p, active=Activity(), cores=1, cpu_util=0.0):
    """One host's total draw in watts, as a float: the whole tree, with no
    breakdown object. Equal, bit for bit, to the ``total_w`` of
    ``total_power`` over ``computing_power`` and ``cooling_power``."""
    c = p.cooling
    return (_computing_w(*_leaves(p, active, cores, cpu_util))
            + cooling_power(c.ac_w, c.compressor_w, c.fan_w))
