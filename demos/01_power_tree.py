"""Walk through the host power model, leaf by leaf.

A host's draw is a seven-leaf tree: processor, storage, memory, network
and extras make up the computing half; air conditioning, compressor and
fans make up the cooling half. `computing_power` and `total_power` give
the draw leaf by leaf; `host_power`, which the simulation engine calls,
gives the same total as one float.
"""

import numpy as np

from dctherm import energy

params = energy.PowerParams()

print("== dynamic processor draw vs utilization ==")
for u in (0.0, 0.25, 0.5, 0.75, 1.0):
    watts = energy.dynamic_power(u, params.dyn)
    print(f"  u = {u:4.2f}  ->  {watts:7.2f} W "
          f"(avg of linear C*V^2*f and nonlinear mu1*u + mu2*u^2)")

print("\n== full tree for a busy 4-core host at 60% utilization ==")
_, parts = energy.computing_power(params, cores=4, cpu_util=0.6)
cooling = params.cooling
breakdown = energy.total_power(parts, energy.cooling_power(
    cooling.ac_w, cooling.compressor_w, cooling.fan_w))
for name in ("processor_w", "storage_w", "memory_w", "network_w", "extra_w"):
    print(f"  {name:12s} {getattr(breakdown, name):8.2f} W")
print(f"  {'computing_w':12s} {breakdown.computing_w:8.2f} W")
print(f"  {'cooling_w':12s} {breakdown.cooling_w:8.2f} W")
print(f"  {'total_w':12s} {breakdown.total_w:8.2f} W")
total_w = energy.host_power(params, cores=4, cpu_util=0.6)
print(f"  host_power gives the same total as one float: {total_w:.2f} W "
      f"(equal bit for bit: {total_w == breakdown.total_w})")

print("\n== idle subsystems keep only their idle draw ==")
idle = energy.Activity(processor=False, storage=False, memory=False,
                       network=False, extra=False)
watts, parts = energy.computing_power(params, idle, cores=4)
print(f"  idle computing draw: {watts:.2f} W "
      f"(processor {parts.processor_w:.0f} W + storage {parts.storage_w:.0f} W)")

print("\n== additivity holds to 1e-9 over random parameter vectors ==")
rng = np.random.default_rng(1)
worst = 0.0
for _ in range(1000):
    vals = rng.uniform(0, 500, 6)
    b = energy.total_power(energy.ComputingBreakdown(*vals[:5]), vals[5])
    leaves = (b.processor_w + b.storage_w + b.memory_w + b.network_w
              + b.extra_w + b.cooling_w)
    worst = max(worst, abs(b.total_w - leaves) / max(1.0, b.total_w))
print(f"  worst relative defect over 1000 draws: {worst:.2e}")
