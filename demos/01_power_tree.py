"""Walk through the host power model, leaf by leaf.

A host's draw is a seven-leaf tree: processor, storage, memory, network
and extras make up the computing half; air conditioning, compressor and
fans make up the cooling half. `leaves` gives the computing half leaf by
leaf and `cooling_power` the cooling half; `host_power`, which the
simulation engine calls, adds them into one float.
"""

import numpy as np

from dctherm import energy

LEAF_NAMES = ("processor_w", "storage_w", "memory_w", "network_w", "extra_w")

params = energy.PowerParams()
cooling = params.cooling
cooling_w = energy.cooling_power(cooling.ac_w, cooling.compressor_w,
                                 cooling.fan_w)

print("== dynamic processor draw vs utilization ==")
for u in (0.0, 0.25, 0.5, 0.75, 1.0):
    watts = energy.dynamic_power(u, params.dyn)
    print(f"  u = {u:4.2f}  ->  {watts:7.2f} W "
          f"(avg of linear C*V^2*f and nonlinear mu1*u + mu2*u^2)")

print("\n== full tree for a busy 4-core host at 60% utilization ==")
dynamic_w = energy.dynamic_power(0.6, params.dyn)
parts = energy.leaves(params, True, True, 4, dynamic_w)
for name, watts in zip(LEAF_NAMES, parts):
    print(f"  {name:12s} {watts:8.2f} W")
computing_w = energy.ordered_sum(parts)
print(f"  {'computing_w':12s} {computing_w:8.2f} W")
print(f"  {'cooling_w':12s} {cooling_w:8.2f} W")
print(f"  {'total_w':12s} {computing_w + cooling_w:8.2f} W")
total_w = energy.host_power(params, True, True, 4, dynamic_w)
print(f"  host_power gives the same total as one float: {total_w:.2f} W "
      f"(equal bit for bit: {total_w == computing_w + cooling_w})")

print("\n== idle subsystems keep only their idle draw ==")
parts = energy.leaves(params, False, False, 4, energy.dynamic_power(
    0.0, params.dyn))
print(f"  idle computing draw: {energy.ordered_sum(parts):.2f} W "
      f"(processor {parts[0]:.0f} W + storage {parts[1]:.0f} W)")

print("\n== additivity holds to 1e-9 over random parameter sets ==")
rng = np.random.default_rng(1)
worst = 0.0
for _ in range(1000):
    vals = rng.uniform(0, 500, 15)
    p = energy.PowerParams(
        short_circuit_w=vals[0], leakage_w=vals[1], idle_w=vals[2],
        storage=energy.StoragePower(*vals[3:6]),
        memory=energy.MemoryPower(*vals[6:8]),
        network=energy.NetworkPower(*vals[8:12]),
        cooling=energy.CoolingPower(*vals[12:15]))
    dynamic_w = energy.dynamic_power(float(rng.random()), p.dyn)
    total = energy.host_power(p, True, True, 4, dynamic_w)
    c = p.cooling
    leaf_sum = (sum(energy.leaves(p, True, True, 4, dynamic_w))
                + energy.cooling_power(c.ac_w, c.compressor_w, c.fan_w))
    worst = max(worst, abs(total - leaf_sum) / max(1.0, total))
print(f"  worst relative defect over 1000 draws: {worst:.2e}")
