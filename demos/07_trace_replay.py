"""Replay per-VM CPU utilization traces through the simulator.

Trace files are one integer percent per line at 300-second spacing (the
standard archive format for per-VM monitoring dumps). Each VM is mapped to
one file; the replayed utilization drives the energy and thermal models
instead of the reservation-based estimate.
"""

import os
import tempfile

import numpy as np

from dctherm import engine, traceio
from dctherm.model import default_datacenter

trace_dir = tempfile.mkdtemp(prefix="dctherm_traces_")
rng = np.random.default_rng(3)
for i in range(6):
    base = rng.integers(10, 60)
    wave = np.clip(base + 30 * np.sin(np.arange(288) / 20.0 + i)
                   + rng.normal(0, 5, 288), 0, 100).astype(int)
    with open(os.path.join(trace_dir, f"vm_{i:02d}.trace"), "w") as fh:
        fh.write("\n".join(str(v) for v in wave))

one = traceio.load_planetlab_trace(os.path.join(trace_dir, "vm_00.trace"))
print(f"loaded {one.vm_label}: {len(one.samples)} samples covering "
      f"{len(one.samples) * one.spacing_s / 3600:.0f} h, "
      f"head {one.samples[:6]}")

cfg = default_datacenter(seed=5, horizon_s=86400, trace_dir=trace_dir)
report = engine.run_once(cfg)
idle = engine.run_once(default_datacenter(seed=5, horizon_s=86400))

print(f"\n24 h replay across {len(cfg.vms)} VMs (files cycle when fewer):")
print(f"  energy with traces : {report.total_energy_kwh:8.3f} kWh")
print(f"  energy if idle     : {idle.total_energy_kwh:8.3f} kWh")
print(f"  temperature mean   : {report.temp_mean_c:6.2f} C "
      f"(max {report.temp_max_c:.2f} C)")
