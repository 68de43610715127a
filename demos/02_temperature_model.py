"""The first-order CPU temperature model and the VM thermal classes.

Shows both formula modes, the class cutoffs derived from the
79/70/29 C constants, and how a VM's predicted temperature change sorts
it into hot / warm / cold.
"""

from dctherm import thermal

tp = thermal.ThermalParams()
print("== host thermal constants ==")
print(f"  R = {tp.r_kw} K/W, C = {tp.c_jk} J/K, inlet {tp.t_inlet_c} C, "
      f"initial {tp.t_initial_c} C")
print(f"  T_over {tp.t_over_c} / T_danger {tp.t_danger_c} / "
      f"T_normal {tp.t_normal_c} C")

print("\n== literal mode (fixed decay exponent) vs time-dependent mode ==")
for p in (10.0, 50.0, 90.0):
    literal = thermal.cpu_temperature(p, tp, "literal")
    settled = thermal.cpu_temperature(p, tp, "time-dependent", dt_s=1e9)
    print(f"  P = {p:5.1f} W  literal {literal:6.2f} C   "
          f"steady state {settled:6.2f} C")

print("\n== time-dependent mode relaxes toward the steady state ==")
slow = thermal.ThermalParams(c_jk=600.0)   # RC = 300 s
for dt in (60, 300, 900, 3600):
    t = thermal.cpu_temperature(50.0, slow, "time-dependent", dt_s=dt)
    print(f"  dt = {dt:5d} s -> {t:6.2f} C")

print("\n== VM class cutoffs from the threshold difference formulas ==")
th = thermal.vm_thresholds(tp)
print(f"  raw pair: high {th.raw_high_c} C, low {th.raw_low_c} C")
print(f"  normalized: [{th.theta_low_c}, {th.theta_high_c}]")
print("  (the raw low sits below any reachable delta-T, so configs may "
      "override the cutoffs; see ThermalParams.theta_vl_c / theta_vh_c)")

print("\n== classifying VMs by their predicted temperature change ==")
for vm_power in (0.5, 4.0, 12.0, 30.0):
    delta = thermal.vm_delta_temperature(vm_power, tp)
    klass = thermal.classify_vm(delta, thermal.VmThresholds(1.0, 5.0))
    print(f"  VM adding {vm_power:5.1f} W -> delta-T {delta:5.2f} C -> "
          f"{klass.value}")
