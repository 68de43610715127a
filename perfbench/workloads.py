"""The four benchmark workloads and the inputs each builds from a seed.

Simulation workloads produce a config dict that the repeat process writes
to JSON and loads with ``dctherm.load_config``; the seed enters only as the
config's ``seed`` (arrival and task draws), so the fleet layout is fixed.
The training workload's seed selects the synthetic telemetry windows.

Why each workload exists (see README.md for the metric map):

- fleet: the paper-default steady state, the acceptance fleet of 60 hosts
  and 360 unplaced VMs, for 144 of its 576 steps. Time goes to the per-VM
  refresh in engine.step; the scheduler runs once (initial placement).
- overload: 2 hosts and 4 VMs at 100 arrivals per interval. The pending
  backlog grows every step, so task mapping (task_views, sort, first-fit)
  dominates and step cost grows with the step index.
- churn: hosts with low thermal limits, so overheat evictions and
  migrations happen on almost every step. The only workload where the
  thermal scheduler does real work.
- train: the GRU predictor on the 1100/100 window protocol. The only
  workload that runs the GRU layers.
"""

SIMULATIONS = ("fleet", "overload", "churn")
NAMES = SIMULATIONS + ("train",)
# The workloads BENCHMARK.json lists. overload runs by hand only: its
# per-step cost grows with the backlog, and on a shared 2-CPU host its
# timings spread past the largest bound the benchmark may set.
GATED = ("fleet", "churn", "train")

INTERVAL_S = 300
FLEET_HOSTS, FLEET_VMS = 60, 360
# 12 simulated hours at the acceptance fleet's arrival rate (3000 tasks in
# 576 steps). The acceptance fleet's full 576 steps make a repeat take
# about 3 s, too few repeats in a run for the fastest-of estimator
# (README.md, "Environment and noise").
FLEET_STEPS = 144
FLEET_TASKS = 3000 * FLEET_STEPS // 576
OVERLOAD_STEPS = 100
CHURN_HOSTS, CHURN_VMS_PER_HOST = 10, 12
CHURN_STEPS = 200
CHURN_THERMAL = {"t_over_c": 48.0, "t_danger_c": 45.0, "t_normal_c": 29.0,
                 "theta_cl_c": 29.0, "theta_ch_c": 45.0,
                 "theta_vl_c": 1.0, "theta_vh_c": 3.0}

TRAIN_WINDOWS = 1200
TRAIN_HELD_OUT = 100
TRAIN_EPOCHS = 100
TRAIN_HIDDEN = (16, 16, 16, 16)
TRAIN_INIT_SEED = 0


def simulation_config(name, seed):
    """Config dict (the JSON a user would pass to ``dctherm simulate``)."""
    if name == "fleet":
        return {
            "seed": seed, "interval_s": INTERVAL_S,
            "horizon_s": FLEET_STEPS * INTERVAL_S,
            "policy": "thermal+utilization",
            "hosts": [{"id": f"pm-{i:02d}"} for i in range(FLEET_HOSTS)],
            "vms": [{"id": f"vm-{i:03d}"} for i in range(FLEET_VMS)],
            "workload": {"count": FLEET_TASKS},
        }
    if name == "overload":
        # default_datacenter(n_hosts=2, n_vms=4): VMs round-robin on hosts.
        return {
            "seed": seed, "interval_s": INTERVAL_S,
            "horizon_s": OVERLOAD_STEPS * INTERVAL_S,
            "policy": "thermal",
            "hosts": [{"id": f"pm-{i}"} for i in range(2)],
            "vms": [{"id": f"vm-{i}", "host_id": f"pm-{i % 2}"}
                    for i in range(4)],
            "workload": {"lambda_per_interval": 100.0},
        }
    if name == "churn":
        n_vms = CHURN_HOSTS * CHURN_VMS_PER_HOST
        return {
            "seed": seed, "interval_s": INTERVAL_S,
            "horizon_s": CHURN_STEPS * INTERVAL_S,
            "policy": "thermal", "thermal_mode": "literal",
            "hosts": [{"id": f"pm-{i}", "thermal": dict(CHURN_THERMAL)}
                      for i in range(CHURN_HOSTS)],
            "vms": [{"id": f"vm-{i:03d}", "mips": 500.0, "ram_mb": 512.0,
                     "host_id": f"pm-{i % CHURN_HOSTS}"}
                    for i in range(n_vms)],
            "workload": {"lambda_per_interval": 100.0},
        }
    raise ValueError(f"not a simulation workload: {name!r}")


def steps(name):
    return {"fleet": FLEET_STEPS, "overload": OVERLOAD_STEPS,
            "churn": CHURN_STEPS, "train": TRAIN_EPOCHS}[name]
