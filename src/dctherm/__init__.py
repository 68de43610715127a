"""dctherm: thermal-aware datacenter resource-management simulator.

A numpy library with four parts: a component-tree power model, a greedy
task mapper that sorts per-VM reservation percents against per-task demand
estimates (no standalone utilization metrics), a first-order CPU
temperature model with hot/warm/cold VM scheduling, and a gated-recurrent
temperature predictor trained on (or synthesizing) server telemetry. A
discrete-event engine ties them together and emits QoS reports (energy,
SLA violation rate, migrations, temperature).
"""

from .energy import (Activity, ComputingBreakdown, DynamicEnergyParams,
                     EnergyBreakdown, PowerParams, computing_power,
                     cooling_power, dynamic_power, host_power,
                     total_power)
from .engine import (SimulationReport, SimulationState, check_sla,
                     migration_downtime, run, run_once, step)
from .gru import FeatureNorm, GruLayer, GruModel
from .model import (DataCenterConfig, HostSpec, HostState,
                    UtilizationSnapshot, VmSpec, VmState, Workload,
                    WorkloadGenConfig, config_digest, config_from_dict,
                    config_to_dict, default_datacenter, load_config,
                    save_config, validate_config)
from .predictor import (FanModel, TelemetryRecord, TrainReport,
                        TrainSettings, fan_rpm, fan_rpm_band, load_model,
                        prediction_accuracy, sample_fan_speeds, save_model,
                        sliding_windows, synthesize_telemetry,
                        train_predictor)
from .scheduler import (PlacementAction, Snapshot, classify_and_enqueue,
                        registered_policies, run_policy, schedule_round)
from .thermal import (ThermalClass, ThermalParams, VmThresholds, classify_vm,
                      cpu_temperature, vm_delta_temperature, vm_thresholds)
from .traceio import (UtilizationTrace, generate_workloads,
                      load_planetlab_trace, load_telemetry_csv,
                      poisson_arrivals, write_report)
from .utilization import Assignment, map_workloads, utilization_sort

__version__ = "0.1.0"
