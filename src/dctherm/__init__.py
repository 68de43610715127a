"""dctherm: thermal-aware datacenter resource-management simulator.

A numpy library with four parts: a component-tree power model, a greedy
task mapper that sorts per-VM reservation percents against per-task demand
estimates (no standalone utilization metrics), a first-order CPU
temperature model with hot/warm/cold VM scheduling, and a gated-recurrent
temperature predictor trained on (or synthesizing) server telemetry. A
discrete-event engine ties them together and emits QoS reports (energy,
SLA violation rate, migrations, temperature).

Importing the package loads none of its modules; import the ones you use.
"""

__version__ = "0.1.0"
