"""Train the recurrent temperature predictor on synthetic telemetry.

Telemetry rows pair five fan RPMs and four utilization percents with the
CPU temperature; fan speeds follow the rpm = 1.5 * avg_util * temp model
spread by the measurement-precision band. The network learns to invert
that relationship. A short run for demonstration; the full protocol
(1100/100 windows, 2000 epochs) lives in tests/test_acceptance.py.
"""

import os
import tempfile

import numpy as np

from dctherm import predictor

print("== fan model on one telemetry row ==")
avg, temp = 63.75, 44.0
print(f"  avg utilization {avg}%, temp {temp} C")
print(f"  nominal rpm  : {predictor.fan_rpm(avg, temp):.1f}")
print(f"  spread (band): {predictor.fan_rpm_band(avg, temp):.3f}")
fans = predictor.sample_fan_speeds(predictor.fan_rpm(avg, temp),
                                   predictor.fan_rpm_band(avg, temp),
                                   np.random.default_rng(0))
print(f"  sampled fans : {np.round(fans, 1)}")

print("\n== synthesize windows and train (small, fast settings) ==")
windows = predictor.synthesize_windows(360, seed=7)
train, test = predictor.interleaved_split(windows, 30)
settings = predictor.TrainSettings(epochs=400, hidden_sizes=(12, 12), seed=0)
model, report = predictor.train_predictor(train, settings,
                                          test_sequences=test)
print(f"  trained {report.epochs_run} epochs, "
      f"final mse {report.final_train_mse:.5f}")
print(f"  held-out accuracy at 5% tolerance: {report.test_accuracy:.2%}")

print("\n== predictions vs actual temperatures (first 8 test windows) ==")
x, y = predictor.sequences_to_arrays(test)
preds = model.predict_batch(x)
for p, a in list(zip(preds, y))[:8]:
    print(f"  predicted {p:6.2f} C   actual {a:6.2f} C   "
          f"error {abs(p - a):4.2f} C")

print("\n== weights round-trip through the binary model file ==")
model_path = os.path.join(tempfile.mkdtemp(prefix="dctherm_model_"), "model.bin")
predictor.save_model(model, model_path)
loaded = predictor.load_model(model_path)
again = loaded.predict_batch(x)
print(f"  max difference after reload: {np.abs(again - preds).max():.2e}")
