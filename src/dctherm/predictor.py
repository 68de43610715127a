"""Temperature predictor: fan-speed synthesis, training and evaluation.

Telemetry rows carry five fan RPMs and four utilization percents; those
nine values are the network inputs and CPU temperature is the target. Fan
speeds follow the linear model

    rpm = alpha * avg_utilization * temp        (alpha = 1.5 RPM/C)

spread over a tolerance band

    band = alpha * (d_util * temp + avg_util * d_temp)

derived from the +-1% utilization and +-1 C temperature precisions of the
source data; per-fan readings are uniform draws inside rpm +- band/2.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .energy import DynamicEnergyParams, dynamic_power
from .errors import (DomainError, EmptyDataset, EmptyInput, InvalidConfig,
                     LengthMismatch, NonFiniteLoss, ParseError)
from .gru import FeatureNorm, GruModel
from .thermal import ThermalParams, cpu_temperature

N_FEATURES = 9
FEATURE_COLUMNS = ("f1", "f2", "f3", "f4", "f5",
                   "system_pct", "memory_pct", "cpu_pct", "io_pct")
CSV_COLUMNS = ("server_id", "timestamp") + FEATURE_COLUMNS + ("cpu_temp_c",)

MODEL_MAGIC = b"DCTHGRU1"
MODEL_VERSION = 1


@dataclass(frozen=True)
class TelemetryRecord:
    """One telemetry row: five fan RPMs, four utilizations, CPU temp."""

    server_id: str
    timestamp: str
    fan_rpm: tuple
    system_pct: float
    memory_pct: float
    cpu_pct: float
    io_pct: float
    cpu_temp_c: float

    def __post_init__(self):
        if len(self.fan_rpm) != 5:
            raise ParseError(f"expected 5 fan readings, got {len(self.fan_rpm)}")
        if any(f < 0 for f in self.fan_rpm):
            raise ParseError("fan RPM must be >= 0")
        for name in ("system_pct", "memory_pct", "cpu_pct", "io_pct"):
            if not 0.0 <= getattr(self, name) <= 100.0:
                raise ParseError(f"{name} out of [0, 100]")

    @property
    def avg_utilization(self):
        return (self.system_pct + self.memory_pct + self.cpu_pct + self.io_pct) / 4.0

    @property
    def features(self):
        return self.fan_rpm + (self.system_pct, self.memory_pct,
                               self.cpu_pct, self.io_pct)


@dataclass(frozen=True)
class FanModel:
    alpha: float = 1.5       # RPM per degree Celsius
    d_util_pct: float = 1.0  # utilization precision
    d_temp_c: float = 1.0    # temperature precision

    def __post_init__(self):
        if self.alpha <= 0:
            raise InvalidConfig("alpha", "must be > 0")
        if self.d_util_pct < 0 or self.d_temp_c < 0:
            raise InvalidConfig("precision", "must be >= 0")


def fan_rpm(avg_util_pct, temp_c, fm=FanModel()):
    """Nominal fan speed for an average utilization and CPU temperature."""
    if avg_util_pct < 0 or temp_c < 0:
        raise DomainError("utilization and temperature must be >= 0")
    return fm.alpha * avg_util_pct * temp_c


def fan_rpm_band(avg_util_pct, temp_c, fm=FanModel()):
    """Width of the fan-speed spread implied by the measurement precisions."""
    return fm.alpha * (fm.d_util_pct * temp_c + avg_util_pct * fm.d_temp_c)


def sample_fan_speeds(rpm, band, rng):
    """Five independent uniform draws in [rpm - band/2, rpm + band/2]."""
    if band < 0:
        raise DomainError("band must be >= 0")
    return rng.uniform(rpm - band / 2.0, rpm + band / 2.0, 5)


def prediction_accuracy(preds, actuals, epsilon_rel=0.05):
    """Fraction of predictions within epsilon_rel of the actual value."""
    preds = np.asarray(preds, dtype=float)
    actuals = np.asarray(actuals, dtype=float)
    if preds.shape != actuals.shape:
        raise LengthMismatch(
            f"{preds.shape[0] if preds.ndim else 0} predictions vs "
            f"{actuals.shape[0] if actuals.ndim else 0} actuals")
    if preds.size == 0:
        raise EmptyInput("no predictions to score")
    return float(np.mean(np.abs(preds - actuals) <= epsilon_rel * np.abs(actuals)))


# ---------------------------------------------------------------------------
# Synthetic telemetry: utilization random walks -> RC temperature -> fans.
# ---------------------------------------------------------------------------

def synthesize_telemetry(n_servers, records_per_server, rng,
                         thermal=ThermalParams(), dyn=DynamicEnergyParams(),
                         fan=FanModel()):
    """Generate server telemetry without a trace file.

    Per server, the four utilizations follow bounded random walks; the CPU
    temperature comes from the RC model driven by the dynamic power at the
    CPU utilization, jittered by the stated +-1 C / +-1% precisions; fans
    come from the rpm/band model.
    """
    records = []
    for s in range(n_servers):
        utils = rng.uniform(20.0, 80.0, 4)
        for t in range(records_per_server):
            utils = np.clip(utils + rng.uniform(-6.0, 6.0, 4), 0.0, 100.0)
            noisy = np.clip(utils + rng.uniform(-fan.d_util_pct, fan.d_util_pct, 4),
                            0.0, 100.0)
            power = dynamic_power(noisy[2] / 100.0, dyn)
            temp = cpu_temperature(power, thermal)
            temp += rng.uniform(-fan.d_temp_c, fan.d_temp_c)
            avg = float(np.mean(noisy))
            rpm = fan_rpm(avg, temp, fan)
            band = fan_rpm_band(avg, temp, fan)
            fans = tuple(float(f) for f in sample_fan_speeds(rpm, band, rng))
            records.append(TelemetryRecord(
                server_id=f"srv-{s}", timestamp=str(t),
                fan_rpm=fans, system_pct=float(noisy[0]),
                memory_pct=float(noisy[1]), cpu_pct=float(noisy[2]),
                io_pct=float(noisy[3]), cpu_temp_c=float(temp)))
    return records


def sliding_windows(records, window=8):
    """Group records by server (input order preserved) and cut overlapping
    windows of the given length. Each window is one training sample whose
    target is the last row's temperature."""
    by_server = {}
    for rec in records:
        by_server.setdefault(rec.server_id, []).append(rec)
    sequences = []
    for server_records in by_server.values():
        for i in range(len(server_records) - window + 1):
            sequences.append(tuple(server_records[i:i + window]))
    return sequences


def synthesize_windows(total, seed=0, window=8, n_servers=4):
    """Exactly ``total`` sliding windows of synthetic telemetry."""
    rng = np.random.default_rng([seed, 100])
    per_server = -(-total // n_servers) + window - 1
    records = synthesize_telemetry(n_servers, per_server, rng)
    return sliding_windows(records, window)[:total]


def interleaved_split(sequences, n_test):
    """Evenly spaced train/test split so both halves span every server's
    whole walk (a tail split would test on drifted data only)."""
    total = len(sequences)
    if not 0 < n_test < total:
        raise EmptyDataset(f"cannot hold out {n_test} of {total} sequences")
    stride = total // n_test
    test_idx = set(range(stride - 1, stride * n_test, stride))
    train = [s for i, s in enumerate(sequences) if i not in test_idx]
    test = [s for i, s in enumerate(sequences) if i in test_idx]
    return train, test


def sequences_to_arrays(sequences):
    """(n, T, 9) feature tensor and (n,) target vector from record windows."""
    if not sequences:
        raise EmptyDataset("no telemetry sequences")
    x = np.array([[rec.features for rec in seq] for seq in sequences], dtype=float)
    y = np.array([seq[-1].cpu_temp_c for seq in sequences], dtype=float)
    return x, y


# ---------------------------------------------------------------------------
# Training: full-batch gradient descent with momentum on normalized MSE.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainSettings:
    epochs: int = 300
    learning_rate: float = 1e-2
    momentum: float = 0.9
    hidden_sizes: tuple = (16, 16, 16, 16)
    seed: int = 0


@dataclass
class TrainReport:
    epochs_run: int
    final_train_mse: float
    test_accuracy: float
    loss_history: list = field(default_factory=list)


def train_predictor(train_sequences, settings=TrainSettings(),
                    test_sequences=None, epsilon_rel=0.05):
    """Fit the network on record windows; returns (model, report).

    Deterministic for a fixed settings.seed. test_accuracy in the report is
    measured on test_sequences when given, else on the training windows.
    """
    x_raw, y_raw = sequences_to_arrays(train_sequences)
    norm = FeatureNorm.fit(x_raw, y_raw)
    model = GruModel.create(N_FEATURES, settings.hidden_sizes, norm,
                            seed=settings.seed)
    xs = norm.normalize_features(x_raw).transpose(1, 0, 2)  # (T, n, 9)
    yn = norm.normalize_target(y_raw)
    n = yn.shape[0]

    velocity = [np.zeros_like(p) if isinstance(p, np.ndarray) else 0.0
                for _, p in model.iter_params()]
    history = []
    for epoch in range(settings.epochs):
        pred, cache = model.forward_normalized(xs, keep_cache=True)
        err = pred - yn
        loss = float(np.mean(err * err))
        if not np.isfinite(loss):
            raise NonFiniteLoss(epoch, loss)
        history.append(loss)
        grads = model.backward(cache, (2.0 / n) * err)
        del cache  # free this epoch's activations before the next forward
        for i, (name, param) in enumerate(model.iter_params()):
            v = settings.momentum * velocity[i] - settings.learning_rate * grads[i]
            velocity[i] = v
            if name == "b_out":
                model.b_out = model.b_out + v
            else:
                param += v

    if history:
        final_mse = history[-1]
    else:
        pred = model.forward_normalized(xs)
        final_mse = float(np.mean((pred - yn) ** 2))

    eval_sequences = test_sequences if test_sequences else train_sequences
    ex, ey = sequences_to_arrays(eval_sequences)
    preds = model.predict_batch(ex)
    accuracy = prediction_accuracy(preds, ey, epsilon_rel)
    report = TrainReport(epochs_run=len(history), final_train_mse=final_mse,
                         test_accuracy=accuracy, loss_history=history)
    return model, report


def predict_records(model, records, window=8):
    """Predict a temperature for every full window in a telemetry set.

    Returns (predictions, actuals) arrays aligned on windows.
    """
    sequences = sliding_windows(records, window)
    if not sequences:
        raise EmptyDataset(f"need at least {window} records per server")
    x, y = sequences_to_arrays(sequences)
    return model.predict_batch(x), y


# ---------------------------------------------------------------------------
# Model file: magic, version, dimension table, little-endian float64 blobs.
# ---------------------------------------------------------------------------

def save_model(model, path):
    dims = [model.layers[0].input_size] + [l.hidden_size for l in model.layers]
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<II", MODEL_VERSION, len(model.layers)))
        fh.write(struct.pack(f"<{len(dims)}I", *dims))
        for arr in (model.norm.feature_min, model.norm.feature_max):
            fh.write(np.asarray(arr, dtype="<f8").tobytes())
        fh.write(struct.pack("<dd", model.norm.target_min, model.norm.target_max))
        for _, param in model.iter_params():
            fh.write(np.asarray(param, dtype="<f8").tobytes())


def load_model(path):
    with open(path, "rb") as fh:
        magic = fh.read(len(MODEL_MAGIC))
        if magic != MODEL_MAGIC:
            raise ParseError("not a model file (bad magic)")
        version, n_layers = struct.unpack("<II", fh.read(8))
        if version != MODEL_VERSION:
            raise ParseError(f"unsupported model version {version}")
        dims = struct.unpack(f"<{n_layers + 1}I", fh.read(4 * (n_layers + 1)))

        def read_array(shape):
            count = int(np.prod(shape))
            data = np.frombuffer(fh.read(8 * count), dtype="<f8").astype(float)
            return data.reshape(shape)

        n_features = dims[0]
        fmin = read_array((n_features,))
        fmax = read_array((n_features,))
        tmin, tmax = struct.unpack("<dd", fh.read(16))
        norm = FeatureNorm(fmin, fmax, tmin, tmax)
        model = GruModel.create(n_features, dims[1:], norm, zero=True)
        for name, param in model.iter_params():
            if name == "b_out":
                model.b_out = float(read_array((1,))[0])
            else:
                param[...] = read_array(param.shape)
    return model
