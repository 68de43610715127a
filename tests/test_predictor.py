import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from dctherm import predictor
from dctherm.energy import DynamicEnergyParams
from dctherm.errors import (DomainError, EmptyDataset, EmptyInput,
                            LengthMismatch, ParseError)
from dctherm.predictor import (FanModel, TelemetryRecord, TrainSettings,
                               fan_rpm, fan_rpm_band, interleaved_split,
                               load_model, prediction_accuracy,
                               sample_fan_speeds, save_model, sliding_windows,
                               synthesize_telemetry, synthesize_windows,
                               train_predictor)
from dctherm.thermal import ThermalParams
from oracles import oracle_synthesize_telemetry

# The two telemetry rows used throughout: (avg utilization, temp, fans)
ROW_N1 = ((58 + 62 + 63 + 72) / 4.0, 44.0, (4214, 4289, 4230, 4264, 4263))
ROW_N2 = ((67 + 72 + 35 + 84) / 4.0, 42.0, (3979, 4046, 4085, 4060, 4033))


def test_fan_rpm_reference_rows():
    avg1, temp1, fans1 = ROW_N1
    assert avg1 == 63.75
    assert fan_rpm(avg1, temp1) == pytest.approx(4207.5)
    avg2, temp2, fans2 = ROW_N2
    assert avg2 == 64.5
    assert fan_rpm(avg2, temp2) == pytest.approx(4063.5)


def test_fan_rpm_zero_utilization():
    assert fan_rpm(0.0, 55.0) == 0.0


def test_fan_rpm_negative_rejected():
    with pytest.raises(DomainError):
        fan_rpm(-1.0, 40.0)


def test_fan_band_values():
    assert fan_rpm_band(10, 20, FanModel(d_util_pct=0, d_temp_c=0)) == 0.0
    avg1, temp1, _ = ROW_N1
    assert fan_rpm_band(avg1, temp1) == pytest.approx(161.625)
    doubled = FanModel(alpha=3.0)
    assert fan_rpm_band(avg1, temp1, doubled) \
        == pytest.approx(2 * fan_rpm_band(avg1, temp1))


def test_predicted_rpm_within_observed_band():
    for avg, temp, fans in (ROW_N1, ROW_N2):
        rpm = fan_rpm(avg, temp)
        band = fan_rpm_band(avg, temp)
        assert min(fans) - band / 2 <= rpm <= max(fans) + band / 2


def test_sample_fan_speeds():
    rng = np.random.default_rng(1)
    fans = sample_fan_speeds(4000.0, 0.0, rng.random(5))
    np.testing.assert_allclose(fans, 4000.0)
    rng = np.random.default_rng(1)
    lo, hi = 4000 - 80, 4000 + 80
    draws = np.concatenate([sample_fan_speeds(4000.0, 160.0, rng.random(5))
                            for _ in range(2000)])
    assert draws.min() >= lo and draws.max() <= hi
    a = sample_fan_speeds(100.0, 10.0, np.random.default_rng(77).random(5))
    b = sample_fan_speeds(100.0, 10.0, np.random.default_rng(77).random(5))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("rpm, band", [(4000.0, -1.0), (4000.0, math.inf),
                                       (math.inf, 10.0), (4000.0, math.nan)])
def test_sample_fan_speeds_rejects_negative_or_non_finite_band(rpm, band):
    # numpy's uniform raised OverflowError on a non-finite range.
    with pytest.raises(DomainError):
        sample_fan_speeds(rpm, band, np.random.default_rng(1).random(5))


def test_prediction_accuracy():
    vals = np.linspace(30, 60, 10)
    assert prediction_accuracy(vals, vals) == 1.0
    preds = vals.copy()
    preds[5:] *= 1.2   # push half outside 5%
    assert prediction_accuracy(preds, vals) == 0.5
    with pytest.raises(EmptyInput):
        prediction_accuracy([], [])
    with pytest.raises(LengthMismatch):
        prediction_accuracy([1.0], [1.0, 2.0])


def test_telemetry_record_validation():
    with pytest.raises(ParseError):
        TelemetryRecord("s", "0", (1, 2, 3), 10, 10, 10, 10, 40)  # 3 fans
    with pytest.raises(ParseError):
        TelemetryRecord("s", "0", (1, 2, 3, 4, 5), 150, 10, 10, 10, 40)
    rec = TelemetryRecord("s", "0", (1, 2, 3, 4, 5), 58, 62, 63, 72, 44)
    assert rec.features == (1, 2, 3, 4, 5, 58, 62, 63, 72)


@pytest.mark.parametrize("fans, temp", [
    ((1, 2, 3, 4, float("inf")), 40.0),
    ((float("-inf"), 2, 3, 4, 5), 40.0),
    ((1, 2, float("nan"), 4, 5), 40.0),
    ((1, 2, 3, 4, 5), float("nan")),
    ((1, 2, 3, 4, 5), float("1e400")),
])
def test_telemetry_record_rejects_non_finite_fans_and_temperature(fans, temp):
    with pytest.raises(ParseError, match="must be finite"):
        TelemetryRecord("s", "0", fans, 10, 10, 10, 10, temp)


def test_synthesize_deterministic():
    a = synthesize_telemetry(2, 20, np.random.default_rng(5))
    b = synthesize_telemetry(2, 20, np.random.default_rng(5))
    assert a == b
    assert len(a) == 40
    temps = [r.cpu_temp_c for r in a]
    assert all(0 < t < 120 for t in temps)


SYNTH_PARAMS = {
    "defaults": {},
    "other constants": {
        "fan": FanModel(alpha=0.25, d_util_pct=0, d_temp_c=0),
        "dyn": DynamicEnergyParams(capacitance_f=2e-9, voltage_v=1.0,
                                   frequency_hz=1.5e9, mu1=20.0, mu2=35.0),
        "thermal": ThermalParams(r_kw=0.3, c_jk=5.0, t_inlet_c=18.0,
                                 t_initial_c=30.0),
    },
}


@pytest.mark.parametrize("params", SYNTH_PARAMS.values(), ids=SYNTH_PARAMS)
def test_synthesize_telemetry_matches_per_record_oracle(params):
    # One rng.random block per server against one rng.uniform call per
    # quantity on numpy arrays: every field prints the same and the
    # generator ends in the same state.
    for seed in range(8):
        for n_servers in range(1, 6):
            for per_server in (1, 2, 3, 7, 8, 9, 17, 40):
                got_rng = np.random.default_rng(seed)
                want_rng = np.random.default_rng(seed)
                got = synthesize_telemetry(n_servers, per_server, got_rng,
                                           **params)
                want = oracle_synthesize_telemetry(n_servers, per_server,
                                                   want_rng, **params)
                assert ([repr(vars(r)) for r in got]
                        == [repr(vars(r)) for r in want]), \
                    (seed, n_servers, per_server)
                assert (got_rng.bit_generator.state
                        == want_rng.bit_generator.state)


def test_synthesize_telemetry_raises_the_oracles_domain_error():
    # An inlet this cold drives the CPU below 0 C, outside the fan model.
    cold = ThermalParams(t_inlet_c=-500.0)
    with pytest.raises(DomainError) as want:
        oracle_synthesize_telemetry(2, 5, np.random.default_rng(3), cold)
    with pytest.raises(DomainError) as got:
        synthesize_telemetry(2, 5, np.random.default_rng(3), cold)
    assert str(got.value) == str(want.value)


def test_synthesize_telemetry_non_finite_fan_band_is_a_domain_error():
    with pytest.raises(DomainError, match="not finite"):
        synthesize_telemetry(1, 3, np.random.default_rng(0),
                             fan=FanModel(alpha=1e308))


def test_sliding_windows_grouped_by_server():
    records = synthesize_telemetry(3, 12, np.random.default_rng(6))
    windows = sliding_windows(records, window=8)
    assert len(windows) == 3 * (12 - 8 + 1)
    for w in windows:
        assert len(w) == 8
        assert len({r.server_id for r in w}) == 1


def test_interleaved_split_counts():
    windows = synthesize_windows(1200, seed=1)
    train, test = interleaved_split(windows, 100)
    assert len(train) == 1100 and len(test) == 100
    with pytest.raises(EmptyDataset):
        interleaved_split(windows, 1200)


def test_zero_epochs_returns_initial_model():
    windows = synthesize_windows(30, seed=2)
    model, report = train_predictor(windows, TrainSettings(epochs=0, seed=3))
    fresh = predictor.GruModel.create(9, (16, 16, 16, 16), model.norm, seed=3)
    for (name, p1), (_, p2) in zip(model.iter_params(), fresh.iter_params()):
        np.testing.assert_array_equal(np.asarray(p1), np.asarray(p2)), name
    assert report.epochs_run == 0 and report.loss_history == []


def test_constant_target_learned_by_bias():
    rng = np.random.default_rng(8)
    records = []
    for t in range(40):
        utils = rng.uniform(20, 80, 4)
        records.append(TelemetryRecord(
            "srv", str(t), tuple(rng.uniform(3000, 5000, 5)),
            *(float(u) for u in utils), cpu_temp_c=50.0))
    windows = sliding_windows(records, window=8)
    model, report = train_predictor(
        windows, TrainSettings(epochs=200, hidden_sizes=(8, 8), seed=0))
    assert report.final_train_mse < 1e-3
    assert report.epochs_run == 200


def test_small_lr_loss_non_increasing_after_warmup():
    windows = synthesize_windows(20, seed=9)
    settings = TrainSettings(epochs=60, learning_rate=1e-3,
                             hidden_sizes=(8, 8), seed=1)
    _, report = train_predictor(windows, settings)
    diffs = np.diff(report.loss_history[5:])
    assert (diffs <= 1e-6).all()


def test_loss_history_matches_epochs():
    windows = synthesize_windows(16, seed=10)
    _, report = train_predictor(windows, TrainSettings(epochs=7,
                                                       hidden_sizes=(4,),
                                                       seed=0))
    assert report.epochs_run == 7 == len(report.loss_history)


def test_empty_dataset_raises():
    with pytest.raises(EmptyDataset):
        train_predictor([], TrainSettings(epochs=1))


def test_training_is_seed_deterministic():
    windows = synthesize_windows(24, seed=12)
    m1, r1 = train_predictor(windows, TrainSettings(epochs=5,
                                                    hidden_sizes=(6, 6),
                                                    seed=4))
    m2, r2 = train_predictor(windows, TrainSettings(epochs=5,
                                                    hidden_sizes=(6, 6),
                                                    seed=4))
    assert r1.loss_history == r2.loss_history
    for (_, p1), (_, p2) in zip(m1.iter_params(), m2.iter_params()):
        np.testing.assert_array_equal(np.asarray(p1), np.asarray(p2))


def test_model_file_round_trip(tmp_path):
    windows = synthesize_windows(16, seed=13)
    model, _ = train_predictor(windows, TrainSettings(epochs=3,
                                                      hidden_sizes=(5, 4),
                                                      seed=2))
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert [layer.hidden_size for layer in loaded.layers] \
        == [layer.hidden_size for layer in model.layers]
    for (n1, p1), (n2, p2) in zip(model.iter_params(), loaded.iter_params()):
        assert n1 == n2
        np.testing.assert_array_equal(np.asarray(p1), np.asarray(p2))
    x, _ = predictor.sequences_to_arrays(windows)
    np.testing.assert_allclose(loaded.predict_batch(x), model.predict_batch(x))


def test_model_file_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTAMODEL AT ALL")
    with pytest.raises(ParseError):
        load_model(path)


@pytest.mark.parametrize("cut", (0, 5, 12, 20, 30, 100, 1000, 1427, 1433,
                                 1435))
def test_truncated_model_file_rejected(cut, tmp_path):
    # 1436 bytes: magic 8, version and layer count 8, dims 12, norm 160,
    # layer weights 1224, w_out 16, b_out 8; the cuts end inside each part.
    blob = (Path(__file__).parent / "data" / "model_v1.bin").read_bytes()
    path = tmp_path / "cut.bin"
    path.write_bytes(blob[:cut])
    with pytest.raises(ParseError):
        load_model(path)


def test_trailing_bytes_after_model_rejected(tmp_path):
    blob = (Path(__file__).parent / "data" / "model_v1.bin").read_bytes()
    path = tmp_path / "long.bin"
    path.write_bytes(blob + b"\0")
    with pytest.raises(ParseError):
        load_model(path)


@pytest.mark.parametrize("header,match", [
    # Once an IndexError when the empty layer stack was built.
    ((1, 0, 9), "no layers"),
    # 184 bytes claiming one 9 -> 20000 layer: building that model would
    # allocate 8.94 GiB for u alone before the reads ran out of bytes.
    ((1, 1, 9, 20000), "truncated"),
], ids=["no-layers", "huge-layer"])
def test_bad_dimension_table_rejected_before_a_model_is_built(
        header, match, tmp_path, monkeypatch):
    def no_model(*args, **kwargs):
        raise AssertionError("model built before the file length was checked")

    monkeypatch.setattr(predictor.GruModel, "create", no_model)
    path = tmp_path / "bad.bin"
    path.write_bytes(predictor.MODEL_MAGIC
                     + struct.pack(f"<{len(header)}I", *header) + bytes(160))
    with pytest.raises(ParseError, match=match):
        load_model(path)


def test_version_1_model_file_still_loads(tmp_path):
    # model_v1.bin was written by the nine-tensor layer's save_model:
    # GruModel.create(9, (3, 2), norm, seed=11) with b_out = 0.25. The
    # JSON holds four raw (8, 9) windows and that model's predictions.
    data = Path(__file__).parent / "data"
    expected = json.loads((data / "model_v1_expected.json").read_text())
    assert predictor.MODEL_VERSION == 1
    model = load_model(data / "model_v1.bin")
    assert model.layers[0].input_size == 9
    assert [layer.hidden_size for layer in model.layers] == [3, 2]
    assert model.b_out == 0.25
    preds = model.predict_batch(np.array(expected["features"]))
    np.testing.assert_array_equal(preds, expected["predictions"])
    path = tmp_path / "resaved.bin"
    save_model(model, path)
    assert path.read_bytes() == (data / "model_v1.bin").read_bytes()
