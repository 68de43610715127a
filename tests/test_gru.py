import gc
import warnings
import weakref

import numpy as np
import pytest

from dctherm import predictor
from dctherm.errors import DimensionMismatch
from dctherm.gru import (PARAM_NAMES, FeatureNorm, GruLayer, GruModel,
                         Workspace, gate_views, orthogonal_matrix, sigmoid)

from oracles import (ReferenceGruLayer, analytic_gradients,
                     finite_difference_gradients, reference_sigmoid)

UNIT_NORM = FeatureNorm(np.zeros(3), np.ones(3), 0.0, 1.0)
UNIT_NORM_9 = FeatureNorm(np.zeros(9), np.ones(9), 0.0, 1.0)


def test_zero_network_outputs_its_bias():
    norm = FeatureNorm(np.zeros(3), np.ones(3), 10.0, 60.0)
    model = GruModel.create(3, (4, 4), norm, zero=True)
    model.b_out = 0.2
    xs = np.zeros((5, 1, 3))
    assert model.forward_normalized(xs)[0] == pytest.approx(0.2)
    # de-normalized: 10 + 0.2 * 50
    assert model.predict_sequence(np.zeros((5, 3))) == pytest.approx(20.0)


def test_zero_weights_hidden_state_halves_each_step():
    layer = GruLayer(3, 2)
    h0 = np.array([[0.8, -0.4]])
    for t in range(1, 21):
        hs, _ = layer.forward(np.zeros((t, 1, 3)), h0=h0)
        np.testing.assert_allclose(hs[-1], 0.5 ** t * h0, atol=1e-12, rtol=0)


def test_gradient_check_two_layer_two_unit():
    model = GruModel.create(3, (2, 2), UNIT_NORM, seed=123)
    xs = np.random.default_rng(7).uniform(0, 1, (5, 2, 3))
    ana = analytic_gradients(model, xs)
    fd = finite_difference_gradients(model, xs, step=1e-5)
    assert set(ana) == set(fd)
    for name in ana:
        a = np.atleast_1d(np.asarray(ana[name], dtype=float))
        f = np.atleast_1d(np.asarray(fd[name], dtype=float))
        rel = np.abs(a - f) / np.maximum(1e-8, np.abs(a) + np.abs(f))
        assert rel.max() <= 1e-4, f"{name}: rel err {rel.max():.2e}"


def test_normalization_round_trip():
    rng = np.random.default_rng(3)
    features = rng.uniform(-5, 50, (40, 6))
    targets = rng.uniform(10, 90, 40)
    norm = FeatureNorm.fit(features, targets)
    back = norm.denormalize_target(norm.normalize_target(targets))
    np.testing.assert_allclose(back, targets, rtol=0, atol=1e-9)
    xn = norm.normalize_features(features)
    assert xn.min() >= -1e-12 and xn.max() <= 1 + 1e-12


def test_normalization_handles_constant_feature():
    features = np.ones((10, 2)) * 7.0
    norm = FeatureNorm.fit(features, np.ones(10))
    out = norm.normalize_features(features)
    assert np.all(np.isfinite(out))


def test_inference_ignores_sample_order():
    model = GruModel.create(4, (3, 3), FeatureNorm(np.zeros(4), np.ones(4), 0, 1),
                            seed=5)
    rng = np.random.default_rng(11)
    batch = rng.uniform(0, 1, (7, 6, 4))   # (n, T, features)
    preds = model.predict_batch(batch)
    perm = rng.permutation(7)
    np.testing.assert_allclose(model.predict_batch(batch[perm]), preds[perm])


def test_dimension_mismatch_raises():
    layer = GruLayer(3, 2)
    with pytest.raises(DimensionMismatch):
        layer.forward(np.zeros((4, 1, 5)))
    with pytest.raises(DimensionMismatch):
        GruModel(layers=[GruLayer(3, 2), GruLayer(4, 2)],
                 w_out=np.zeros(2), b_out=0.0, norm=UNIT_NORM)
    model = GruModel.create(3, (2,), UNIT_NORM, zero=True)
    with pytest.raises(DimensionMismatch):
        model.predict_sequence(np.zeros(3))  # 1-d, not (steps, features)


def test_default_stack_shape():
    model = GruModel.create(9, (16, 16, 16, 16),
                            FeatureNorm(np.zeros(9), np.ones(9), 0, 1), seed=0)
    assert model.hidden_sizes == (16, 16, 16, 16)
    assert model.layers[0].input_size == 9
    assert model.w_out.shape == (16,)


@pytest.mark.parametrize("T, batch, nin, hidden, with_h0", [
    (1, 1, 1, 1, False),
    (1, 4, 3, 5, True),
    (6, 1, 2, 3, False),
    (5, 3, 7, 2, True),
    (8, 20, 9, 16, False),
    (4, 6, 4, 4, True),
])
def test_stacked_layer_matches_nine_tensor_reference(T, batch, nin, hidden,
                                                     with_h0):
    rng = np.random.default_rng(T * 100 + batch * 10 + hidden)
    layer = GruLayer(nin, hidden, rng)
    layer.b[...] = rng.uniform(-1, 1, layer.b.shape)
    ref = ReferenceGruLayer(layer)
    xs = rng.uniform(-1, 1, (T, batch, nin))
    h0 = rng.uniform(-1, 1, (batch, hidden)) if with_h0 else None
    grad_out = rng.uniform(-1, 1, (T, batch, hidden))

    hs, cache = layer.forward(xs, h0=h0)
    ref_hs, ref_cache = ref.forward(xs, h0=h0)
    np.testing.assert_allclose(hs, ref_hs, rtol=0, atol=1e-12)
    assert cache[0] is xs

    grads, grad_xs = layer.backward(cache, grad_out)
    ref_grads, ref_grad_xs = ref.backward(ref_cache, grad_out)
    assert len(grads) == len(PARAM_NAMES)
    for name, g in zip(PARAM_NAMES, grads):
        assert g.shape == ref_grads[name].shape, name
        np.testing.assert_allclose(g, ref_grads[name], rtol=0, atol=1e-12,
                                   err_msg=name)
    np.testing.assert_allclose(grad_xs, ref_grad_xs, rtol=0, atol=1e-12)

    skipped, none = layer.backward(cache, grad_out, input_grad=False)
    assert none is None
    for g, kept in zip(skipped, grads):
        np.testing.assert_array_equal(g, kept)


def test_gate_names_are_views_of_the_stacks():
    layer = GruLayer(3, 2, np.random.default_rng(0))
    for name, view in zip(PARAM_NAMES, gate_views(layer.w, layer.u, layer.b)):
        param = getattr(layer, name)
        assert np.shares_memory(param, view) and param.flags.c_contiguous
    layer.u_r += 1.0
    np.testing.assert_array_equal(layer.u[1], layer.u_r)
    assert layer.b_z.shape == (2,)
    np.testing.assert_array_equal(layer.b_z, 1.0)


def test_initialisation_keeps_the_draw_order():
    # Per gate in z, r, c order: a Glorot input matrix, then an
    # orthogonal recurrent matrix.
    nin, hidden = 4, 3
    layer = GruLayer(nin, hidden, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    bound = np.sqrt(6.0 / (nin + hidden))
    for gate in "zrc":
        np.testing.assert_array_equal(getattr(layer, f"w_{gate}"),
                                      rng.uniform(-bound, bound, (nin, hidden)))
        np.testing.assert_array_equal(getattr(layer, f"u_{gate}"),
                                      orthogonal_matrix(rng, hidden))


def test_sigmoid_saturates_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sigmoid(np.array([-800.0, 800.0, -1e308, 1e308]))
    np.testing.assert_array_equal(out, [0.0, 1.0, 0.0, 1.0])


def test_sigmoid_matches_the_piecewise_form():
    x = np.linspace(-40.0, 40.0, 4001)
    np.testing.assert_allclose(sigmoid(x), reference_sigmoid(x),
                               rtol=0, atol=1e-15)
    buf = x.copy()
    assert sigmoid(buf, out=buf) is buf
    np.testing.assert_array_equal(buf, sigmoid(x))


# ---------------------------------------------------------------------------
# The training workspace: same floats as fresh buffers, aligned, and left
# alone by inference.
# ---------------------------------------------------------------------------

def _training_inputs(total, seed):
    windows = predictor.synthesize_windows(total, seed=seed)
    x_raw, y_raw = predictor.sequences_to_arrays(windows)
    norm = FeatureNorm.fit(x_raw, y_raw)
    xs = norm.normalize_features(x_raw).transpose(1, 0, 2)
    return windows, norm, xs, norm.normalize_target(y_raw)


def _standalone_forward_backward(model, xs):
    """The model's forward and backward written out on standalone layer
    calls, each of which allocates fresh buffers."""
    caches, h = [], xs
    for layer in model.layers:
        h, cache = layer.forward(h)
        caches.append(cache)

    def backward(grad_y):
        grad_seq = np.zeros_like(h)
        grad_seq[-1] = np.outer(grad_y, model.w_out)
        grads = []
        for i in range(len(model.layers) - 1, -1, -1):
            layer_grads, grad_seq = model.layers[i].backward(
                caches[i], grad_seq, input_grad=i > 0)
            grads[:0] = layer_grads
        return grads + [h[-1].T @ grad_y, grad_y.sum()]

    return h[-1] @ model.w_out + model.b_out, backward


def _momentum_epochs(model, xs, yn, epochs, forward_backward,
                     settings=predictor.TrainSettings()):
    """train_predictor's epoch loop around ``forward_backward``; returns
    the loss history."""
    velocity = [np.zeros_like(p) if isinstance(p, np.ndarray) else 0.0
                for _, p in model.iter_params()]
    history = []
    lr, momentum = settings.learning_rate, settings.momentum
    for _ in range(epochs):
        pred, backward = forward_backward(model, xs)
        err = pred - yn
        history.append(float(np.mean(err * err)))
        grads = backward((2.0 / yn.shape[0]) * err)
        for i, (name, param) in enumerate(model.iter_params()):
            v = momentum * velocity[i] - lr * grads[i]
            velocity[i] = v
            if name == "b_out":
                model.b_out = model.b_out + v
            else:
                param += v
    return history


def _assert_same_params(a, b):
    for (name, pa), (_, pb) in zip(a.iter_params(), b.iter_params()):
        np.testing.assert_array_equal(pa, pb, err_msg=name)


@pytest.mark.parametrize("hidden", [(16, 16, 16, 16), (8, 5, 8)])
def test_training_matches_standalone_layer_calls(hidden, monkeypatch):
    windows, norm, xs, yn = _training_inputs(120, seed=4)
    settings = predictor.TrainSettings(epochs=10, hidden_sizes=hidden, seed=2)
    workspaces, reused = [], []
    forward = GruModel.forward_normalized

    def spy(self, xs, keep_cache=False):
        out = forward(self, xs, keep_cache)
        if keep_cache:
            reused.append(bool(workspaces)
                          and workspaces[0]() is self.workspace)
            workspaces.append(weakref.ref(self.workspace))
        return out

    monkeypatch.setattr(GruModel, "forward_normalized", spy)
    model, report = predictor.train_predictor(windows, settings)
    reference = GruModel.create(predictor.N_FEATURES, hidden, norm, seed=2)
    history = _momentum_epochs(reference, xs, yn, 10,
                               _standalone_forward_backward)
    assert report.loss_history == history
    _assert_same_params(model, reference)
    # One workspace served every epoch, and nothing keeps it alive once
    # training has returned.
    assert reused == [False] + [True] * 9
    gc.collect()
    assert model.workspace is None and workspaces[0]() is None


def test_workspace_buffers_start_on_a_cache_line():
    model = GruModel.create(9, (16, 16, 5), UNIT_NORM_9, seed=1)
    xs = np.random.default_rng(2).uniform(0, 1, (8, 37, 9))
    epochs = []
    for _ in range(2):
        y, cache = model.forward_normalized(xs, keep_cache=True)
        model.backward(cache, np.ones_like(y))
        epochs.append(dict(model.workspace.buffers))
    buffers = epochs[0]
    # Each layer's cache, shared scratch per width and two input-gradient
    # buffers, all made in the first epoch and kept for the second.
    keys = {key for key, _ in buffers}
    for layer in model.layers:
        assert {(layer, "hs"), (layer, "gates")} <= keys
    assert {key[1] for key in keys if key[0] == "grad_seq"} == {0, 1}
    assert epochs[1].keys() == buffers.keys()
    assert all(epochs[1][key] is buf for key, buf in buffers.items())
    for key, buf in buffers.items():
        assert buf.ctypes.data % 64 == 0, key
        assert buf.flags.c_contiguous, key


def test_inference_between_training_epochs_changes_nothing():
    _, norm, xs, yn = _training_inputs(100, seed=6)
    # 100 other windows: the training batch's shape, not its values.
    x_raw, _ = predictor.sequences_to_arrays(
        predictor.synthesize_windows(100, seed=7))
    plain = GruModel.create(9, (16, 16), norm, seed=3)
    probed = GruModel.create(9, (16, 16), norm, seed=3)
    predictions = []

    def with_inference(model, xs):
        pred, cache = model.forward_normalized(xs, keep_cache=True)
        predictions.append(model.predict_batch(x_raw))
        return pred, lambda grad_y: model.backward(cache, grad_y)

    def without(model, xs):
        pred, cache = model.forward_normalized(xs, keep_cache=True)
        return pred, lambda grad_y: model.backward(cache, grad_y)

    assert (_momentum_epochs(probed, xs, yn, 4, with_inference)
            == _momentum_epochs(plain, xs, yn, 4, without))
    _assert_same_params(probed, plain)
    # The predictions were made by the weights of their epoch.
    replay = GruModel.create(9, (16, 16), norm, seed=3)
    _momentum_epochs(replay, xs, yn, 1, without)
    np.testing.assert_array_equal(predictions[1], replay.predict_batch(x_raw))


def test_inference_keeps_no_activation_cache():
    model = GruModel.create(9, (16, 16), UNIT_NORM_9, seed=1)
    xs = np.random.default_rng(3).uniform(0, 1, (7, 50, 9))
    y = model.forward_normalized(xs)
    assert model.workspace is None
    work, h = Workspace(), xs
    for layer in model.layers:
        h, cache = layer.forward(h, work=work, keep_cache=False)
        assert cache is None
    # Only the layers' outputs span the sequence: no gate stack, no r * h.
    assert ([key for key, shape in work.buffers if shape[0] in (7, 8)]
            == [(layer, "hs") for layer in model.layers])
    y_cached, _ = model.forward_normalized(xs, keep_cache=True)
    np.testing.assert_array_equal(y, y_cached)
