"""Gated recurrent temperature network, implemented directly on numpy.

A stack of gated recurrent layers feeds an affine head that maps the last
hidden state to one normalized output. Conventions (row vectors, batch
first in each timestep slice):

    z = sigmoid(x W_z + h U_z + b_z)          update gate
    r = sigmoid(x W_r + h U_r + b_r)          reset gate
    c = tanh(x W_c + (r * h) U_c + b_c)       candidate state
    h' = (1 - z) * h + z * c

With all weights zero both gates are 0.5 and the candidate is 0, so the
hidden state halves every step - a closed form the tests lean on.

Each layer stores its weights gate-stacked on a leading axis, in z, r, c
order: ``w`` is (3, in, H), ``u`` is (3, H, H) and ``b`` is (3, 1, H). The
nine names of PARAM_NAMES (``w_z = w[0]``, ``b_z = b[0, 0]``, ...) are
contiguous views into those stacks, so parameter iteration and the model
file see nine separate tensors. One timestep is a stacked ``x @ w`` for
all three gates, one ``h @ u[:2]`` for z and r, and a single sigmoid over
the z|r block; every intermediate is written with ``out=`` into the
buffers of a Workspace, so the time loop allocates nothing.

A Workspace hands out float64 buffers that each start on a 64-byte cache
line (numpy alone aligns to 16 bytes, and an elementwise pass over a
misaligned slab runs up to twice as slow, so timings would follow the heap
layout). The model keeps one training workspace per (T, batch) shape,
made on the first training forward and reused by every epoch: each layer's
activation cache (``hs`` and the (T, 3, batch, H) gate stack), one set of
forward and one of backward step scratch shared by the layers of each
width, and two input-gradient buffers that alternate between layers in
backward. A forward without a cache (inference) runs in fresh buffers,
writes one (3, batch, H) gate buffer in place of the gate stack, and
leaves the training workspace alone.

The gate nonlinearity is ``1 / (1 + exp(-x))`` evaluated in place. For
x below about -709 ``exp(-x)`` overflows to inf and the result is exactly
0.0; that overflow is expected and silenced.

The backward pass is a hand-derived backpropagation through time that
returns a gradient for every weight tensor; the tests check it against
central finite differences and against a nine-tensor reference layer. It
recomputes ``r * h`` from the cached gates instead of caching it, and
multiplies by contiguous copies of the transposed weights.
"""

import math

import numpy as np

from .errors import DimensionMismatch

PARAM_NAMES = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_c", "u_c", "b_c")
CACHE_LINE = 64     # bytes


def sigmoid(x, out=None):
    """Logistic function; with ``out=x`` it overwrites its input."""
    with np.errstate(over="ignore"):
        out = np.negative(x, out=out)
        np.exp(out, out=out)
        out += 1.0
        return np.reciprocal(out, out=out)


def aligned_empty(shape):
    """Uninitialised float64 array whose data starts on a cache line."""
    size = math.prod(shape)
    raw = np.empty(size + CACHE_LINE // 8 - 1)
    start = -raw.ctypes.data % CACHE_LINE // 8
    return raw[start:start + size].reshape(shape)


class Workspace:
    """Cache-line-aligned float64 buffers, each allocated on first use.

    ``get(key, shape)`` returns the buffer kept under ``(key, shape)``.
    Activation caches are keyed by their layer, step scratch by its role
    only, so all layers of one width share the scratch. ``shape`` is the
    (T, batch) a training workspace was made for.
    """

    def __init__(self, shape=None):
        self.shape = shape
        self.buffers = {}

    def get(self, key, shape):
        buf = self.buffers.get((key, shape))
        if buf is None:
            buf = self.buffers[key, shape] = aligned_empty(shape)
        return buf


def orthogonal_matrix(rng, n):
    """Random orthogonal matrix with a pinned sign convention."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def gate_views(w, u, b):
    """The nine per-gate tensors of a stacked (w, u, b), in PARAM_NAMES
    order."""
    return (w[0], u[0], b[0, 0], w[1], u[1], b[1, 0], w[2], u[2], b[2, 0])


class GruLayer:
    """One gated recurrent layer: gate-stacked weights with the nine
    per-gate tensors exposed as views."""

    def __init__(self, input_size, hidden_size, rng=None):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w = np.zeros((3, input_size, hidden_size))
        self.u = np.zeros((3, hidden_size, hidden_size))
        self.b = np.zeros((3, 1, hidden_size))
        if rng is not None:
            # Glorot input weights, orthogonal recurrent weights, and the
            # update gate biased open (+1) so depth does not mute signal
            # early in training. Draw order: w_z, u_z, w_r, u_r, w_c, u_c.
            bound_in = np.sqrt(6.0 / (input_size + hidden_size))
            for k in range(3):
                self.w[k] = rng.uniform(-bound_in, bound_in,
                                        (input_size, hidden_size))
                self.u[k] = orthogonal_matrix(rng, hidden_size)
            self.b[0] = 1.0
        for name, view in zip(PARAM_NAMES, gate_views(self.w, self.u, self.b)):
            setattr(self, name, view)

    def forward(self, xs, h0=None, work=None, keep_cache=True):
        """Run the recurrence over a (T, batch, input) sequence.

        Returns the (T, batch, hidden) outputs and a cache for backward, or
        None for the cache when ``keep_cache`` is false. Buffers come from
        ``work`` (a fresh Workspace when None); the outputs and the cache
        hold until ``work`` runs this layer again.
        """
        T, batch, nin = xs.shape
        if nin != self.input_size:
            raise DimensionMismatch(
                f"layer expects {self.input_size} inputs, got {nin}")
        H = self.hidden_size
        w, u = self.w, self.u
        if work is None:
            work = Workspace()
        hs = work.get((self, "hs"), (T + 1, batch, H))
        hs[0] = 0.0 if h0 is None else h0
        # z, r, c per step; without a cache one buffer serves every step
        gates = gate = None
        if keep_cache:
            gates = work.get((self, "gates"), (T, 3, batch, H))
        else:
            gate = work.get("gate", (3, batch, H))
        a = work.get("a", (3, batch, H))          # gate pre-activations
        a_zr = a[:2]
        bias = work.get("bias", (3, batch, H))
        bias[...] = self.b
        uh = work.get("uh", (2, batch, H))
        s = work.get("s", (batch, H))             # r * h
        tmp = work.get("tmp", (batch, H))
        for t in range(T):
            h = hs[t]
            zrc = gate if gates is None else gates[t]
            z_r, c = zrc[:2], zrc[2]
            np.matmul(xs[t], w, out=a)
            np.matmul(h, u[:2], out=uh)
            a_zr += uh
            a_zr += bias[:2]
            sigmoid(a_zr, out=z_r)
            z, r = z_r
            np.multiply(r, h, out=s)
            np.matmul(s, u[2], out=tmp)
            a[2] += tmp
            a[2] += bias[2]
            np.tanh(a[2], out=c)
            h_next = hs[t + 1]
            np.subtract(1.0, z, out=tmp)
            np.multiply(tmp, h, out=h_next)
            np.multiply(z, c, out=tmp)
            h_next += tmp
        return hs[1:], (xs, hs, gates, work) if keep_cache else None

    def backward(self, cache, grad_out, input_grad=True, out=None):
        """Backpropagate (T, batch, hidden) output gradients through time.

        Returns (the nine parameter gradients in PARAM_NAMES order,
        input-sequence gradients); the latter is None when ``input_grad``
        is false, as for the first layer, whose inputs are data. They are
        written to ``out`` when given, else to a fresh array. Scratch comes
        from the workspace of the forward that made ``cache``.
        """
        xs, hs, gates, work = cache
        T, batch, nin = xs.shape
        H = self.hidden_size
        # Products against contiguous transposes run about twice as fast
        # as against transposed views, with the same sums.
        u_t = work.get("u_t", (3, H, H))
        u_t[...] = self.u.transpose(0, 2, 1)
        gw = np.zeros_like(self.w)
        gu = np.zeros_like(self.u)
        gb = np.zeros_like(self.b)
        gw_step = work.get("gw_step", gw.shape)
        gu_step = work.get("gu_step", gu.shape)
        gb_step = work.get("gb_step", gb.shape)
        ones = np.ones((1, batch))
        ga = work.get("ga", (3, batch, H))    # gate pre-activation gradients
        ga_z, ga_r, ga_c = ga
        ga_zr = ga[:2]
        g = work.get("g", (batch, H))
        gs = work.get("gs", (batch, H))
        gh = work.get("gh", (batch, H))
        gh[...] = 0.0
        uh = work.get("uh", (2, batch, H))
        s = work.get("s", (batch, H))             # r * h, recomputed
        tmp = work.get("tmp", (batch, H))
        if input_grad:
            w_t = work.get("w_t", (3, H, nin))
            w_t[...] = self.w.transpose(0, 2, 1)
            gx = work.get("gx", (3, batch, nin))
            grad_xs = np.empty_like(xs) if out is None else out
        else:
            grad_xs = None
        for t in range(T - 1, -1, -1):
            np.add(grad_out[t], gh, out=g)
            x, h = xs[t], hs[t]
            z, r, c = gates[t]
            np.multiply(r, h, out=s)
            # ga_c = g * z * (1 - c * c)
            np.multiply(g, z, out=ga_c)
            np.multiply(c, c, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            ga_c *= tmp
            np.matmul(ga_c, u_t[2], out=gs)
            # ga_r = gs * h * r * (1 - r)
            np.multiply(gs, h, out=ga_r)
            ga_r *= r
            np.subtract(1.0, r, out=tmp)
            ga_r *= tmp
            # ga_z = g * (c - h) * z * (1 - z)
            np.subtract(c, h, out=tmp)
            np.multiply(g, tmp, out=ga_z)
            ga_z *= z
            np.subtract(1.0, z, out=tmp)
            ga_z *= tmp
            np.matmul(x.T, ga, out=gw_step)
            gw += gw_step
            np.matmul(h.T, ga_zr, out=gu_step[:2])
            np.matmul(s.T, ga_c, out=gu_step[2])
            gu += gu_step
            np.matmul(ones, ga, out=gb_step)
            gb += gb_step
            if input_grad:
                np.matmul(ga, w_t, out=gx)
                np.add(gx[0], gx[1], out=grad_xs[t])
                grad_xs[t] += gx[2]
            # gh = g * (1 - z) + gs * r + ga_z U_z^T + ga_r U_r^T, with
            # tmp still holding 1 - z
            np.multiply(g, tmp, out=gh)
            np.multiply(gs, r, out=tmp)
            gh += tmp
            np.matmul(ga_zr, u_t[:2], out=uh)
            gh += uh[0]
            gh += uh[1]
        return gate_views(gw, gu, gb), grad_xs


class FeatureNorm:
    """Min-max scaling of the input features and the target."""

    def __init__(self, feature_min, feature_max, target_min, target_max):
        self.feature_min = np.asarray(feature_min, dtype=float)
        self.feature_max = np.asarray(feature_max, dtype=float)
        self.target_min = float(target_min)
        self.target_max = float(target_max)

    @classmethod
    def fit(cls, features, targets):
        """features: (n, ..., n_features) stacked raw inputs."""
        flat = features.reshape(-1, features.shape[-1])
        return cls(flat.min(axis=0), flat.max(axis=0),
                   float(np.min(targets)), float(np.max(targets)))

    def _span(self, lo, hi):
        span = hi - lo
        return np.where(span == 0.0, 1.0, span) if np.ndim(span) else (span or 1.0)

    def normalize_features(self, x):
        return (x - self.feature_min) / self._span(self.feature_min, self.feature_max)

    def normalize_target(self, y):
        return (y - self.target_min) / self._span(self.target_min, self.target_max)

    def denormalize_target(self, y):
        return y * self._span(self.target_min, self.target_max) + self.target_min


class GruModel:
    """Layer stack plus affine output head and normalization constants."""

    def __init__(self, layers, w_out, b_out, norm):
        for lower, upper in zip(layers, layers[1:]):
            if lower.hidden_size != upper.input_size:
                raise DimensionMismatch("layer widths do not chain")
        if w_out.shape[0] != layers[-1].hidden_size:
            raise DimensionMismatch("output head does not match last layer")
        self.layers = layers
        self.w_out = w_out          # (hidden_last,)
        self.b_out = b_out          # scalar
        self.norm = norm
        self.workspace = None       # the training Workspace, if any

    @classmethod
    def create(cls, n_features, hidden_sizes, norm, seed=0, zero=False):
        rng = None if zero else np.random.default_rng(seed)
        layers = []
        size_in = n_features
        for size in hidden_sizes:
            layers.append(GruLayer(size_in, size, rng))
            size_in = size
        if zero:
            w_out = np.zeros(size_in)
        else:
            bound = np.sqrt(6.0 / (size_in + 1))
            w_out = rng.uniform(-bound, bound, size_in)
        return cls(layers, w_out, 0.0, norm)

    def forward_normalized(self, xs, keep_cache=False):
        """xs: (T, batch, n_features), already normalized.

        Returns (batch,) normalized predictions (and caches if asked).
        With ``keep_cache`` the layers run in ``self.workspace``, made anew
        when (T, batch) changes, so the caches hold until the next forward
        that keeps them. Without it the layers run in fresh buffers.
        """
        if not keep_cache:
            work = Workspace()
        elif getattr(self.workspace, "shape", None) == xs.shape[:2]:
            work = self.workspace
        else:
            work = self.workspace = Workspace(xs.shape[:2])
        caches = []
        h = xs
        for layer in self.layers:
            h, cache = layer.forward(h, work=work, keep_cache=keep_cache)
            caches.append(cache)
        y = h[-1] @ self.w_out + self.b_out
        if keep_cache:
            return y, (caches, h)
        return y

    def backward(self, cache, grad_y):
        """Gradients of a scalar objective given d(objective)/d(prediction).

        grad_y: (batch,). Returns one gradient per trainable tensor, in
        iter_params order.
        """
        caches, top_h = cache
        work = caches[-1][-1]
        gw_out = top_h[-1].T @ grad_y
        gb_out = grad_y.sum()
        # Layer i reads its output gradients from one of two buffers and
        # writes its input gradients to the other.
        n = len(self.layers)
        grad_seq = work.get(("grad_seq", n % 2), top_h.shape)
        grad_seq[:-1] = 0.0
        np.outer(grad_y, self.w_out, out=grad_seq[-1])
        layer_grads = [None] * n
        for i in range(n - 1, -1, -1):
            out = (work.get(("grad_seq", i % 2), caches[i][0].shape)
                   if i else None)
            layer_grads[i], grad_seq = self.layers[i].backward(
                caches[i], grad_seq, input_grad=i > 0, out=out)
        return [g for grads in layer_grads for g in grads] + [gw_out, gb_out]

    def predict_batch(self, features):
        """(n, T, n_features) raw windows -> (n,) temperatures in Celsius."""
        xs = np.asarray(features, dtype=float)
        xn = self.norm.normalize_features(xs).transpose(1, 0, 2)
        y = self.forward_normalized(xn)
        return self.norm.denormalize_target(y)

    def iter_params(self):
        """Yield (name, array) for every trainable tensor (views, in a fixed
        order); biases and the output head included."""
        for i, layer in enumerate(self.layers):
            for name in PARAM_NAMES:
                yield f"layers[{i}].{name}", getattr(layer, name)
        yield "w_out", self.w_out
        yield "b_out", self.b_out
