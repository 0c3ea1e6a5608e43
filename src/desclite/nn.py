"""MLP core: layers with exact analytic gradients, Adam, model serialization.

Layer stack convention for encoders (hidden count H in {0, 1, 2}):
    [linear -> relu -> batchnorm] * H -> linear(output_dim) -> l2norm
ReLU precedes batch normalization deliberately. Eval mode has one path,
`project`: it folds each batchnorm affine into the following linear layer,
which is exact. The layers' own `forward`s are the train-mode path only.

An `MlpModel` keeps all its parameters in one flat float64 buffer, `params`,
and all their gradients in another, `grads`; each layer's parameter and
gradient attributes are reshaped views of them. `adam_step` therefore runs
Adam's elementwise sequence once over the whole buffer, in chunks of
ADAM_CHUNK entries so that every chunk's operands stay in cache, with two
preallocated scratch chunks instead of per-parameter temporaries. A layer
attribute rebound to another array after the model was built makes
`adam_step` raise StateError instead of updating a detached copy.

Model file format "DNN1" (little-endian): magic, u8 version=1, u32 input_dim,
u32 output_dim, u32 layer count, then per layer a u8 kind tag
(1 linear, 2 relu, 3 batchnorm, 4 l2norm) followed by its payload:
linear = u32 in, u32 out, W row-major f64, bias f64; batchnorm = u32 width,
gamma, beta, running_mean, running_var (all f64).
"""
from __future__ import annotations

import numpy as np

from ._binio import read_file, u32_bytes, write_atomic
from .errors import ConfigError, FormatError, ShapeError, StateError
from .numerics import as_matrix

_NORM_EPS = 1e-12
BN_MOMENTUM = 0.1
BN_EPS = 1e-5
MAX_HIDDEN_LAYERS = 2
PROJECT_CHUNK = 2048  # rows per chunk of `project`
ADAM_CHUNK = 32768  # parameters per chunk of `adam_step`: 256 KiB per operand


class _Layer:
    """Shared by the layers: each name in PARAMS is a parameter attribute whose
    gradient lives in `grad_<name>`."""

    PARAMS = ()

    def parameters(self):
        for name in self.PARAMS:
            yield name, getattr(self, name), getattr(self, "grad_" + name)


class Linear(_Layer):
    kind = "linear"
    PARAMS = ("weight", "bias")

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None = None):
        if in_dim < 1 or out_dim < 1:
            raise ConfigError(f"linear dims must be >= 1, got {in_dim}->{out_dim}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        if rng is None:
            self.weight = np.zeros((in_dim, out_dim))
        else:
            limit = np.sqrt(6.0 / (in_dim + out_dim))
            self.weight = rng.uniform(-limit, limit, size=(in_dim, out_dim))
        self.bias = np.zeros(out_dim)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x
        out = x @ self.weight
        out += self.bias
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise StateError("linear backward without a cached forward")
        x = self._cache
        self._cache = None
        np.dot(x.T, grad, out=self.grad_weight)
        self.grad_bias[...] = grad.sum(axis=0)
        return grad @ self.weight.T


class ReLU(_Layer):
    kind = "relu"

    def __init__(self):
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x > 0.0  # subgradient 0 at exactly 0
        return np.maximum(x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise StateError("relu backward without a cached forward")
        mask = self._cache
        self._cache = None
        return grad * mask


class BatchNorm(_Layer):
    kind = "batchnorm"
    PARAMS = ("gamma", "beta")

    def __init__(self, width: int):
        self.width = width
        self.gamma = np.ones(width)
        self.beta = np.zeros(width)
        self.grad_gamma = np.zeros(width)
        self.grad_beta = np.zeros(width)
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n = len(x)
        if n < 2:
            raise ConfigError("batchnorm in train mode requires batch size >= 2")
        # the mean and variance by np.var's own steps: sum / n, then the
        # centred rows squared, summed and divided by n
        mean = x.sum(axis=0) / n
        x_hat = x - mean
        out = np.square(x_hat)
        var = out.sum(axis=0) / n
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        x_hat *= inv_std
        self._cache = (x_hat, inv_std)
        self.running_mean = (1.0 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mean
        self.running_var = (
            (1.0 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * var * n / (n - 1)
        )
        np.multiply(x_hat, self.gamma, out=out)
        out += self.beta
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise StateError("batchnorm backward without a cached forward")
        x_hat, inv_std = self._cache
        self._cache = None
        scratch = grad * x_hat
        self.grad_gamma[...] = scratch.sum(axis=0)
        self.grad_beta[...] = grad.sum(axis=0)
        # (g - mean(g) - x_hat * mean(g * x_hat)) * inv_std with g = grad * gamma
        g = grad * self.gamma
        np.multiply(g, x_hat, out=scratch)
        mean_gx = scratch.mean(axis=0)
        g -= g.mean(axis=0)
        np.multiply(x_hat, mean_gx, out=scratch)
        g -= scratch
        g *= inv_std
        return g


class L2Normalize(_Layer):
    kind = "l2norm"

    def __init__(self):
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, norms, zero = _l2_rows(x)
        self._cache = (out, norms, zero)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise StateError("l2norm backward without a cached forward")
        y, norms, zero = self._cache
        self._cache = None
        dots = (grad * y).sum(axis=1, keepdims=True)
        out = (grad - dots * y) / norms[:, None]
        out[zero] = 0.0
        return out


def _l2_rows(x: np.ndarray):
    norms = np.linalg.norm(x, axis=1)
    zero = norms < _NORM_EPS
    safe = np.where(zero, 1.0, norms)
    out = x / safe[:, None]
    out[zero] = 0.0
    return out, safe, zero


class MlpModel:
    """Ordered layer stack with a train/eval mode switch.

    The constructor copies every parameter, in `parameters()` order, into the
    flat buffer `params` and every gradient into the flat buffer `grads`, and
    rebinds the layer attributes to reshaped views of them.
    """

    def __init__(self, layers, input_dim: int, output_dim: int, mode: str = "train"):
        self.layers = list(layers)
        self.input_dim = input_dim
        self.output_dim = output_dim
        self.mode = mode
        bound = [(layer, name) for layer in self.layers for name in layer.PARAMS]
        sizes = [getattr(layer, name).size for layer, name in bound]
        self.params = np.empty(sum(sizes))
        self.grads = np.empty(sum(sizes))
        self._views = []  # (layer, attribute, the view it must still hold)
        start = 0
        for (layer, name), size in zip(bound, sizes):
            for flat, attr in ((self.params, name), (self.grads, "grad_" + name)):
                array = getattr(layer, attr)
                view = flat[start:start + size].reshape(array.shape)
                view[...] = array
                setattr(layer, attr, view)
                self._views.append((layer, attr, view))
            start += size

    def set_mode(self, mode: str) -> "MlpModel":
        if mode not in ("train", "eval"):
            raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
        self.mode = mode
        for layer in self.layers:
            layer._cache = None
        return self

    def parameters(self):
        for i, layer in enumerate(self.layers):
            for name, param, grad in layer.parameters():
                yield f"{i}.{name}", param, grad


def build_encoder(input_dim: int, output_dim: int, hidden_sizes, seed: int = 0) -> MlpModel:
    """Encoder stack ending in row-wise L2 normalization."""
    return build_mlp(input_dim, output_dim, hidden_sizes, seed=seed, normalize_output=True)


def build_mlp(input_dim: int, output_dim: int, hidden_sizes, seed: int = 0,
              normalize_output: bool = True) -> MlpModel:
    """General stack builder; decoders use normalize_output=False."""
    if input_dim < 1 or output_dim < 1:
        raise ConfigError(f"dims must be >= 1, got {input_dim}->{output_dim}")
    hidden_sizes = list(hidden_sizes)
    if len(hidden_sizes) > MAX_HIDDEN_LAYERS:
        raise ConfigError(
            f"at most {MAX_HIDDEN_LAYERS} hidden layers supported, got {len(hidden_sizes)}"
        )
    rng = np.random.default_rng(seed)
    layers = []
    prev = input_dim
    for width in hidden_sizes:
        layers.append(Linear(prev, width, rng))
        layers.append(ReLU())
        layers.append(BatchNorm(width))
        prev = width
    layers.append(Linear(prev, output_dim, rng))
    if normalize_output:
        layers.append(L2Normalize())
    return MlpModel(layers, input_dim, output_dim)


def forward(model: MlpModel, batch) -> np.ndarray:
    """Run the stack. Train mode runs it layer by layer and caches what
    backward() needs; eval mode is the folded `project` plan."""
    if model.mode == "eval":
        return project(model, batch)
    x = _checked_batch(model, batch)
    for layer in model.layers:
        x = layer.forward(x)
    return x


def _checked_batch(model: MlpModel, batch) -> np.ndarray:
    x = as_matrix(batch, "batch")
    if x.shape[1] != model.input_dim:
        raise ShapeError(
            f"batch has {x.shape[1]} columns, model expects {model.input_dim}"
        )
    return x


def backward(model: MlpModel, upstream_grad) -> np.ndarray:
    """Backpropagate, filling per-layer parameter gradients; returns the
    gradient with respect to the forward input."""
    g = as_matrix(upstream_grad, "upstream_grad")
    if model.mode != "train":
        raise StateError("backward requires the model in train mode")
    for layer in reversed(model.layers):
        g = layer.backward(g)
    return g


class AdamState:
    """Adam moments over a model's flat parameter buffer, plus the lr schedule.

    decay is either "none" or "linear" (learning rate reaches exactly zero
    at step == total_steps).
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, model: MlpModel, learning_rate: float,
                 decay: str = "none", total_steps: int | None = None):
        if decay not in ("none", "linear"):
            raise ConfigError(f"decay must be 'none' or 'linear', got {decay!r}")
        if decay == "linear" and (total_steps is None or total_steps < 1):
            raise ConfigError("linear decay needs total_steps >= 1")
        self.learning_rate = learning_rate
        self.decay = decay
        self.total_steps = total_steps
        self.t = 0
        self.m = np.zeros_like(model.params)
        self.v = np.zeros_like(model.params)
        chunk = min(ADAM_CHUNK, len(model.params))
        self.scratch = (np.empty(chunk), np.empty(chunk))

    def effective_lr(self, t: int) -> float:
        if self.decay == "linear":
            return self.learning_rate * max(0.0, 1.0 - t / self.total_steps)
        return self.learning_rate


def adam_step(state: AdamState, model: MlpModel) -> None:
    """One bias-corrected Adam update over every model parameter.

    Runs over the flat buffers in chunks of ADAM_CHUNK entries, with the
    state's two scratch chunks as the only temporaries. Raises StateError if
    a layer attribute no longer holds its view of the buffers (a rebound
    `layer.weight`, say), rather than update a detached copy.
    """
    for layer, attr, view in model._views:
        if getattr(layer, attr) is not view:
            raise StateError(f"{layer.kind} layer's {attr} no longer views the "
                             "model's flat buffer")
    state.t += 1
    lr = state.effective_lr(state.t)
    b1, b2, eps = AdamState.BETA1, AdamState.BETA2, AdamState.EPS
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for start in range(0, len(model.params), ADAM_CHUNK):
        stop = start + ADAM_CHUNK
        param, grad = model.params[start:stop], model.grads[start:stop]
        m, v = state.m[start:stop], state.v[start:stop]
        t1, t2 = (s[:len(param)] for s in state.scratch)
        # m = b1 m + (1 - b1) grad;  v = b2 v + (1 - b2) grad grad
        m *= b1
        np.multiply(grad, 1.0 - b1, out=t1)
        m += t1
        v *= b2
        np.multiply(grad, 1.0 - b2, out=t1)
        t1 *= grad
        v += t1
        # param -= lr (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(v, bc2, out=t1)
        np.sqrt(t1, out=t1)
        t1 += eps
        np.divide(m, bc1, out=t2)
        t2 *= lr
        t2 /= t1
        param -= t2


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_KIND_TAGS = {"linear": 1, "relu": 2, "batchnorm": 3, "l2norm": 4}


def save_model(model: MlpModel, path: str) -> None:
    parts = [b"DNN1", bytes([1]), u32_bytes(model.input_dim),
             u32_bytes(model.output_dim), u32_bytes(len(model.layers))]
    for layer in model.layers:
        parts.append(bytes([_KIND_TAGS[layer.kind]]))
        if layer.kind == "linear":
            parts.append(u32_bytes(layer.in_dim))
            parts.append(u32_bytes(layer.out_dim))
            parts.append(layer.weight.astype("<f8").tobytes())
            parts.append(layer.bias.astype("<f8").tobytes())
        elif layer.kind == "batchnorm":
            parts.append(u32_bytes(layer.width))
            parts.append(layer.gamma.astype("<f8").tobytes())
            parts.append(layer.beta.astype("<f8").tobytes())
            parts.append(layer.running_mean.astype("<f8").tobytes())
            parts.append(layer.running_var.astype("<f8").tobytes())
    write_atomic(path, b"".join(parts))


def load_model(path: str, expect_input_dim: int | None = None) -> MlpModel:
    r = read_file(path)
    r.magic(b"DNN1")
    version = r.u8("version")
    if version != 1:
        raise FormatError(f"{path}: unsupported model version {version}")
    input_dim = r.u32("input dim")
    output_dim = r.u32("output dim")
    n_layers = r.u32("layer count")
    if expect_input_dim is not None and input_dim != expect_input_dim:
        raise ShapeError(
            f"{path}: model input dim {input_dim} != expected {expect_input_dim}"
        )
    layers = []
    prev = input_dim
    for li in range(n_layers):
        tag = r.u8(f"layer {li} kind")
        if tag == _KIND_TAGS["linear"]:
            in_dim = r.u32("linear in dim")
            out_dim = r.u32("linear out dim")
            if in_dim != prev:
                raise ShapeError(
                    f"{path}: layer {li} expects input {in_dim}, stack provides {prev}"
                )
            layer = Linear(in_dim, out_dim)
            layer.weight = r.array("<f8", in_dim * out_dim, "weights").reshape(
                in_dim, out_dim).astype(np.float64)
            layer.bias = r.array("<f8", out_dim, "bias").astype(np.float64)
            prev = out_dim
        elif tag == _KIND_TAGS["relu"]:
            layer = ReLU()
        elif tag == _KIND_TAGS["batchnorm"]:
            width = r.u32("batchnorm width")
            if width != prev:
                raise ShapeError(
                    f"{path}: batchnorm width {width} != stack width {prev}"
                )
            layer = BatchNorm(width)
            layer.gamma = r.array("<f8", width, "gamma").astype(np.float64)
            layer.beta = r.array("<f8", width, "beta").astype(np.float64)
            layer.running_mean = r.array("<f8", width, "running mean").astype(np.float64)
            layer.running_var = r.array("<f8", width, "running var").astype(np.float64)
        elif tag == _KIND_TAGS["l2norm"]:
            layer = L2Normalize()
        else:
            raise FormatError(f"{path}: unknown layer tag {tag} at offset {r.offset - 1}")
        layers.append(layer)
    r.expect_end()
    if prev != output_dim:
        raise ShapeError(
            f"{path}: stack ends at width {prev}, header says {output_dim}"
        )
    return MlpModel(layers, input_dim, output_dim, mode="eval")


# ---------------------------------------------------------------------------
# Eval-mode projection
# ---------------------------------------------------------------------------

def project(model: MlpModel, batch) -> np.ndarray:
    """The eval-mode forward: the one path by which a trained model maps rows.

    Works in chunks of PROJECT_CHUNK rows with preallocated per-chunk
    buffers, and folds each batchnorm's running-statistics affine into the
    next linear layer (algebraically exact). Eval-mode `forward`, descriptor
    reduction, `ss` reclustering and the timing command all run it.
    """
    x = _checked_batch(model, batch)
    chunk_size = PROJECT_CHUNK
    plan = _fold_plan(model)
    n = len(x)
    out = np.empty((n, model.output_dim))
    bufs = {}
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        h = x[start:stop]
        owned = False  # h still aliases the caller's input until a linear runs
        for op, payload in plan:
            if op == "linear":
                w, b = payload
                buf = _chunk_buf(bufs, id(payload), chunk_size, w.shape[1])[: stop - start]
                np.dot(h, w, out=buf)
                buf += b
                h = buf
                owned = True
            elif op == "relu":
                if not owned:
                    h = h.copy()
                    owned = True
                np.maximum(h, 0.0, out=h)
            elif op == "affine":
                scale, shift = payload
                if not owned:
                    h = h.copy()
                    owned = True
                h *= scale
                h += shift
            else:  # l2norm
                norms = np.sqrt(np.einsum("ij,ij->i", h, h))
                zero = norms < _NORM_EPS
                norms[zero] = 1.0
                h = h / norms[:, None]
                h[zero] = 0.0
        out[start:stop] = h
    return out


def _chunk_buf(bufs: dict, key, chunk: int, width: int) -> np.ndarray:
    if key not in bufs:
        bufs[key] = np.empty((chunk, width))
    return bufs[key]


def _fold_plan(model: MlpModel):
    """Compile the layer stack into ops, folding batchnorm into linears."""
    plan = []
    pending = None  # (scale, shift) from a batchnorm awaiting a linear
    for layer in model.layers:
        if layer.kind == "batchnorm":
            scale = layer.gamma / np.sqrt(layer.running_var + BN_EPS)
            shift = layer.beta - layer.running_mean * scale
            if pending is not None:
                plan.append(("affine", pending))
            pending = (scale, shift)
        elif layer.kind == "linear":
            if pending is not None:
                scale, shift = pending
                w = scale[:, None] * layer.weight
                b = shift @ layer.weight + layer.bias
                pending = None
            else:
                w, b = layer.weight, layer.bias
            plan.append(("linear", (np.ascontiguousarray(w), b)))
        elif layer.kind == "relu":
            if pending is not None:
                plan.append(("affine", pending))
                pending = None
            plan.append(("relu", None))
        else:
            if pending is not None:
                plan.append(("affine", pending))
                pending = None
            plan.append(("l2norm", None))
    if pending is not None:
        plan.append(("affine", pending))
    return plan
