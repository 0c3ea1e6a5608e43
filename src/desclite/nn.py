"""MLP core: layers with exact analytic gradients, Adam, model serialization.

Every model has one stack shape, which `MlpModel` checks on construction:
    [linear -> relu -> batchnorm] * H -> linear(output_dim) [-> l2norm]
with H <= MAX_HIDDEN_LAYERS; encoders end in l2norm. ReLU precedes batch
normalization deliberately. `forward` is the training pass: it runs the
layers' own `forward`s, caching what `backward` needs and updating batchnorm
running statistics. `project` is the one way a model maps rows: it folds
each batchnorm affine into the linear after it, which is exact.

Ownership in the training pass: ReLU and BatchNorm write their results into
the array they are handed, and the shape is why no copy is needed. The
first layer is a linear and the last a linear or an l2norm; none of them
writes, so the caller's batch and upstream gradient come back unchanged, and
each writing layer gets an array that the linear or relu before it made and
does not keep. `backward(..., input_grad=False)` lets the first linear skip
its input gradient, which the training schemes pass for the encoder.
BatchNorm takes its three column sums of products (x_hat^2, grad * x_hat and
g * x_hat) with `np.einsum("ij,ij->j", ...)`: numpy's einsum adds each
column's products row by row without fusing multiply and add, as
`(a * b).sum(axis=0)` does, so it gives the same bits without the product
array.

A linear's backward makes two products that do not depend on each other:
the weight gradient x.T @ grad, written into the preallocated
`grad_weight`, and the input gradient grad @ weight.T. When the input
gradient is wanted and each product takes at least PAIR_MIN_MULTIPLY_ADDS
multiply-adds (rows x in_dim x out_dim), the weight product runs on the
worker thread of `numerics.run_pair` while the calling thread sums the bias
gradient and makes the input gradient; the worker runs that one numpy call
and allocates nothing. The first linear, which skips its input gradient,
and smaller products run on the calling thread. Each product is the same
numpy call on the same operands either way, so gradients and trained models
have the same bits on one CPU or two.

A linear's forward splits its product by batch rows:
`numerics.split_rows` cuts a batch of at least 2 * FORWARD_BLOCK rows at the
multiple of FORWARD_BLOCK nearest its middle, and the worker thread writes
x[mid:] @ weight + bias into the rows of the output that the calling thread
made, while that thread writes the rows before. It does so only when each
half takes at least PAIR_MIN_MULTIPLY_ADDS // 2 multiply-adds, so an uneven
cut of a product just over the backward's rule stays whole. Above
OpenBLAS's small-matrix size, sgemm sums each output entry over in_dim in an
order that does not depend on the row count, so both halves have the bits of
the whole product. Under the rule each half takes 6 M multiply-adds or
more, well above that size; halves of about 1 M or fewer were seen to
differ.

Training and projection run in one dtype, the module constant DTYPE
(float32): parameters, gradients, batchnorm running statistics, Adam moments,
layer caches and `project`'s chunk buffers are all DTYPE, and a batch is cast
to DTYPE on entry. `project` widens only its final l2norm to float64, so
reduced descriptors are float64 unit rows.

An `MlpModel` keeps all its parameters in one flat DTYPE buffer, `params`,
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
gamma, beta, running_mean, running_var (all f64). The one accepted stack is
the shape above with every width >= 1; `load_model` refuses any other with
a FormatError, on which the CLI exits 2. Saving widens DTYPE
values to f64, which is exact, so a saved model loads back bit for bit.
Loading narrows each f64 value to DTYPE, rounding to nearest: a file holding
values that DTYPE cannot represent loads as their nearest DTYPE values.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from ._binio import read_file, u32_bytes, write_atomic
from .errors import ConfigError, FormatError, ShapeError, StateError
from .numerics import NORM_EPS, as_matrix, l2_normalize_rows, row_cut, run_pair, split_rows

BN_MOMENTUM = 0.1
BN_EPS = 1e-5
MAX_HIDDEN_LAYERS = 2
DTYPE = np.float32  # of every parameter, gradient, moment and layer activation
PROJECT_CHUNK = 2048  # rows per chunk of `project`
# chunks each part must get before `project` splits its chunks over two
# threads (`numerics.split_rows`)
PROJECT_MIN_PART_CHUNKS = 1
ADAM_CHUNK = 32768  # parameters per chunk of `adam_step`: 128 KiB per operand
# multiply-adds (rows x in_dim x out_dim) from which a linear's backward
# runs its two products on two threads, each product taking at least this
# many; a linear's forward splits into two row halves when each half takes
# at least half of it. Timed with one BLAS thread on a 2-vCPU x86-64 VM, a
# hand-off costs about 70 us back to back but about 200 us to a worker that
# has idled for a millisecond or more, as it has at the first pairing of
# each backward pass. In training, pairing 8.4 M products slowed them
# (650 -> 750 us a backward) and pairing 16.8 M ones sped them up
# (880 -> 740 us); the rule sits between the two. Forwards split back to
# back went 1.67 -> 1.04 ms at 256 x 512 x 512, 6.72 -> 3.62 ms at
# 1,024 x 512 x 512 and 0.54 -> 0.45 ms at 1,024 x 512 x 32 (halves of
# 8.4 M), but 0.26 -> 0.33 ms at 184 x 128 x 512 (cut 64 / 120, a 4.2 M
# half) and 0.22 -> 0.24 ms at 512 x 512 x 32 (halves of 4.2 M).
PAIR_MIN_MULTIPLY_ADDS = 12_000_000
# rows per block of a split linear forward, whose halves are cut at a
# multiple of it: a batch under two blocks stays whole
FORWARD_BLOCK = 64


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
        self.in_dim = in_dim
        self.out_dim = out_dim
        if rng is None:
            self.weight = np.zeros((in_dim, out_dim), dtype=DTYPE)
        else:
            limit = np.sqrt(6.0 / (in_dim + out_dim))
            self.weight = rng.uniform(-limit, limit, size=(in_dim, out_dim)).astype(DTYPE)
        self.bias = np.zeros(out_dim, dtype=DTYPE)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        # whether backward returns the input gradient; the module-level
        # `backward` sets it on a model's first layer for each pass
        self.input_grad = True
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Return x @ weight + bias, caching x for `backward`.

        `numerics.split_rows` cuts a batch of 2 * FORWARD_BLOCK rows or more
        at the multiple of FORWARD_BLOCK nearest its middle when each half
        takes at least PAIR_MIN_MULTIPLY_ADDS // 2 multiply-adds, and the
        worker thread writes the second half into the output this thread
        made, allocating nothing. Each half has the bits of the whole
        product (see the module docstring), so the output is the same on one
        CPU or two.
        """
        self._cache = x
        cut = row_cut(len(x), FORWARD_BLOCK)
        smaller_half = min(cut, len(x) - cut)
        if smaller_half * self.in_dim * self.out_dim < PAIR_MIN_MULTIPLY_ADDS // 2:
            out = x @ self.weight
            out += self.bias
            return out
        out = np.empty((len(x), self.out_dim), dtype=DTYPE)

        def rows(lo, hi, _):
            part = np.dot(x[lo:hi], self.weight, out=out[lo:hi])
            part += self.bias

        split_rows(rows, len(x), FORWARD_BLOCK, 1, lambda _: None)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray | None:
        """Fill `grad_weight` with x.T @ grad and `grad_bias` with the column
        sums of grad; return the input gradient grad @ weight.T, or None
        when `input_grad` is off.

        When the input gradient is wanted and each product takes at least
        PAIR_MIN_MULTIPLY_ADDS multiply-adds, `numerics.run_pair` runs the
        weight product on the worker thread, straight into `grad_weight`,
        while this thread sums the bias gradient and makes the input
        gradient. Each product is the same numpy call either way, so the
        gradients have the same bits whatever the number of CPUs.
        """
        if self._cache is None:
            raise StateError("linear backward without a cached forward")
        x = self._cache
        self._cache = None
        weight_grad = partial(np.dot, x.T, grad, out=self.grad_weight)

        def rest():
            self.grad_bias[...] = grad.sum(axis=0)
            return grad @ self.weight.T if self.input_grad else None

        if self.input_grad and x.size * self.out_dim >= PAIR_MIN_MULTIPLY_ADDS:
            return run_pair(rest, weight_grad)
        weight_grad()
        return rest()


class ReLU(_Layer):
    kind = "relu"

    def __init__(self):
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x > 0.0  # subgradient 0 at exactly 0
        return np.maximum(x, 0.0, out=x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise StateError("relu backward without a cached forward")
        mask = self._cache
        self._cache = None
        return np.multiply(grad, mask, out=grad)


class BatchNorm(_Layer):
    kind = "batchnorm"
    PARAMS = ("gamma", "beta")

    def __init__(self, width: int):
        self.width = width
        self.gamma = np.ones(width, dtype=DTYPE)
        self.beta = np.zeros(width, dtype=DTYPE)
        self.grad_gamma = np.zeros(width, dtype=DTYPE)
        self.grad_beta = np.zeros(width, dtype=DTYPE)
        self.running_mean = np.zeros(width, dtype=DTYPE)
        self.running_var = np.ones(width, dtype=DTYPE)
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n = len(x)
        if n < 2:
            raise ConfigError("batchnorm forward requires batch size >= 2")
        # the mean and variance by np.var's own steps: sum / n, then the
        # centred rows squared, summed and divided by n
        mean = x.sum(axis=0) / n
        x_hat = np.subtract(x, mean, out=x)
        var = _column_dots(x_hat, x_hat) / n
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        x_hat *= inv_std
        self._cache = (x_hat, inv_std)
        self.running_mean[...] = (1.0 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mean
        self.running_var[...] = (
            (1.0 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * var * n / (n - 1)
        )
        out = x_hat * self.gamma
        out += self.beta
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise StateError("batchnorm backward without a cached forward")
        x_hat, inv_std = self._cache
        self._cache = None
        self.grad_gamma[...] = _column_dots(grad, x_hat)
        self.grad_beta[...] = grad.sum(axis=0)
        # (g - mean(g) - x_hat * mean(g * x_hat)) * inv_std with g = grad * gamma,
        # written over grad and then x_hat
        g = np.multiply(grad, self.gamma, out=grad)
        mean_gx = _column_dots(g, x_hat) / len(g)
        g -= g.mean(axis=0)
        x_hat *= mean_gx
        g -= x_hat
        g *= inv_std
        return g


def _column_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`(a * b).sum(axis=0)` bit for bit, without the product array. On
    C-ordered arrays of two or more columns, einsum adds each column's
    products row by row, as that sum does; numpy sums a single column or an
    F-ordered array pairwise, so those take the product."""
    if a.shape[1] > 1 and a.flags.c_contiguous and b.flags.c_contiguous:
        return np.einsum("ij,ij->j", a, b)
    return (a * b).sum(axis=0)


class L2Normalize(_Layer):
    kind = "l2norm"

    def __init__(self):
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, norms, zero = l2_normalize_rows(x)
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


class MlpModel:
    """Ordered layer stack of the one shape, which the constructor checks.

    The constructor copies every parameter, in `parameters()` order, into the
    flat buffer `params` and every gradient into the flat buffer `grads`, and
    rebinds the layer attributes to reshaped views of them.
    """

    def __init__(self, layers, input_dim: int, output_dim: int):
        self.layers = list(layers)
        _check_stack(self.layers, input_dim, output_dim)
        self.input_dim = input_dim
        self.output_dim = output_dim
        bound = [(layer, name) for layer in self.layers for name in layer.PARAMS]
        sizes = [getattr(layer, name).size for layer, name in bound]
        self.params = np.empty(sum(sizes), dtype=DTYPE)
        self.grads = np.empty(sum(sizes), dtype=DTYPE)
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

    def parameters(self):
        for i, layer in enumerate(self.layers):
            for name, param, grad in layer.parameters():
                yield f"{i}.{name}", param, grad


def _check_stack(layers, input_dim: int, output_dim: int) -> None:
    """Refuse any stack but [linear, relu, batchnorm] * H -> linear ->
    optional l2norm with H <= MAX_HIDDEN_LAYERS, whose widths are >= 1 and
    run from input_dim to output_dim, each matching the next layer's input."""
    kinds = [layer.kind for layer in layers]
    hidden = (len(kinds) - 1) // 3
    if (hidden > MAX_HIDDEN_LAYERS
            or kinds[:3 * hidden] != ["linear", "relu", "batchnorm"] * hidden
            or kinds[3 * hidden:] not in (["linear"], ["linear", "l2norm"])):
        raise ShapeError(f"layer stack {kinds} is not [linear, relu, batchnorm] * H "
                         f"(H <= {MAX_HIDDEN_LAYERS}), linear, optional l2norm")
    dims = [input_dim]  # each even entry is a width the odd one after expects
    for layer in layers:
        if layer.kind == "linear":
            dims += [layer.in_dim, layer.out_dim]
        elif layer.kind == "batchnorm":
            dims += [layer.width, layer.width]
    dims.append(output_dim)
    if min(dims) < 1 or dims[0::2] != dims[1::2]:
        raise ShapeError(f"layer widths {dims[1:-1]} do not run from input dim "
                         f"{input_dim} to output dim {output_dim} or are not >= 1")


def build_encoder(input_dim: int, output_dim: int, hidden_sizes, seed: int = 0) -> MlpModel:
    """Encoder stack ending in row-wise L2 normalization."""
    return build_mlp(input_dim, output_dim, hidden_sizes, seed=seed, normalize_output=True)


def build_mlp(input_dim: int, output_dim: int, hidden_sizes, seed: int = 0,
              normalize_output: bool = True) -> MlpModel:
    """General stack builder; decoders use normalize_output=False."""
    hidden_sizes = list(hidden_sizes)
    if min(input_dim, output_dim, *hidden_sizes) < 1:
        raise ConfigError(f"widths must be >= 1, got {input_dim}, {hidden_sizes}, {output_dim}")
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
    """The training pass: run the stack layer by layer, caching what
    `backward` needs and updating each batchnorm's running statistics.
    `batch` comes back unchanged."""
    x = _checked_batch(model, batch).astype(DTYPE, copy=False)
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


def backward(model: MlpModel, upstream_grad, input_grad: bool = True):
    """Backpropagate, filling per-layer parameter gradients; returns the
    gradient with respect to the forward input, or None with
    `input_grad=False`, when the first linear layer skips computing it.
    `upstream_grad` comes back unchanged."""
    g = as_matrix(upstream_grad, "upstream_grad").astype(DTYPE, copy=False)
    model.layers[0].input_grad = input_grad
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
        self.scratch = (np.empty(chunk, dtype=DTYPE), np.empty(chunk, dtype=DTYPE))

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


def load_model(path: str) -> MlpModel:
    r = read_file(path)
    r.magic(b"DNN1")
    version = r.u8("version")
    if version != 1:
        raise FormatError(f"{path}: unsupported model version {version}")
    input_dim = r.u32("input dim")
    output_dim = r.u32("output dim")
    n_layers = r.u32("layer count")
    layers = []
    # each layer is built only once its payload has been read, so a file
    # that declares more than it holds fails before anything of that size
    # is allocated
    for li in range(n_layers):
        tag = r.u8(f"layer {li} kind")
        if tag == _KIND_TAGS["linear"]:
            in_dim = r.u32("linear in dim")
            out_dim = r.u32("linear out dim")
            weight = r.array("<f8", in_dim * out_dim, "weights")
            bias = r.array("<f8", out_dim, "bias")
            layer = Linear(in_dim, out_dim)
            layer.weight = weight.reshape(in_dim, out_dim).astype(DTYPE)
            layer.bias = bias.astype(DTYPE)
        elif tag == _KIND_TAGS["relu"]:
            layer = ReLU()
        elif tag == _KIND_TAGS["batchnorm"]:
            width = r.u32("batchnorm width")
            stats = [r.array("<f8", width, what)
                     for what in ("gamma", "beta", "running mean", "running var")]
            layer = BatchNorm(width)
            layer.gamma, layer.beta, layer.running_mean, layer.running_var = (
                a.astype(DTYPE) for a in stats)
        elif tag == _KIND_TAGS["l2norm"]:
            layer = L2Normalize()
        else:
            raise FormatError(f"{path}: unknown layer tag {tag} at offset {r.offset - 1}")
        layers.append(layer)
    r.expect_end()
    try:
        return MlpModel(layers, input_dim, output_dim)
    except ShapeError as exc:
        raise FormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

def project(model: MlpModel, batch) -> np.ndarray:
    """The one path by which a model maps rows, with batchnorm applying its
    running statistics. It reads the parameters and writes no layer state.

    Runs `_fold_plan`'s folded linears with ReLU between them, in chunks of
    PROJECT_CHUNK rows with one preallocated DTYPE buffer per linear. Each
    chunk of the input is cast into its own buffer, so a float64 set is
    never copied whole. The output is float64: a final l2norm divides the
    widened rows, so they are unit rows to float64 precision. Descriptor
    reduction and `ss` reclustering both run it.

    With two CPUs and at least 2 * PROJECT_MIN_PART_CHUNKS chunks' worth of
    rows, the chunks go in two parts through `numerics.split_rows`: those
    before the chunk boundary nearest the middle on the calling thread, the
    rest on the worker thread, each part with its own chunk buffers. Fewer
    rows stay on the calling thread; 2,100 rows would leave the worker 52.
    Every chunk is the one the serial loop makes, so the output has the same
    bits whatever the number of CPUs.
    """
    x = _checked_batch(model, batch)
    plan = _fold_plan(model)
    normalize = model.layers[-1].kind == "l2norm"
    n = len(x)
    out = np.empty((n, model.output_dim))
    chunk = PROJECT_CHUNK

    def buffers(width):
        # a part's buffer for its input chunk, then one per linear
        return [np.empty((width, k), dtype=DTYPE)
                for k in (x.shape[1], *(w.shape[1] for w, _ in plan))]

    def run(start, stop, bufs):
        for lo in range(start, stop, chunk):
            hi = min(lo + chunk, stop)
            h = bufs[0][: hi - lo]
            h[...] = x[lo:hi]
            for i, (w, b) in enumerate(plan):
                if i:
                    np.maximum(h, 0.0, out=h)
                h = np.dot(h, w, out=bufs[i + 1][: hi - lo])
                h += b
            if normalize:  # in float64
                h = h.astype(np.float64)
                norms = np.sqrt(np.einsum("ij,ij->i", h, h))
                zero = norms < NORM_EPS
                norms[zero] = 1.0
                h /= norms[:, None]
                h[zero] = 0.0
            out[lo:hi] = h

    split_rows(run, n, chunk, PROJECT_MIN_PART_CHUNKS, buffers)
    return out


def _fold_plan(model: MlpModel):
    """The stack's linears as DTYPE (weight, bias) pairs, each batchnorm's
    running-statistics affine folded into the linear after it.

    The fold is computed in float64 from the DTYPE parameters; each array is
    then cast to DTYPE once."""
    plan = []
    scale = shift = None  # from the batchnorm before the next linear
    for layer in model.layers:
        if layer.kind == "batchnorm":
            gamma, beta, mean, var = (a.astype(np.float64) for a in (
                layer.gamma, layer.beta, layer.running_mean, layer.running_var))
            scale = gamma / np.sqrt(var + BN_EPS)
            shift = beta - mean * scale
        elif layer.kind == "linear":
            w, b = layer.weight.astype(np.float64), layer.bias.astype(np.float64)
            if scale is not None:
                w, b = scale[:, None] * w, shift @ w + b
            plan.append((w.astype(DTYPE, order="C"), b.astype(DTYPE, order="C")))
    return plan
