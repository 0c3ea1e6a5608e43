"""The three training schemes: unsupervised autoencoder (us), self-supervised
k-means pseudo-labels (ss), and supervised triplet learning (sv).

`train` is the one entry point: it resolves a TrainConfig and runs its
scheme on a DescriptorSet, returning the trained encoder. An optional
`log_fn` receives one dict per logged event (epoch summaries, recluster
events); the CLI turns these into the line-oriented training log and tests
use them as instrumentation hooks.

Every scheme runs the one epoch loop, `_run`. A scheme gives it:
  - its encoder and the steps of one epoch;
  - its epoch, a generator that draws the epoch's batches and, for each in
    turn, fills the encoder's gradients and yields the batch's loss terms
    by name, `loss` first;
  - any extra epoch-event fields, and any other model to check.
`_run` owns the encoder's AdamState and its step after each batch, the step
counts, the epoch means of the loss terms, the non-finite parameter checks
and the epoch event. A scheme steps its other models itself: `us` its
decoder and `ss` its classification head, in the epoch's steps; `ss`
reclusters at the start of its epoch.

An epoch event carries `event`, `scheme`, `epoch`, `loss` and the scheme's
other loss terms, then `lr`, `steps_per_epoch` and `total_steps` (the Adam
steps of one epoch and of the whole run), then the scheme's extra fields:
`head_width` (`ss`, the cluster count) or `unused_classes_per_epoch` (`sv`,
the eligible classes that no batch of an epoch draws, since each epoch makes
whole batches of distinct classes). With the distance loss, each step's
`loss` is its main term plus alpha (`us`) or beta (`sv`) times its
`distance`.

Training runs in `nn.DTYPE` (float32): each scheme casts the training
descriptors once, and the models it returns hold DTYPE parameters. Their
projections, and so reduced sets, are float64.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import losses, nn
from .cluster import KMeansModel, kmeans_fit
from .data import DescriptorSet, LabelIndex
from .errors import ConfigError, NumericError
from .nn import AdamState, MlpModel, adam_step, backward, build_encoder, build_mlp, \
    forward, project

# Paper-scale defaults per scheme: (epochs, batch_size, lr schedule)
_SCHEME_DEFAULTS = {
    "us": (5, 1024, "none"),
    "ss": (200, 256, "none"),
    "sv": (10, 1024, "linear"),
}


@dataclass
class TrainConfig:
    scheme: str
    target_dim: int
    hidden_sizes: tuple = (512, 512)
    epochs: int | None = None
    batch_size: int | None = None
    learning_rate: float = 0.001
    lr_schedule: str | None = None        # "none" | "linear"
    margin: float = 1.0
    alpha: float = 0.1                    # distance-loss weight, scheme us
    beta: float = 3.0                     # distance-loss weight, scheme sv
    use_distance_loss: bool = False
    distance_loss_on_positives: bool = False
    k: int | None = None                  # cluster count, scheme ss
    recluster_period: int = 10
    seed: int = 0

    def resolved(self) -> "TrainConfig":
        """Fill scheme-dependent defaults and validate."""
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        epochs, batch, sched = _SCHEME_DEFAULTS[self.scheme]
        cfg = replace(
            self,
            hidden_sizes=tuple(self.hidden_sizes),
            epochs=self.epochs if self.epochs is not None else epochs,
            batch_size=self.batch_size if self.batch_size is not None else batch,
            lr_schedule=self.lr_schedule if self.lr_schedule is not None else sched,
        )
        if cfg.target_dim < 1:
            raise ConfigError(f"target_dim must be >= 1, got {cfg.target_dim}")
        if cfg.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {cfg.epochs}")
        if cfg.batch_size < 2:  # batchnorm statistics and triplet mining need 2 rows
            raise ConfigError(f"batch_size must be >= 2, got {cfg.batch_size}")
        for name in ("learning_rate", "margin", "alpha", "beta"):
            if not np.isfinite(getattr(cfg, name)):  # NaN passes every check below
                raise ConfigError(f"{name} must be finite, got {getattr(cfg, name)}")
        if cfg.learning_rate <= 0 or cfg.margin < 0:
            raise ConfigError("learning_rate must be > 0 and margin >= 0")
        if cfg.alpha < 0 or cfg.beta < 0:  # a negative weight rewards distorted distances
            raise ConfigError(f"alpha and beta must be >= 0, got {cfg.alpha} and {cfg.beta}")
        if cfg.lr_schedule not in ("none", "linear"):
            raise ConfigError(f"lr_schedule must be none|linear, got {cfg.lr_schedule!r}")
        if cfg.recluster_period < 1:
            raise ConfigError("recluster_period must be >= 1")
        return cfg


def _check_finite(model: MlpModel, what: str) -> None:
    for key, param, _ in model.parameters():
        if not np.all(np.isfinite(param)):
            raise NumericError(f"{what}: non-finite values in parameter {key}")


def _emit(log_fn, **event) -> None:
    if log_fn is not None:
        log_fn(event)


def _recluster_fields(model: KMeansModel) -> dict:
    sizes = np.bincount(model.assignments, minlength=model.k)
    return dict(k=model.k, objective=model.objective, iterations=model.iterations_run,
                empty_repaired=model.empty_repaired,
                min_cluster_size=int(sizes.min()), max_cluster_size=int(sizes.max()))


def _row_steps(n: int, batch_size: int) -> int:
    """Steps of an epoch over n shuffled rows. A trailing single row is
    dropped, since batchnorm needs two; every other batch has >= 2 rows
    because batch_size >= 2."""
    return len(range(0, n - 1, batch_size))


def _shuffled(n: int, batch_size: int, steps: int, rng: np.random.Generator) -> list:
    """`steps` consecutive slices of `batch_size` entries (the last may be
    shorter) of a fresh seeded permutation of range(n)."""
    order = rng.permutation(n)
    return [order[start:start + batch_size]
            for start in range(0, steps * batch_size, batch_size)]


def _triplet_rows(index: LabelIndex, codes: np.ndarray, rng: np.random.Generator):
    """(2B,) rows for the B label codes `codes` of `index`: anchors first,
    then positives; rows i and B + i are a uniform ordered pair of distinct
    rows of label codes[i], drawn by two calls over the whole batch."""
    first, sizes = index.start[codes], index.count[codes]
    a = rng.integers(0, sizes)
    b = rng.integers(0, sizes - 1)
    b += b >= a  # b skips a's slot
    return index.rows[np.concatenate([first + a, first + b])]


def _run(cfg: TrainConfig, log_fn, encoder: MlpModel, steps_per_epoch: int,
         epoch_steps, others=None, **fields) -> MlpModel:
    """The epoch loop of every scheme. `epoch_steps(epoch)` yields each
    batch's loss terms once it has filled the encoder's gradients, and the
    loop then takes the encoder's Adam step. After each epoch it checks the
    encoder and the models of `others` (name -> model) for non-finite
    parameters and emits the epoch event: the mean of each loss term, then
    the rate, the step counts and `fields`.

    A step's arrays live in the generator until its next batch replaces
    them, as in a plain loop. A step function that freed them on return,
    before the Adam step, took twice the minor page faults in paper-3k's
    `us` run (glibc gave the freed heap back and faulted it in again)."""
    total_steps = cfg.epochs * steps_per_epoch
    adam = AdamState(encoder, cfg.learning_rate, cfg.lr_schedule, total_steps)
    checked = {"encoder": encoder, **(others or {})}
    for epoch in range(1, cfg.epochs + 1):
        sums = {}
        for terms in epoch_steps(epoch):
            for term, value in terms.items():
                sums[term] = sums.get(term, 0.0) + value
            adam_step(adam, encoder)
        for what, model in checked.items():
            _check_finite(model, what)
        _emit(log_fn, event="epoch", scheme=cfg.scheme, epoch=epoch,
              **{term: total / steps_per_epoch for term, total in sums.items()},
              lr=adam.effective_lr(adam.t), steps_per_epoch=steps_per_epoch,
              total_steps=total_steps, **fields)
    return encoder


def _train_us(train_set: DescriptorSet, cfg: TrainConfig, log_fn) -> MlpModel:
    """Autoencoder scheme: symmetric encoder/decoder minimizing the mean
    reconstruction distance, optionally plus alpha x the distance loss
    between input batch and encoder embeddings; returns the encoder."""
    x = train_set.descriptors.astype(nn.DTYPE)
    if len(x) < 2:
        raise ConfigError(f"need at least 2 training rows, got {len(x)}")
    dim = train_set.dim

    encoder = build_encoder(dim, cfg.target_dim, cfg.hidden_sizes, seed=cfg.seed)
    decoder = build_mlp(cfg.target_dim, dim, tuple(reversed(cfg.hidden_sizes)),
                        seed=cfg.seed + 1, normalize_output=False)
    steps = _row_steps(len(x), cfg.batch_size)
    adam_dec = AdamState(decoder, cfg.learning_rate, cfg.lr_schedule, cfg.epochs * steps)
    rng = np.random.default_rng(cfg.seed + 17)

    def epoch_steps(epoch):
        for idx in _shuffled(len(x), cfg.batch_size, steps, rng):
            batch = x[idx]
            emb = forward(encoder, batch)
            rec = losses.reconstruction_loss(batch, forward(decoder, emb))
            grad = backward(decoder, rec.grad)
            loss, dist = rec.value, 0.0
            if cfg.use_distance_loss:
                aux = losses.distance_loss(batch, emb)
                loss, dist = rec.value + cfg.alpha * aux.value, aux.value
                grad = grad + cfg.alpha * aux.grad
            backward(encoder, grad, input_grad=False)
            adam_step(adam_dec, decoder)
            yield {"loss": loss, "reconstruction": rec.value, "distance": dist}

    return _run(cfg, log_fn, encoder, steps, epoch_steps, others={"decoder": decoder})


def _train_ss(train_set: DescriptorSet, cfg: TrainConfig, log_fn) -> MlpModel:
    """Cluster pseudo-label scheme: epoch 1 clusters the original
    descriptors; every `recluster_period` epochs the current embeddings are
    re-clustered and the classification head re-initialized."""
    x = train_set.descriptors  # float64, clustered at epoch 1
    x_train = x.astype(nn.DTYPE)
    n = len(x)
    if n < 2:
        raise ConfigError(f"need at least 2 training rows, got {n}")
    k = cfg.k if cfg.k is not None else min(100_000, max(1, n // 4))

    encoder = build_encoder(train_set.dim, cfg.target_dim, cfg.hidden_sizes,
                            seed=cfg.seed)
    steps = _row_steps(n, cfg.batch_size)
    rng = np.random.default_rng(cfg.seed + 17)
    pseudo = head = adam_head = None

    def epoch_steps(epoch):
        nonlocal pseudo, head, adam_head
        if (epoch - 1) % cfg.recluster_period == 0:  # always at epoch 1
            if epoch == 1:
                points, source, offset = x, "original", 0
            else:  # the running-statistics embedding, as reduce() computes it
                points, source, offset = project(encoder, x_train), "embedding", epoch
            model = kmeans_fit(points, k, seed=cfg.seed + 47 + offset)
            pseudo = model.assignments
            # a fresh linear classification head over the embedding
            head = build_mlp(cfg.target_dim, k, (), cfg.seed + 31 + offset,
                             normalize_output=False)
            adam_head = AdamState(head, cfg.learning_rate)
            _emit(log_fn, event="recluster", scheme="ss", epoch=epoch,
                  source=source, **_recluster_fields(model))
        for idx in _shuffled(n, cfg.batch_size, steps, rng):
            emb = forward(encoder, x_train[idx])
            loss = losses.softmax_cross_entropy(forward(head, emb), pseudo[idx])
            backward(encoder, backward(head, loss.grad), input_grad=False)
            adam_step(adam_head, head)
            yield {"loss": loss.value, "cross_entropy": loss.value}

    return _run(cfg, log_fn, encoder, steps, epoch_steps, head_width=k)


def _train_sv(train_set: DescriptorSet, cfg: TrainConfig, log_fn) -> MlpModel:
    """Triplet scheme: per step, one (anchor, positive) pair from each of
    `batch_size` distinct classes, embedded by the same encoder, with
    hardest-within-batch mining; optionally plus beta x the distance loss on
    the anchor embeddings (and on the positive ones with
    `distance_loss_on_positives`)."""
    x = train_set.descriptors.astype(nn.DTYPE)
    classes, codes = np.unique(train_set.labels, return_inverse=True)
    index = LabelIndex(np.arange(len(x)), codes, len(classes))
    eligible = np.flatnonzero(index.count >= 2)
    if len(eligible) < cfg.batch_size:
        raise ConfigError(
            f"need >= batch_size={cfg.batch_size} classes with >= 2 patches, "
            f"found {len(eligible)}"
        )

    encoder = build_encoder(train_set.dim, cfg.target_dim, cfg.hidden_sizes,
                            seed=cfg.seed)
    nb = cfg.batch_size
    steps = len(eligible) // nb
    rng = np.random.default_rng(cfg.seed + 17)

    def epoch_steps(epoch):
        for chosen in _shuffled(len(eligible), nb, steps, rng):
            pairs = x[_triplet_rows(index, eligible[chosen], rng)]
            emb = forward(encoder, pairs)
            tri = losses.triplet_loss_hardest(emb[:nb], emb[nb:], cfg.margin)
            loss, dist, grad = tri.value, 0.0, tri.grad
            if cfg.use_distance_loss:
                aux = losses.distance_loss(pairs[:nb], emb[:nb])
                dist, grads = aux.value, [aux.grad, np.zeros_like(aux.grad)]
                if cfg.distance_loss_on_positives:
                    extra = losses.distance_loss(pairs[nb:], emb[nb:])
                    dist, grads[1] = dist + extra.value, extra.grad
                loss = tri.value + cfg.beta * dist
                grad = tri.grad + cfg.beta * np.vstack(grads)
            backward(encoder, grad, input_grad=False)
            yield {"loss": loss, "triplet": tri.value, "distance": dist}

    return _run(cfg, log_fn, encoder, steps, epoch_steps,
                unused_classes_per_epoch=len(eligible) % nb)


_SCHEME_BODIES = {"us": _train_us, "ss": _train_ss, "sv": _train_sv}
# the scheme names, declared once by the table above; the CLI reads them
SCHEMES = tuple(_SCHEME_BODIES)


def train(train_set: DescriptorSet, config: TrainConfig, log_fn=None) -> MlpModel:
    """Train an encoder by the scheme of the resolved `config`."""
    cfg = config.resolved()
    return _SCHEME_BODIES[cfg.scheme](train_set, cfg, log_fn)


def reduce(encoder: MlpModel, dset: DescriptorSet) -> DescriptorSet:
    """Project a descriptor set through an encoder: unit or zero rows.
    `project` refuses a set of another width with a ShapeError. The result
    shares the source's label, sequence-id and tier arrays."""
    return replace(dset, descriptors=project(encoder, dset.descriptors), normalized=True)

