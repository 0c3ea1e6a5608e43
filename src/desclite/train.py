"""The three training schemes: unsupervised autoencoder (us), self-supervised
k-means pseudo-labels (ss), and supervised triplet learning (sv).

`train` is the one entry point: it resolves a TrainConfig and runs its
scheme on a DescriptorSet, returning the trained encoder. An optional
`log_fn` receives one dict per logged event (epoch summaries, recluster
events); the CLI turns these into the line-oriented training log and tests
use them as instrumentation hooks.
Every epoch event carries `steps_per_epoch` and `total_steps`, the Adam steps
of one epoch and of the whole run; `sv` epoch events also carry
`unused_classes_per_epoch`, the eligible classes that no batch of an epoch
draws (each epoch makes whole batches of distinct classes).

Training runs in `nn.DTYPE` (float32): each scheme casts the training
descriptors once, and the models it returns hold DTYPE parameters. Their
projections, and so reduced sets, are float64.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import losses, nn
from .cluster import KMeansModel, kmeans_fit
from .data import DescriptorSet
from .errors import ConfigError, NumericError, ShapeError
from .nn import AdamState, MlpModel, adam_step, backward, build_encoder, build_mlp, \
    forward, project

TARGET_DIMS = (64, 32, 24, 16)

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
        if cfg.learning_rate <= 0 or cfg.margin < 0:
            raise ConfigError("learning_rate must be > 0 and margin >= 0")
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


def _batch_starts(n: int, batch_size: int) -> range:
    """Start rows of an epoch's batches. A trailing single row is dropped,
    since batchnorm needs two; every other batch has >= 2 rows because
    batch_size >= 2. Its length is the epoch's step count."""
    return range(0, n - 1, batch_size)


def _batch_indices(n: int, batch_size: int, rng: np.random.Generator):
    """Seeded shuffled batches, one per start of `_batch_starts`."""
    order = rng.permutation(n)
    for start in _batch_starts(n, batch_size):
        yield order[start:start + batch_size]


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
    steps_per_epoch = len(_batch_starts(len(x), cfg.batch_size))
    total_steps = cfg.epochs * steps_per_epoch
    adam_enc = AdamState(encoder, cfg.learning_rate, cfg.lr_schedule, total_steps)
    adam_dec = AdamState(decoder, cfg.learning_rate, cfg.lr_schedule, total_steps)
    rng = np.random.default_rng(cfg.seed + 17)

    for epoch in range(1, cfg.epochs + 1):
        sums = np.zeros(3)  # total, reconstruction, distance
        count = 0
        for idx in _batch_indices(len(x), cfg.batch_size, rng):
            batch = x[idx]
            emb = forward(encoder, batch)
            rec = forward(decoder, emb)
            loss_rec = losses.reconstruction_loss(batch, rec)
            grad_emb = backward(decoder, loss_rec.grad)
            if cfg.use_distance_loss:
                loss_dist = losses.distance_loss(batch, emb)
                total = losses.combine(
                    losses.LossValue(loss_rec.value, grad_emb),
                    loss_dist, cfg.alpha,
                )
                grad_emb = total.grad
                loss_total, dist_val = total.value, loss_dist.value
            else:
                loss_total, dist_val = loss_rec.value, 0.0
            backward(encoder, grad_emb)
            adam_step(adam_enc, encoder)
            adam_step(adam_dec, decoder)
            sums += (loss_total, loss_rec.value, dist_val)
            count += 1
        _check_finite(encoder, "encoder")
        _check_finite(decoder, "decoder")
        _emit(log_fn, event="epoch", scheme="us", epoch=epoch,
              loss=sums[0] / count, reconstruction=sums[1] / count,
              distance=sums[2] / count, lr=adam_enc.effective_lr(adam_enc.t),
              steps_per_epoch=steps_per_epoch, total_steps=total_steps)
    return encoder


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
    if k > n:
        raise ConfigError(f"cluster count k={k} exceeds dataset size {n}")

    encoder = build_encoder(train_set.dim, cfg.target_dim, cfg.hidden_sizes,
                            seed=cfg.seed)
    steps_per_epoch = len(_batch_starts(n, cfg.batch_size))
    total_steps = cfg.epochs * steps_per_epoch
    adam_enc = AdamState(encoder, cfg.learning_rate, cfg.lr_schedule, total_steps)
    rng = np.random.default_rng(cfg.seed + 17)

    for epoch in range(1, cfg.epochs + 1):
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
        loss_sum = 0.0
        count = 0
        for idx in _batch_indices(n, cfg.batch_size, rng):
            emb = forward(encoder, x_train[idx])
            logits = forward(head, emb)
            loss = losses.softmax_cross_entropy(logits, pseudo[idx])
            grad_emb = backward(head, loss.grad)
            backward(encoder, grad_emb)
            adam_step(adam_enc, encoder)
            adam_step(adam_head, head)
            loss_sum += loss.value
            count += 1
        _check_finite(encoder, "encoder")
        _emit(log_fn, event="epoch", scheme="ss", epoch=epoch,
              loss=loss_sum / count, cross_entropy=loss_sum / count,
              lr=adam_enc.effective_lr(adam_enc.t), head_width=head.output_dim,
              steps_per_epoch=steps_per_epoch, total_steps=total_steps)
    return encoder


def _train_sv(train_set: DescriptorSet, cfg: TrainConfig, log_fn) -> MlpModel:
    """Triplet scheme: per step, one (anchor, positive) pair from each of
    `batch_size` distinct classes, embedded by the same encoder, with
    hardest-within-batch mining; optionally plus beta x the distance loss on
    the anchor embeddings."""
    x = train_set.descriptors.astype(nn.DTYPE)
    class_rows = _rows_by_class(train_set.labels)
    eligible = [c for c, rows in class_rows.items() if len(rows) >= 2]
    if len(eligible) < cfg.batch_size:
        raise ConfigError(
            f"need >= batch_size={cfg.batch_size} classes with >= 2 patches, "
            f"found {len(eligible)}"
        )
    eligible.sort()

    encoder = build_encoder(train_set.dim, cfg.target_dim, cfg.hidden_sizes,
                            seed=cfg.seed)
    steps_per_epoch = len(eligible) // cfg.batch_size
    unused_classes = len(eligible) % cfg.batch_size
    total_steps = cfg.epochs * steps_per_epoch
    adam_enc = AdamState(encoder, cfg.learning_rate, cfg.lr_schedule, total_steps)
    rng = np.random.default_rng(cfg.seed + 17)
    nb = cfg.batch_size

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(eligible))
        sums = np.zeros(3)  # total, triplet, distance
        for step in range(steps_per_epoch):
            chosen = order[step * nb:(step + 1) * nb]
            pairs = _sample_triplet_batch(x, class_rows, [eligible[i] for i in chosen], rng)
            emb = forward(encoder, pairs)
            loss_tri = losses.triplet_loss_hardest(emb[:nb], emb[nb:], cfg.margin)
            if cfg.use_distance_loss:
                loss_dist = losses.distance_loss(pairs[:nb], emb[:nb])
                aux_grad = np.vstack([loss_dist.grad, np.zeros_like(loss_dist.grad)])
                if cfg.distance_loss_on_positives:
                    extra = losses.distance_loss(pairs[nb:], emb[nb:])
                    aux = losses.LossValue(
                        loss_dist.value + extra.value,
                        np.vstack([loss_dist.grad, extra.grad]),
                    )
                else:
                    aux = losses.LossValue(loss_dist.value, aux_grad)
                total = losses.combine(loss_tri, aux, cfg.beta)
                grad, loss_total, dist_val = total.grad, total.value, aux.value
            else:
                grad, loss_total, dist_val = loss_tri.grad, loss_tri.value, 0.0
            backward(encoder, grad)
            adam_step(adam_enc, encoder)
            sums += (loss_total, loss_tri.value, dist_val)
        _check_finite(encoder, "encoder")
        _emit(log_fn, event="epoch", scheme="sv", epoch=epoch,
              loss=sums[0] / steps_per_epoch, triplet=sums[1] / steps_per_epoch,
              distance=sums[2] / steps_per_epoch,
              lr=adam_enc.effective_lr(adam_enc.t),
              steps_per_epoch=steps_per_epoch, total_steps=total_steps,
              unused_classes_per_epoch=unused_classes)
    return encoder


_SCHEME_BODIES = {"us": _train_us, "ss": _train_ss, "sv": _train_sv}
# the scheme names, declared once by the table above; the CLI reads them
SCHEMES = tuple(_SCHEME_BODIES)


def train(train_set: DescriptorSet, config: TrainConfig, log_fn=None) -> MlpModel:
    """Train an encoder by the scheme of the resolved `config`."""
    cfg = config.resolved()
    return _SCHEME_BODIES[cfg.scheme](train_set, cfg, log_fn)


def reduce(encoder: MlpModel, dset: DescriptorSet) -> DescriptorSet:
    """Project a descriptor set through an encoder."""
    if dset.dim != encoder.input_dim:
        raise ShapeError(
            f"descriptor dim {dset.dim} does not match encoder input dim "
            f"{encoder.input_dim}"
        )
    out = project(encoder, dset.descriptors)
    return DescriptorSet(
        descriptors=out,
        labels=dset.labels.copy(),
        sequence_ids=dset.sequence_ids.copy(),
        tiers=None if dset.tiers is None else dset.tiers.copy(),
        normalized=True,
    )


def _rows_by_class(labels: np.ndarray) -> dict:
    rows: dict[int, list] = {}
    for i, lab in enumerate(labels):
        rows.setdefault(int(lab), []).append(i)
    return {c: np.asarray(v) for c, v in rows.items()}


def _sample_triplet_batch(x: np.ndarray, class_rows: dict, chosen_classes,
                          rng: np.random.Generator) -> np.ndarray:
    """(2B, D) rows: anchors first, then positives; row i and row B + i share
    the label of chosen class i."""
    rows = [class_rows[c] for c in chosen_classes]
    # a uniform ordered pair of distinct rows per class: b skips a's slot
    sizes = np.array([len(r) for r in rows])
    a = rng.integers(0, sizes)
    b = rng.integers(0, sizes - 1)
    b += b >= a
    anchors = [r[i] for r, i in zip(rows, a)]
    positives = [r[i] for r, i in zip(rows, b)]
    return x[np.asarray(anchors + positives, dtype=np.int64)]
