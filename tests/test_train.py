import importlib
from collections import Counter

import numpy as np
import pytest

from desclite import nn
from desclite.cluster import kmeans_fit
from desclite.data import DescriptorSet
from desclite.errors import ConfigError, StateError
from desclite.nn import BN_EPS, BN_MOMENTUM, save_model
from desclite.train import TrainConfig, train

train_module = importlib.import_module("desclite.train")


class TestSelfSupervisedLog:
    def test_recluster_events_carry_kmeans_signals(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 8))[rng.integers(6, size=48)]  # 6 distinct rows
        dset = DescriptorSet(descriptors=x, labels=np.arange(48),
                             sequence_ids=np.zeros(48, dtype=np.int64))
        cfg = TrainConfig(scheme="ss", target_dim=4, hidden_sizes=(16,), epochs=3,
                          batch_size=16, k=8, recluster_period=2, seed=3)
        events = []
        train(dset, cfg, log_fn=events.append)
        reclusters = [e for e in events if e["event"] == "recluster"]
        assert [(e["epoch"], e["source"]) for e in reclusters] == \
            [(1, "original"), (3, "embedding")]
        for e in reclusters:
            assert e["k"] == 8
            assert 1 <= e["iterations"] <= 50
            assert 0 <= e["min_cluster_size"] <= e["max_cluster_size"] <= 48
        # epoch 1 clusters the input itself, seeded with seed + 47; 8 clusters
        # over 6 distinct rows must be refilled
        model = kmeans_fit(x, 8, seed=cfg.seed + 47)
        sizes = np.bincount(model.assignments, minlength=8)
        first = reclusters[0]
        assert first["objective"] == model.objective
        assert first["iterations"] == model.iterations_run
        assert first["empty_repaired"] == model.empty_repaired > 0
        assert (first["min_cluster_size"], first["max_cluster_size"]) == \
            (sizes.min(), sizes.max())


def _random_set(n, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    return DescriptorSet(descriptors=rng.standard_normal((n, dim)),
                         labels=np.arange(n), sequence_ids=np.zeros(n, dtype=np.int64))


class TestLinearSchedule:
    # 32 rows leave no trailing row at batch 8, 33 leave one (dropped).
    # The rate reaches 0 only if the step count matches the batches run.
    @pytest.mark.parametrize("scheme", ["us", "ss"])
    @pytest.mark.parametrize("rows", [32, 33])
    def test_last_epoch_ends_at_zero_lr(self, scheme, rows):
        cfg = TrainConfig(scheme=scheme, target_dim=4, hidden_sizes=(16,), epochs=3,
                          batch_size=8, lr_schedule="linear", k=4, seed=1)
        events = []
        train(_random_set(rows), cfg, log_fn=events.append)
        epochs = [e for e in events if e["event"] == "epoch"]
        assert [e["epoch"] for e in epochs] == [1, 2, 3]
        assert epochs[-2]["lr"] > 0.0
        assert epochs[-1]["lr"] == 0.0


class TestBatchSize:
    @pytest.mark.parametrize("scheme", ["us", "ss", "sv"])
    def test_batch_of_one_rejected(self, scheme):
        cfg = TrainConfig(scheme=scheme, target_dim=4, batch_size=1)
        with pytest.raises(ConfigError, match="batch_size"):
            cfg.resolved()


def _classed_set(classes, per_class, dim=16, seed=0):
    rng = np.random.default_rng(seed)
    n = classes * per_class
    return DescriptorSet(descriptors=np.abs(rng.standard_normal((n, dim))),
                         labels=np.repeat(np.arange(classes), per_class),
                         sequence_ids=np.tile(np.arange(per_class), classes))


class TestStepCounts:
    # (scheme, set, batch, steps per epoch): us and ss drop a trailing
    # single row (33 rows at batch 8 give 4 steps); sv makes one step per
    # batch of classes (20 classes at batch 6 give 3)
    CASES = [("us", _random_set(33), 8, 4), ("ss", _random_set(33), 8, 4),
             ("sv", _classed_set(20, 3), 6, 3)]

    @pytest.mark.parametrize("scheme,dset,batch,steps", CASES)
    def test_epoch_events_count_the_adam_steps(self, scheme, dset, batch, steps,
                                               monkeypatch):
        calls = Counter()

        def counting_adam_step(state, model):
            calls[id(state)] += 1
            nn.adam_step(state, model)

        monkeypatch.setattr(train_module, "adam_step", counting_adam_step)
        cfg = TrainConfig(scheme=scheme, target_dim=4, hidden_sizes=(16,), epochs=3,
                          batch_size=batch, k=4, seed=2)
        events = []
        train(dset, cfg, log_fn=events.append)
        epochs = [e for e in events if e["event"] == "epoch"]
        assert [(e["steps_per_epoch"], e["total_steps"]) for e in epochs] == \
            [(steps, 3 * steps)] * 3
        assert max(calls.values()) == 3 * steps  # the encoder's Adam steps


# Reference oracle: the train-mode arithmetic of Linear and BatchNorm and the
# per-parameter Adam loop as written before the flat parameter buffer and the
# in-place layer passes. Training must reproduce them byte for byte.

def _reference_linear_forward(self, x):
    self._cache = x
    return x @ self.weight + self.bias


def _reference_linear_backward(self, grad):
    x = self._cache
    self._cache = None
    self.grad_weight[...] = x.T @ grad
    self.grad_bias[...] = grad.sum(axis=0)
    return grad @ self.weight.T


def _reference_batchnorm_forward(self, x):
    n = len(x)
    mean = x.mean(axis=0)
    var = x.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    x_hat = (x - mean) * inv_std
    self._cache = (x_hat, inv_std)
    self.running_mean = (1.0 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mean
    self.running_var = (
        (1.0 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * var * n / (n - 1)
    )
    return x_hat * self.gamma + self.beta


def _reference_batchnorm_backward(self, grad):
    x_hat, inv_std = self._cache
    self._cache = None
    self.grad_gamma[...] = (grad * x_hat).sum(axis=0)
    self.grad_beta[...] = grad.sum(axis=0)
    g = grad * self.gamma
    return (g - g.mean(axis=0) - x_hat * (g * x_hat).mean(axis=0)) * inv_std


def _reference_adam_step(state, model):
    # per-key moments, kept on the state next to its own flat ones
    moments = state.__dict__.setdefault("reference_moments", {})
    state.t += 1
    lr = state.effective_lr(state.t)
    b1, b2, eps = nn.AdamState.BETA1, nn.AdamState.BETA2, nn.AdamState.EPS
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for key, param, grad in model.parameters():
        m = moments.setdefault(key + ".m", np.zeros_like(param))
        v = moments.setdefault(key + ".v", np.zeros_like(param))
        m *= b1
        m += (1.0 - b1) * grad
        v *= b2
        v += (1.0 - b2) * grad * grad
        param -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


# Batch sizes are not powers of two, so that dividing by the batch size
# rounds, unlike multiplying by its reciprocal.
ORACLE_CONFIGS = {
    "us": dict(scheme="us", batch_size=24),
    "us_dist": dict(scheme="us", batch_size=24, use_distance_loss=True),
    "ss": dict(scheme="ss", batch_size=20, k=6, recluster_period=1),
    "sv": dict(scheme="sv", batch_size=6),
    "sv_dist": dict(scheme="sv", batch_size=6, use_distance_loss=True),
    "sv_dist_positives": dict(scheme="sv", batch_size=6, use_distance_loss=True,
                              distance_loss_on_positives=True),
}


class TestReferenceOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    def test_models_are_byte_equal(self, name, tmp_path, monkeypatch):
        dset = _classed_set(40, 3, seed=5)
        cfg = TrainConfig(target_dim=8, hidden_sizes=(24, 20), epochs=3, seed=4,
                          **ORACLE_CONFIGS[name])

        def model_bytes(tag):
            events = []
            path = str(tmp_path / f"{tag}.dnn")
            save_model(train(dset, cfg, log_fn=events.append), path)
            with open(path, "rb") as fh:
                return fh.read(), events

        got, got_events = model_bytes("flat")
        with monkeypatch.context() as patch:
            patch.setattr(nn.Linear, "forward", _reference_linear_forward)
            patch.setattr(nn.Linear, "backward", _reference_linear_backward)
            patch.setattr(nn.BatchNorm, "forward", _reference_batchnorm_forward)
            patch.setattr(nn.BatchNorm, "backward", _reference_batchnorm_backward)
            patch.setattr(train_module, "adam_step", _reference_adam_step)
            want, want_events = model_bytes("reference")
        assert got == want
        assert got_events == want_events
        if cfg.scheme == "ss":
            assert sum(e["event"] == "recluster" for e in got_events) == 3
