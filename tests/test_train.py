import hashlib
import importlib
import os
import signal
import threading
from collections import Counter

import numpy as np
import pytest

from desclite import nn, numerics
from desclite.cluster import _plus_plus_init, kmeans_fit
from desclite.data import DescriptorSet, LabelIndex, extract_descriptors, \
    generate_synthetic, split_dataset
from desclite.eval import eval_matching, eval_retrieval, eval_verification
from desclite.errors import ConfigError, StateError
from desclite.nn import BN_EPS, BN_MOMENTUM, project, save_model
from desclite.numerics import split_rows
from desclite.pca import fit_pca, pca_transform
from desclite.train import TrainConfig, reduce, train

from helpers import record_weight_products

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

    def test_one_seeding_per_recluster(self, monkeypatch):
        seedings = []

        def counted(*args):
            seedings.append(args[2])
            return _plus_plus_init(*args)

        monkeypatch.setattr("desclite.cluster._plus_plus_init", counted)
        cfg = TrainConfig(scheme="ss", target_dim=4, hidden_sizes=(16,), epochs=3,
                          batch_size=16, k=5, recluster_period=1)
        events = []
        train(_random_set(48), cfg, log_fn=events.append)
        assert sum(e["event"] == "recluster" for e in events) == 3
        assert seedings == [5, 5, 5]


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
    # (workers, PAIR_MIN_MULTIPLY_ADDS): one thread, and two with every
    # linear that returns an input gradient pairing its products, which the
    # oracle's 6 to 24-row batches would otherwise never reach
    @pytest.mark.parametrize("workers,pair_min", [(1, nn.PAIR_MIN_MULTIPLY_ADDS), (2, 0)],
                             ids=["serial", "paired"])
    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    def test_models_are_byte_equal(self, name, workers, pair_min, tmp_path, monkeypatch):
        monkeypatch.setattr(nn, "PAIR_MIN_MULTIPLY_ADDS", pair_min)
        handed = record_weight_products(monkeypatch, workers)
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
        assert bool(handed) == (workers == 2)
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


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_trains_and_projects_with_the_parent_s_bits(monkeypatch):
    """A child made by os.fork after the worker thread has run gets a worker
    of its own: its two-part calls end, with the parent's bits."""
    monkeypatch.setattr(numerics, "WORKERS", 2)
    monkeypatch.setattr(nn, "PAIR_MIN_MULTIPLY_ADDS", 0)
    monkeypatch.setattr(nn, "PROJECT_CHUNK", 8)
    dset = _classed_set(12, 3, seed=6)
    cfg = TrainConfig(scheme="us", target_dim=4, hidden_sizes=(8,), epochs=2,
                      batch_size=6, seed=7)

    def work():
        """Digest of a two-part `split_rows`, a trained model (paired
        backwards) and its two-part `project`, and whether the second part
        of `split_rows` ran off the calling thread."""
        threads = []

        def part(lo, hi, bufs):
            threads.append(threading.get_ident())
            rows[lo:hi] = np.arange(lo, hi) ** 2

        rows = np.zeros(20)
        split_rows(part, 20, 10, 1, lambda width: None)
        model = train(dset, cfg)
        digest = hashlib.sha256(rows.tobytes() + model.params.tobytes()
                                + project(model, dset.descriptors).tobytes())
        return digest.digest() + bytes([len(set(threads)) == 2])

    want = work()  # the parent's worker thread has now run
    assert want[-1] == 1
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report, or die by the alarm if a call hangs
        code = 1
        try:
            os.close(read)
            signal.alarm(30)
            os.write(write, work())
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read, "rb") as fh:
        got = fh.read()
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, (
        "the child was killed by a signal" if os.WIFSIGNALED(status)
        else "the child raised")
    assert got == want


class TestFloat32:
    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    def test_one_epoch_keeps_every_array_float32(self, name, monkeypatch):
        stepped = []  # (Adam state, model) of the encoder and its decoder or head

        def recording_adam_step(state, model):
            stepped.append((state, model))
            nn.adam_step(state, model)

        monkeypatch.setattr(train_module, "adam_step", recording_adam_step)
        dset = _classed_set(40, 3, seed=5)
        cfg = TrainConfig(target_dim=8, hidden_sizes=(24, 20), epochs=1, seed=4,
                          **ORACLE_CONFIGS[name])
        encoder = train(dset, cfg)
        assert any(model is encoder for _, model in stepped)
        for state, model in stepped:
            arrays = [model.params, model.grads, state.m, state.v, *state.scratch]
            for _, param, grad in model.parameters():
                arrays += [param, grad]
            for layer in model.layers:
                if layer.kind == "batchnorm":
                    arrays += [layer.running_mean, layer.running_var]
            assert {a.dtype for a in arrays} == {np.dtype(np.float32)}

        reduced = reduce(encoder, dset)
        assert reduced.descriptors.dtype == np.float64
        norms = np.linalg.norm(reduced.descriptors, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-12


class TestUnusedClasses:
    @pytest.mark.parametrize("classes,batch,unused", [(350, 256, 94), (20, 6, 2),
                                                      (18, 6, 0)])
    def test_sv_epochs_report_the_classes_left_out(self, classes, batch, unused):
        # paper-3k's shape first: 350 classes at batch 256 leave 94 out
        cfg = TrainConfig(scheme="sv", target_dim=4, hidden_sizes=(8,), epochs=2,
                          batch_size=batch, seed=3)
        events = []
        train(_classed_set(classes, 2, dim=8), cfg, log_fn=events.append)
        assert [e["unused_classes_per_epoch"] for e in events] == [unused] * 2
        assert events[0]["steps_per_epoch"] == classes // batch


class TestTripletPairs:
    def test_each_pair_is_two_distinct_rows_of_its_class(self):
        # classes of 2 to 12 rows; the rows of a class are not contiguous
        rng = np.random.default_rng(12)
        labels = rng.permutation(np.repeat(np.arange(40), rng.integers(2, 13, size=40)))
        index = LabelIndex(np.arange(len(labels)), labels, 40)
        chosen = rng.permutation(40)[:25]
        for _ in range(20):
            got = train_module._triplet_rows(index, chosen, rng)
            anchors, positives = got[:25], got[25:]
            assert (anchors != positives).all()
            assert (labels[anchors] == chosen).all()
            assert (labels[positives] == chosen).all()

    def test_ordered_pairs_of_a_three_row_class_are_uniform(self):
        # Floyd's picks would never put the class's last row first
        index = LabelIndex(np.array([2, 5, 9]), np.array([7, 7, 7]), 8)
        n = 60000
        got = train_module._triplet_rows(index, np.full(n, 7), np.random.default_rng(8))
        pairs = Counter(zip(got[:n].tolist(), got[n:].tolist()))
        assert sorted(pairs) == [(a, b) for a in (2, 5, 9) for b in (2, 5, 9) if a != b]
        for count in pairs.values():
            assert abs(count / n - 1 / 6) <= 0.01

    def test_rows_are_those_of_per_class_row_lists(self):
        # the same two draws index each class's ascending row list, as a
        # dict of per-class lists built row by row would
        rng = np.random.default_rng(5)
        labels = rng.permutation(np.repeat(np.arange(30), rng.integers(2, 9, size=30)))
        class_rows = {}
        for row, label in enumerate(labels):
            class_rows.setdefault(int(label), []).append(row)
        chosen = rng.permutation(30)[:17]
        got = train_module._triplet_rows(LabelIndex(np.arange(len(labels)), labels, 30),
                                         chosen, np.random.default_rng(9))
        draw = np.random.default_rng(9)
        sizes = np.array([len(class_rows[c]) for c in chosen])
        a = draw.integers(0, sizes)
        b = draw.integers(0, sizes - 1)
        b += b >= a
        want = [class_rows[c][i] for c, i in zip(chosen, a)] + \
            [class_rows[c][i] for c, i in zip(chosen, b)]
        assert got.tolist() == want


class TestEpochEvents:
    # (config, loss terms after `loss`, weight of `distance`, extra fields)
    CASES = {
        "us": (dict(scheme="us"), ["reconstruction", "distance"], None, []),
        "us_dist": (dict(scheme="us", use_distance_loss=True, alpha=0.7),
                    ["reconstruction", "distance"], 0.7, []),
        "ss": (dict(scheme="ss", k=5), ["cross_entropy"], None, ["head_width"]),
        "sv": (dict(scheme="sv"), ["triplet", "distance"], None,
               ["unused_classes_per_epoch"]),
        "sv_dist": (dict(scheme="sv", use_distance_loss=True, beta=2.5),
                    ["triplet", "distance"], 2.5, ["unused_classes_per_epoch"]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_keys_and_the_weighted_loss(self, name):
        config, terms, weight, extra = self.CASES[name]
        cfg = TrainConfig(target_dim=4, hidden_sizes=(16,), epochs=2, batch_size=6,
                          seed=2, **config)
        events = []
        train(_classed_set(20, 3), cfg, log_fn=events.append)
        epochs = [e for e in events if e["event"] == "epoch"]
        assert len(epochs) == 2
        for e in epochs:
            assert list(e) == ["event", "scheme", "epoch", "loss", *terms, "lr",
                               "steps_per_epoch", "total_steps", *extra]
            main = e[terms[0]]
            if weight is None:
                assert e["loss"] == main
                assert e.get("distance", 0.0) == 0.0
            else:
                assert e["distance"] > 0.0
                assert e["loss"] == pytest.approx(main + weight * e["distance"],
                                                  rel=1e-12)


def test_sv_32_beats_pca_32_on_every_task():
    """The paper's claim at desk scale: `sv`-32 (batch 64, hidden (512,),
    30 epochs) beats PCA-32 on verification, matching and retrieval.

    Data seed 314 (generation and the 0.7/0.1/0.2 class split), train seed
    27; both were fixed before the first run and lie outside the seeds used
    while developing (1-7, 11, 41-43, 101, 202). Eval runs at its defaults."""
    dset = extract_descriptors(generate_synthetic(500, 6, seed=314))
    train_set, _, test_set = split_dataset(dset, (0.7, 0.1, 0.2), seed=314)
    encoder = train(train_set, TrainConfig(scheme="sv", target_dim=32, hidden_sizes=(512,),
                                           epochs=30, batch_size=64, seed=27))
    tasks = (eval_verification, eval_matching, eval_retrieval)
    sv = [task(reduce(encoder, test_set)).map_overall for task in tasks]
    pca = [task(pca_transform(fit_pca(train_set, 32), test_set)).map_overall
           for task in tasks]
    assert all(a > b for a, b in zip(sv, pca)), (sv, pca)
