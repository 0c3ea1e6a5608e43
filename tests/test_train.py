import numpy as np
import pytest

from desclite.cluster import kmeans_fit
from desclite.data import DescriptorSet
from desclite.errors import ConfigError
from desclite.train import TrainConfig, train


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
