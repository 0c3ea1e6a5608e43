import numpy as np
import pytest

from desclite import nn
from desclite.errors import ConfigError, FormatError, ShapeError, StateError
from desclite.losses import reconstruction_loss
from desclite.nn import (
    AdamState,
    BN_EPS,
    L2Normalize,
    Linear,
    MlpModel,
    adam_step,
    backward,
    build_encoder,
    build_mlp,
    forward,
    load_model,
    project,
    save_model,
)

from helpers import check_model_gradients


class TestBuildEncoder:
    def test_zero_hidden_structure(self):
        model = build_encoder(128, 64, [])
        assert [layer.kind for layer in model.layers] == ["linear", "l2norm"]
        assert model.layers[0].weight.shape == (128, 64)

    def test_two_hidden_parameter_count(self):
        model = build_encoder(128, 64, [512, 512])
        expected = (128 * 512 + 512) + 2 * 512 + (512 * 512 + 512) + 2 * 512 + (512 * 64 + 64)
        assert sum(p.size for _, p, _ in model.parameters()) == expected

    def test_hidden_block_order(self):
        model = build_encoder(16, 8, [32])
        assert [layer.kind for layer in model.layers] == [
            "linear", "relu", "batchnorm", "linear", "l2norm"]

    def test_seed_determinism(self):
        a = build_encoder(16, 8, [32], seed=5)
        b = build_encoder(16, 8, [32], seed=5)
        for (_, pa, _), (_, pb, _) in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)

    def test_more_than_two_hidden_rejected(self):
        with pytest.raises(ConfigError):
            build_encoder(16, 8, [32, 32, 32])

    def test_init_within_glorot_bounds(self):
        model = build_encoder(64, 32, [128], seed=0)
        for layer in model.layers:
            if layer.kind == "linear":
                limit = np.sqrt(6.0 / (layer.in_dim + layer.out_dim))
                assert np.abs(layer.weight).max() <= limit
                assert np.array_equal(layer.bias, np.zeros(layer.out_dim))


class TestForward:
    def test_identity_linear_plus_l2norm(self):
        layer = Linear(2, 2)
        layer.weight = np.eye(2)
        model = MlpModel([layer, L2Normalize()], 2, 2, mode="eval")
        out = forward(model, [[3.0, 4.0]])
        assert np.allclose(out, [[0.6, 0.8]], atol=1e-12)

    def test_relu(self):
        model = build_encoder(2, 2, [])
        model.layers[0].weight = np.eye(2)
        relu_in = np.array([[-1.0, 2.0]])
        from desclite.nn import ReLU
        assert np.array_equal(ReLU().forward(relu_in), [[0.0, 2.0]])

    def test_batchnorm_definition(self):
        from desclite.nn import BatchNorm
        bn = BatchNorm(1)
        x = np.array([[3.0], [5.0], [7.0]])  # mean 5, biased var 8/3
        out = bn.forward(x)
        var = x.var(axis=0)
        expected = (x - 5.0) / np.sqrt(var + BN_EPS)
        assert np.allclose(out, expected, atol=1e-12)

    def test_batchnorm_exact_stats_example(self):
        from desclite.nn import BatchNorm
        bn = BatchNorm(1)
        x = np.array([[3.0], [7.0]])  # mean 5, biased var 4
        out = bn.forward(x)
        expected = (x - 5.0) / np.sqrt(4.0 + BN_EPS)
        assert np.allclose(out, expected, atol=1e-12)

    def test_batch_of_one_rejected_in_train_mode(self):
        model = build_encoder(4, 2, [8])
        model.set_mode("train")
        with pytest.raises(ConfigError):
            forward(model, np.ones((1, 4)))

    def test_unit_norm_outputs(self):
        rng = np.random.default_rng(0)
        model = build_encoder(6, 3, [10], seed=1)
        model.set_mode("train")
        out = forward(model, rng.standard_normal((8, 6)))
        norms = np.linalg.norm(out, axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-6)

    def test_zero_row_passthrough(self):
        model = build_encoder(4, 3, [], seed=0)
        model.layers[0].weight[...] = 0.0
        out = forward(model.set_mode("eval"), np.ones((2, 4)))
        assert np.array_equal(out, np.zeros((2, 3)))

    def test_eval_forward_pure(self):
        rng = np.random.default_rng(1)
        model = build_encoder(5, 3, [7], seed=2).set_mode("eval")
        x = rng.standard_normal((4, 5))
        assert np.array_equal(forward(model, x), forward(model, x))

    def test_wrong_width(self):
        model = build_encoder(5, 3, [])
        with pytest.raises(ShapeError):
            forward(model, np.ones((2, 4)))

    def test_batchnorm_train_outputs_standardized(self):
        rng = np.random.default_rng(3)
        model = build_encoder(6, 4, [12], seed=4)
        model.set_mode("train")
        forward(model, rng.standard_normal((32, 6)))
        from desclite.nn import BatchNorm
        bn = [l for l in model.layers if isinstance(l, BatchNorm)][0]
        x_hat = bn._cache[0]
        assert np.abs(x_hat.mean(axis=0)).max() <= 1e-9
        assert np.abs(x_hat.var(axis=0) - 1.0).max() <= 1e-4  # eps shifts var slightly


class TestBackward:
    def test_every_parameter_fd_6_4_2(self):
        rng = np.random.default_rng(10)
        model = build_encoder(6, 2, [4], seed=11)
        x = rng.standard_normal((8, 6))
        target = rng.standard_normal((8, 2))
        check_model_gradients(
            model, lambda out: reconstruction_loss(target, out), x)

    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(12)
        model = build_encoder(5, 3, [6], seed=13)
        model.set_mode("train")
        forward(model, rng.standard_normal((4, 5)))
        backward(model, np.zeros((4, 3)))
        for _, _, grad in model.parameters():
            assert np.array_equal(grad, np.zeros_like(grad))

    def test_l2norm_input_grad_orthogonal_to_output(self):
        rng = np.random.default_rng(14)
        layer = L2Normalize()
        x = rng.standard_normal((5, 4))
        y = layer.forward(x)
        g = layer.backward(y.copy())  # unit upstream along the output
        assert np.abs(g).max() <= 1e-12
        y2 = layer.forward(x)
        g2 = layer.backward(rng.standard_normal((5, 4)))
        assert np.abs((g2 * y2).sum(axis=1)).max() <= 1e-12

    def test_stale_cache_raises(self):
        model = build_encoder(4, 2, [], seed=0)
        model.set_mode("train")
        forward(model, np.ones((2, 4)))
        backward(model, np.ones((2, 2)))
        with pytest.raises(StateError):
            backward(model, np.ones((2, 2)))

    def test_backward_needs_train_mode(self):
        model = build_encoder(4, 2, [], seed=0).set_mode("eval")
        forward(model, np.ones((2, 4)))
        with pytest.raises(StateError):
            backward(model, np.ones((2, 2)))

    def test_returns_input_gradient(self):
        rng = np.random.default_rng(15)
        model = build_encoder(3, 2, [], seed=16)
        model.set_mode("train")
        x = rng.standard_normal((4, 3))
        out = forward(model, x)
        g_in = backward(model, np.ones_like(out))
        assert g_in.shape == x.shape


class TestAdam:
    def _scalar_model(self, value=1.0):
        layer = Linear(1, 1)
        layer.weight[...] = value
        return MlpModel([layer], 1, 1), layer

    def test_first_step_magnitude_approx_lr(self):
        model, layer = self._scalar_model()
        layer.grad_weight[...] = 2.5
        state = AdamState(model, learning_rate=0.01)
        before = layer.weight.copy()
        adam_step(state, model)
        delta = before - layer.weight
        assert delta[0, 0] == pytest.approx(0.01, rel=1e-6)

    def test_zero_gradient_keeps_parameter(self):
        model, layer = self._scalar_model()
        state = AdamState(model, learning_rate=0.01)
        adam_step(state, model)
        assert layer.weight[0, 0] == 1.0

    def test_linear_decay_reaches_zero_at_final_step(self):
        model, layer = self._scalar_model()
        state = AdamState(model, learning_rate=0.1, decay="linear", total_steps=10)
        for step in range(1, 11):
            layer.grad_weight[...] = 1.0
            before = layer.weight.copy()
            adam_step(state, model)
            if step == 10:
                assert np.array_equal(layer.weight, before)  # lr hit zero
        assert state.effective_lr(10) == 0.0

    def test_decay_validation(self):
        model, _ = self._scalar_model()
        with pytest.raises(ConfigError):
            AdamState(model, 0.1, decay="linear")

    def test_rebound_parameter_raises_and_updates_nothing(self):
        model = build_encoder(4, 2, [3], seed=0)
        state = AdamState(model, learning_rate=0.01)
        model.grads[...] = 1.0
        layer = model.layers[0]
        layer.weight = layer.weight.copy()  # detached from the flat buffer
        params, weight = model.params.copy(), layer.weight.copy()
        with pytest.raises(StateError, match="weight"):
            adam_step(state, model)
        assert np.array_equal(model.params, params)
        assert np.array_equal(layer.weight, weight)
        assert state.t == 0

    def test_parameters_view_the_flat_buffers(self):
        model = build_encoder(5, 3, [4], seed=1)
        for _, param, grad in model.parameters():
            assert param.base is model.params and grad.base is model.grads
        assert model.params.size == sum(p.size for _, p, _ in model.parameters())


class TestSerialization:
    def test_round_trip_bit_exact_forward(self, tmp_path):
        rng = np.random.default_rng(20)
        model = build_encoder(6, 3, [8, 5], seed=21)
        model.set_mode("train")
        for _ in range(3):  # move running stats off their init
            forward(model, rng.standard_normal((16, 6)))
        model.set_mode("eval")
        path = str(tmp_path / "m.dnn")
        save_model(model, path)
        back = load_model(path)
        x = rng.standard_normal((5, 6))
        assert np.array_equal(forward(model, x), forward(back, x))

    def test_truncated_file(self, tmp_path):
        model = build_encoder(4, 2, [3], seed=0)
        path = tmp_path / "m.dnn"
        save_model(model, str(path))
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(FormatError):
            load_model(str(path))

    def test_wrong_expected_input_dim(self, tmp_path):
        model = build_encoder(4, 2, [], seed=0)
        path = str(tmp_path / "m.dnn")
        save_model(model, path)
        with pytest.raises(ShapeError):
            load_model(path, expect_input_dim=8)

    def test_loads_in_eval_mode(self, tmp_path):
        model = build_encoder(4, 2, [], seed=0)
        path = str(tmp_path / "m.dnn")
        save_model(model, path)
        assert load_model(path).mode == "eval"


def _reference_eval_forward(model, x):
    """Layer-by-layer eval-mode arithmetic, with batchnorm applying its
    running statistics unfolded: the oracle for the folded `project` plan."""
    for layer in model.layers:
        if layer.kind == "linear":
            x = x @ layer.weight + layer.bias
        elif layer.kind == "relu":
            x = np.maximum(x, 0.0)
        elif layer.kind == "batchnorm":
            inv = 1.0 / np.sqrt(layer.running_var + BN_EPS)
            x = (x - layer.running_mean) * inv * layer.gamma + layer.beta
        else:
            norms = np.linalg.norm(x, axis=1)
            zero = norms < 1e-12
            x = x / np.where(zero, 1.0, norms)[:, None]
            x[zero] = 0.0
    return x


def _trained_encoder(hidden, rng):
    model = build_encoder(12, 6, hidden, seed=31)
    model.set_mode("train")
    for _ in range(2):  # move running stats off their init
        forward(model, rng.standard_normal((32, 12)))
    return model.set_mode("eval")


class TestProject:
    @pytest.mark.parametrize("hidden", [[], [16], [16, 8]])
    def test_matches_plain_forward(self, hidden, monkeypatch):
        monkeypatch.setattr(nn, "PROJECT_CHUNK", 17)  # force ragged chunking
        rng = np.random.default_rng(30)
        model = _trained_encoder(hidden, rng)
        x = rng.standard_normal((100, 12))
        fast = project(model, x)
        assert np.abs(_reference_eval_forward(model, x) - fast).max() <= 1e-9

    @pytest.mark.parametrize("hidden", [[], [16, 8]])
    def test_eval_forward_is_project(self, hidden, monkeypatch):
        monkeypatch.setattr(nn, "PROJECT_CHUNK", 17)
        rng = np.random.default_rng(36)
        model = _trained_encoder(hidden, rng)
        x = rng.standard_normal((50, 12))
        assert np.array_equal(forward(model, x), project(model, x))

    def test_does_not_mutate_input(self, monkeypatch):
        monkeypatch.setattr(nn, "PROJECT_CHUNK", 8)
        rng = np.random.default_rng(32)
        model = build_encoder(5, 3, [7], seed=33).set_mode("eval")
        x = rng.standard_normal((40, 5))
        keep = x.copy()
        project(model, x)
        assert np.array_equal(x, keep)

    def test_deterministic(self):
        rng = np.random.default_rng(34)
        model = build_encoder(5, 3, [7], seed=35).set_mode("eval")
        x = rng.standard_normal((23, 5))
        assert np.array_equal(project(model, x), project(model, x))


class TestBuildMlp:
    def test_decoder_has_no_l2norm(self):
        model = build_mlp(8, 16, [12], normalize_output=False)
        assert model.layers[-1].kind == "linear"
