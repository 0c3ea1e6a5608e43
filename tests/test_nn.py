import struct
import tracemalloc

import numpy as np
import pytest

from desclite import nn
from desclite.errors import ConfigError, FormatError, ShapeError, StateError
from desclite.losses import reconstruction_loss
from desclite.nn import (
    AdamState,
    BN_EPS,
    BatchNorm,
    L2Normalize,
    Linear,
    MlpModel,
    ReLU,
    adam_step,
    backward,
    build_encoder,
    build_mlp,
    forward,
    load_model,
    project,
    save_model,
)

from helpers import (check_model_gradients, record_forward_parts, record_weight_products,
                     record_worker_parts)


@pytest.fixture
def float64_layers(monkeypatch):
    """Build and run models in float64: for checks whose tolerances sit
    below float32's resolution (finite differences, 1e-9 oracles)."""
    monkeypatch.setattr(nn, "DTYPE", np.float64)


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
        model = MlpModel([layer, L2Normalize()], 2, 2)
        out = project(model, [[3.0, 4.0]])
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
        out = bn.forward(x.copy())  # the layer overwrites its input
        var = x.var(axis=0)
        expected = (x - 5.0) / np.sqrt(var + BN_EPS)
        assert np.allclose(out, expected, atol=1e-12)

    def test_batchnorm_exact_stats_example(self):
        from desclite.nn import BatchNorm
        bn = BatchNorm(1)
        x = np.array([[3.0], [7.0]])  # mean 5, biased var 4
        out = bn.forward(x.copy())  # the layer overwrites its input
        expected = (x - 5.0) / np.sqrt(4.0 + BN_EPS)
        assert np.allclose(out, expected, atol=1e-12)

    def test_batch_of_one_rejected_in_train_mode(self):
        model = build_encoder(4, 2, [8])
        with pytest.raises(ConfigError):
            forward(model, np.ones((1, 4)))

    def test_unit_norm_outputs(self):
        rng = np.random.default_rng(0)
        model = build_encoder(6, 3, [10], seed=1)
        out = forward(model, rng.standard_normal((8, 6)))
        norms = np.linalg.norm(out, axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-6)

    def test_zero_row_passthrough(self):
        model = build_encoder(4, 3, [], seed=0)
        model.layers[0].weight[...] = 0.0
        out = project(model, np.ones((2, 4)))
        assert np.array_equal(out, np.zeros((2, 3)))

    def test_eval_forward_pure(self):
        # `project` changes no parameter or running statistic
        rng = np.random.default_rng(1)
        model = build_encoder(5, 3, [7], seed=2)
        forward(model, rng.standard_normal((6, 5)))  # move running stats off their init
        bn = model.layers[2]
        before = (model.params.copy(), bn.running_mean.copy(), bn.running_var.copy())
        project(model, rng.standard_normal((4, 5)))
        after = (model.params, bn.running_mean, bn.running_var)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))

    def test_wrong_width(self):
        model = build_encoder(5, 3, [])
        with pytest.raises(ShapeError):
            forward(model, np.ones((2, 4)))

    def test_batchnorm_train_outputs_standardized(self, float64_layers):
        rng = np.random.default_rng(3)
        model = build_encoder(6, 4, [12], seed=4)
        forward(model, rng.standard_normal((32, 6)))
        from desclite.nn import BatchNorm
        bn = [l for l in model.layers if isinstance(l, BatchNorm)][0]
        x_hat = bn._cache[0]
        assert np.abs(x_hat.mean(axis=0)).max() <= 1e-9
        assert np.abs(x_hat.var(axis=0) - 1.0).max() <= 1e-4  # eps shifts var slightly


class TestBackward:
    def test_every_parameter_fd_6_4_2(self, float64_layers):
        rng = np.random.default_rng(10)
        model = build_encoder(6, 2, [4], seed=11)
        x = rng.standard_normal((8, 6))
        target = rng.standard_normal((8, 2))
        check_model_gradients(
            model, lambda out: reconstruction_loss(target, out), x)

    @pytest.mark.parametrize("hidden", [[], [8], [8, 6]])
    def test_float32_gradients_track_float64(self, hidden, monkeypatch):
        # one model and batch in both dtypes; the tolerance is set by
        # float32's resolution, relative to each tensor's largest gradient
        rng = np.random.default_rng(17)
        x = rng.standard_normal((16, 6))
        target = rng.standard_normal((16, 3))

        def gradients(dtype):
            monkeypatch.setattr(nn, "DTYPE", dtype)
            model = build_encoder(6, 3, hidden, seed=18)
            out = forward(model, x)
            backward(model, reconstruction_loss(target.astype(dtype), out).grad)
            assert model.grads.dtype == dtype
            return {key: grad.astype(np.float64) for key, _, grad in model.parameters()}

        narrow, wide = gradients(np.float32), gradients(np.float64)
        tol = 100 * np.finfo(np.float32).eps
        for key, want in wide.items():
            assert np.abs(narrow[key] - want).max() <= tol * np.abs(want).max(), key

    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(12)
        model = build_encoder(5, 3, [6], seed=13)
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
        forward(model, np.ones((2, 4)))
        backward(model, np.ones((2, 2)))
        with pytest.raises(StateError):
            backward(model, np.ones((2, 2)))

    def test_backward_needs_train_mode(self):
        # a backward needs a training forward's caches; `project` leaves none
        model = build_encoder(4, 2, [], seed=0)
        project(model, np.ones((2, 4)))
        with pytest.raises(StateError):
            backward(model, np.ones((2, 2)))

    def test_returns_input_gradient(self):
        rng = np.random.default_rng(15)
        model = build_encoder(3, 2, [], seed=16)
        x = rng.standard_normal((4, 3))
        out = forward(model, x)
        g_in = backward(model, np.ones_like(out))
        assert g_in.shape == x.shape


_LAYER_OF_KIND = {"linear": lambda: Linear(4, 4), "relu": ReLU,
                  "batchnorm": lambda: BatchNorm(4), "l2norm": L2Normalize}


class TestStackShape:
    @pytest.mark.parametrize("kinds", [
        (),
        ("relu", "linear"),
        ("linear", "relu", "batchnorm"),
        ("linear", "l2norm", "l2norm"),
        ("linear", "relu", "batchnorm") * 3 + ("linear",),
        ("linear", "batchnorm", "relu", "linear"),
        ("linear", "relu", "linear"),
    ])
    def test_any_other_layer_order_is_refused(self, kinds):
        with pytest.raises(ShapeError, match="layer stack"):
            MlpModel([_LAYER_OF_KIND[kind]() for kind in kinds], 4, 4)

    # input dim, first linear in -> out, batchnorm width, second linear
    # in -> out, output dim
    @pytest.mark.parametrize("dims", [
        (5, 4, 6, 6, 6, 3, 3),
        (4, 4, 6, 5, 6, 3, 3),
        (4, 4, 6, 6, 5, 3, 3),
        (4, 4, 6, 6, 6, 3, 2),
        (4, 4, 0, 0, 0, 3, 3),
        (0, 0, 6, 6, 6, 3, 3),
    ])
    def test_widths_that_do_not_chain_or_are_zero_are_refused(self, dims):
        i, a, b, c, d, e, o = dims
        layers = [Linear(a, b), ReLU(), BatchNorm(c), Linear(d, e)]
        with pytest.raises(ShapeError, match="layer widths"):
            MlpModel(layers, i, o)

    @pytest.mark.parametrize("hidden", [[0], [8, 0], [-1]])
    def test_build_mlp_refuses_a_hidden_width_below_1_as_config(self, hidden):
        with pytest.raises(ConfigError):
            build_mlp(8, 4, hidden)


def _built(hidden, normalize, loaded, tmp_path, seed=40):
    """A `build_mlp` stack with nonzero biases and batchnorm affines, so that
    no parameter's gradient is all zero; after a DNN1 round trip if
    `loaded`."""
    model = build_mlp(6, 4, hidden, seed=seed, normalize_output=normalize)
    rng = np.random.default_rng(seed)
    for layer in model.layers:
        if layer.kind == "linear":
            layer.bias[...] = rng.standard_normal(layer.out_dim)
        elif layer.kind == "batchnorm":
            layer.gamma[...] = rng.uniform(0.5, 1.5, layer.width)
            layer.beta[...] = rng.standard_normal(layer.width)
    if loaded:
        path = str(tmp_path / "m.dnn")
        save_model(model, path)
        model = load_model(path)
    return model


def _copying_pass(model, batch, upstream):
    """The training pass with a fresh copy of every array handed to a layer:
    the oracle for the passes that let layers overwrite what they are
    handed."""
    x = batch.astype(nn.DTYPE)
    for layer in model.layers:
        x = layer.forward(x.copy())
    g = upstream.astype(nn.DTYPE)
    for layer in reversed(model.layers):
        g = layer.backward(g.copy())
    return x, g, model.grads.copy()


# every stack shape that build_mlp makes: 0, 1 and 2 hidden blocks, with and
# without the final l2norm
BUILT_STACKS = [(hidden, normalize) for hidden in ([], [7], [7, 5])
                for normalize in (False, True)]


class TestOwnership:
    @pytest.mark.parametrize("hidden,normalize", BUILT_STACKS)
    @pytest.mark.parametrize("loaded", [False, True])
    def test_caller_arrays_come_back_unchanged(self, hidden, normalize, loaded, tmp_path):
        model = _built(hidden, normalize, loaded, tmp_path)
        rng = np.random.default_rng(41)
        batch = rng.standard_normal((9, 6)).astype(np.float32)
        upstream = rng.standard_normal((9, 4)).astype(np.float32)
        kept = batch.copy(), upstream.copy()
        forward(model, batch)
        backward(model, upstream)
        assert batch.tobytes() == kept[0].tobytes()
        assert upstream.tobytes() == kept[1].tobytes()

    @pytest.mark.parametrize("hidden,normalize", BUILT_STACKS)
    @pytest.mark.parametrize("loaded", [False, True])
    def test_same_bits_as_a_pass_that_copies(self, hidden, normalize, loaded, tmp_path):
        rng = np.random.default_rng(42)
        batch = rng.standard_normal((9, 6))
        upstream = rng.standard_normal((9, 4))
        model = _built(hidden, normalize, loaded, tmp_path)
        want_out, want_g, want_grads = _copying_pass(model, batch, upstream)
        model = _built(hidden, normalize, loaded, tmp_path)
        out = forward(model, batch)
        g_in = backward(model, upstream)
        assert out.tobytes() == want_out.tobytes()
        assert g_in.tobytes() == want_g.tobytes()
        assert model.grads.tobytes() == want_grads.tobytes()
        assert all(np.any(grad != 0.0) for _, _, grad in model.parameters())

    @pytest.mark.parametrize("hidden", [[], [16], [16, 12]])
    def test_backward_without_input_gradient_fills_the_same_gradients(self, hidden):
        rng = np.random.default_rng(43)
        batch = rng.standard_normal((10, 8)).astype(np.float32)
        target = rng.standard_normal((10, 4)).astype(np.float32)
        grads = []
        for input_grad in (True, False):
            model = build_encoder(8, 4, hidden, seed=44)
            out = forward(model, batch)
            g_in = backward(model, reconstruction_loss(target, out).grad,
                            input_grad=input_grad)
            assert (g_in is None) == (not input_grad)
            grads.append(model.grads.copy())
        assert grads[0].tobytes() == grads[1].tobytes()
        assert np.any(grads[0] != 0.0)


class TestTwoWorkers:
    """A linear's backward hands its weight product to the worker thread
    (`numerics.run_pair`) when it returns an input gradient and each product
    takes PAIR_MIN_MULTIPLY_ADDS multiply-adds or more, with the bits of one
    thread."""

    @pytest.mark.parametrize("hidden,normalize", BUILT_STACKS)
    @pytest.mark.parametrize("rows", [4, 9])
    @pytest.mark.parametrize("input_grad", [True, False])
    def test_gradients_keep_the_bytes_of_one_thread(self, hidden, normalize, rows,
                                                    input_grad, monkeypatch, tmp_path):
        # at 9 rows the 6 x 7 and 7 x 5 linears reach the rule (378 and 315
        # multiply-adds) and the 6 x 4, 7 x 4 and 5 x 4 ones do not; at 4
        # rows none does
        monkeypatch.setattr(nn, "PAIR_MIN_MULTIPLY_ADDS", 9 * 7 * 5)
        rng = np.random.default_rng(45)
        batch = rng.standard_normal((rows, 6))
        upstream = rng.standard_normal((rows, 4))
        model = _built(hidden, normalize, False, tmp_path)
        linears = [layer for layer in model.layers if layer.kind == "linear"]
        passes = []
        for workers in (1, 2):
            handed = record_weight_products(monkeypatch, workers)
            forward(model, batch)
            g_in = backward(model, upstream, input_grad=input_grad)
            passes.append((None if g_in is None else g_in.tobytes(),
                           model.grads.tobytes(), [id(a) for a in handed]))
        (serial_g, serial_grads, serial_handed), (g, grads, paired) = passes
        assert g == serial_g and grads == serial_grads
        assert (g is None) == (not input_grad)
        assert serial_handed == []
        want = [id(layer.grad_weight) for layer in reversed(linears)
                if (input_grad or layer is not linears[0])
                and rows * layer.in_dim * layer.out_dim >= 9 * 7 * 5]
        assert paired == want
        if rows == 9 and len(hidden) == 2:
            assert want

    @pytest.mark.parametrize("short", [True, False])
    def test_the_rule_counts_rows_times_both_widths(self, short, monkeypatch):
        # the 256 x 256 linear is the only one that reaches the rule
        rows = -(-nn.PAIR_MIN_MULTIPLY_ADDS // (256 * 256)) - short
        model = build_encoder(16, 8, [256, 256], seed=46)
        rng = np.random.default_rng(47)
        handed = record_weight_products(monkeypatch, 2)
        forward(model, rng.standard_normal((rows, 16)))
        backward(model, rng.standard_normal((rows, 8)), input_grad=False)
        assert [id(a) for a in handed] == ([] if short else [id(model.layers[3].grad_weight)])


# (rows, in_dim, out_dim) of every linear forward the benchmark splits: its
# batches of 256 to 2,048 rows through the 128 -> 512 -> 512 -> 32 encoders
# and us's 32 -> 512 -> 512 -> 128 decoder, each cut in even halves; those
# whose halves are under PAIR_MIN_MULTIPLY_ADDS // 2 left out
SPLIT_FORWARDS = [(rows, i, o) for rows in (256, 512, 1024, 2048)
                  for i, o in ((128, 512), (512, 512), (512, 32), (32, 512), (512, 128))
                  if rows // 2 * i * o >= nn.PAIR_MIN_MULTIPLY_ADDS // 2]


class TestForwardHalves:
    """A linear's forward hands the second row half of its product to the
    worker thread (`numerics.split_rows`) when each half takes
    PAIR_MIN_MULTIPLY_ADDS // 2 multiply-adds or more and the batch holds
    two FORWARD_BLOCKs of rows, with the bits of x @ weight + bias."""

    @pytest.mark.parametrize("rows,in_dim,out_dim", SPLIT_FORWARDS)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_halves_have_the_bits_of_the_whole_product(self, rows, in_dim, out_dim,
                                                       workers, monkeypatch):
        rng = np.random.default_rng(rows + in_dim + out_dim)
        layer = Linear(in_dim, out_dim, rng)
        layer.bias[...] = rng.standard_normal(out_dim)
        x = rng.standard_normal((rows, in_dim)).astype(np.float32)
        kept = x.copy()
        handed = record_forward_parts(monkeypatch, workers)
        out = layer.forward(x)
        assert out.dtype == nn.DTYPE
        assert out.tobytes() == (x @ layer.weight + layer.bias).tobytes()
        assert x.tobytes() == kept.tobytes()
        assert handed == ([(rows // 2, rows)] if workers == 2 else [])

    # each half must reach half the rule: 219 rows of 128 x 512, cut at 128,
    # leave 91 rows (5.96 M) after the cut and stay whole, while 220 leave
    # 92 (6.03 M) and split; 127 rows of 512 x 512 reach the rule but make
    # no two blocks, while 128 do; us's 52-row tail of 512 x 512 (13.6 M)
    # stays whole
    @pytest.mark.parametrize("rows,in_dim,out_dim,cut", [
        (219, 128, 512, None), (220, 128, 512, 128), (127, 512, 512, None),
        (128, 512, 512, 64), (52, 512, 512, None)])
    def test_the_rule_and_the_row_count_decide_the_split(self, rows, in_dim, out_dim,
                                                         cut, monkeypatch):
        rng = np.random.default_rng(48)
        layer = Linear(in_dim, out_dim, rng)
        x = rng.standard_normal((rows, in_dim)).astype(np.float32)
        handed = record_forward_parts(monkeypatch, 2)
        out = layer.forward(x)
        assert handed == ([] if cut is None else [(cut, rows)])
        assert out.tobytes() == (x @ layer.weight + layer.bias).tobytes()

    def test_the_training_pass_leaves_the_batch_and_keeps_the_bits(self, monkeypatch):
        # the float32 batch is the first linear's input itself
        rng = np.random.default_rng(49)
        batch = rng.standard_normal((256, 128)).astype(np.float32)
        kept = batch.copy()
        outs = []
        for workers in (1, 2):
            model = build_encoder(128, 32, [512, 512], seed=50)
            handed = record_forward_parts(monkeypatch, workers)
            outs.append(forward(model, batch).tobytes())
            assert handed == ([(128, 256)] * 2 if workers == 2 else [])
            assert batch.tobytes() == kept.tobytes()
        assert outs[0] == outs[1]


class TestColumnDots:
    # nn._column_dots replaces batchnorm's product-then-sum, so a numpy whose
    # einsum fuses multiply and add, or adds rows in another order, fails here
    # rather than moving trained bits
    @pytest.mark.parametrize("rows", [2, 52, 256, 512, 1024, 2048, 777])
    def test_einsum_sums_equal_product_then_sum(self, rows):
        rng = np.random.default_rng(rows)
        for width in (2, 20, 512):
            a = rng.standard_normal((rows, width)).astype(np.float32)
            b = rng.standard_normal((rows, width)).astype(np.float32)
            for x, y in ((a, a), (a, b)):
                want = (x * y).sum(axis=0).tobytes()
                assert np.einsum("ij,ij->j", x, y).tobytes() == want, (rows, width)
                assert nn._column_dots(x, y).tobytes() == want, (rows, width)

    @pytest.mark.parametrize("rows", [2, 52, 777])
    def test_one_column_and_f_order_match_too(self, rows):
        # numpy sums these pairwise, as einsum does not
        rng = np.random.default_rng(rows)
        for shape, order in (((rows, 1), "C"), ((rows, 20), "F")):
            a = np.asarray(rng.standard_normal(shape).astype(np.float32), order=order)
            b = np.asarray(rng.standard_normal(shape).astype(np.float32), order=order)
            assert nn._column_dots(a, b).tobytes() == (a * b).sum(axis=0).tobytes()


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
        for _ in range(3):  # move running stats off their init
            forward(model, rng.standard_normal((16, 6)))
        path = str(tmp_path / "m.dnn")
        save_model(model, path)
        back = load_model(path)
        x = rng.standard_normal((5, 6))
        assert np.array_equal(project(model, x), project(back, x))

    def test_round_trip_keeps_every_float32_bit(self, tmp_path):
        rng = np.random.default_rng(22)
        model = build_encoder(6, 3, [8], seed=23)
        for _ in range(3):
            forward(model, rng.standard_normal((16, 6)))
        path = str(tmp_path / "m.dnn")
        save_model(model, path)
        back = load_model(path)
        assert back.params.dtype == model.params.dtype == np.float32
        assert back.params.tobytes() == model.params.tobytes()
        for old, new in zip(model.layers, back.layers):
            if old.kind == "batchnorm":
                for stat in ("running_mean", "running_var"):
                    assert getattr(new, stat).dtype == np.float32
                    assert getattr(new, stat).tobytes() == getattr(old, stat).tobytes()

    def test_f64_payload_loads_rounded_to_nearest_float32(self, tmp_path, monkeypatch):
        one = np.float64(1.0)
        ulp = np.spacing(np.float32(1.0)).astype(np.float64)  # 2 ** -23
        # halfway to the next float32 ties to even (down); just above the
        # halfway point rounds up; 0.1 is not a float32
        values = np.array([one + ulp / 2, one + ulp / 2 + ulp / 64, 0.1, -0.1])
        with monkeypatch.context() as patch:
            patch.setattr(nn, "DTYPE", np.float64)
            layer = Linear(2, 2)
            layer.weight[...] = values.reshape(2, 2)
            path = str(tmp_path / "m.dnn")
            save_model(MlpModel([layer], 2, 2), path)
        weight = load_model(path).layers[0].weight
        assert weight.dtype == np.float32
        assert weight.ravel().tolist() == [1.0, float(np.float32(one + ulp)),
                                           float(np.float32(0.1)), float(np.float32(-0.1))]

    def test_truncated_file(self, tmp_path):
        model = build_encoder(4, 2, [3], seed=0)
        path = tmp_path / "m.dnn"
        save_model(model, str(path))
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(FormatError):
            load_model(str(path))

    @pytest.mark.parametrize("kind,dims", [("linear", (4096, 4096)), ("batchnorm", (1 << 24,))])
    def test_a_truncated_layer_allocates_nothing_of_its_declared_size(self, tmp_path,
                                                                      kind, dims):
        # a 4096 x 4096 linear (128 MB as float64) or a batchnorm of width
        # 2^24, declared by a file that holds 9 bytes of payload
        tag = {"linear": 1, "batchnorm": 3}[kind]
        path = tmp_path / "m.dnn"
        path.write_bytes(b"DNN1" + bytes([1]) + struct.pack("<3I", dims[0], dims[-1], 1)
                         + bytes([tag]) + struct.pack(f"<{len(dims)}I", *dims) + bytes(9))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="truncated"):
                load_model(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _reference_eval_forward(model, x):
    """Layer-by-layer projection arithmetic, with batchnorm applying its
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
    for _ in range(2):  # move running stats off their init
        forward(model, rng.standard_normal((32, 12)))
    return model


class TestProject:
    @pytest.mark.parametrize("hidden", [[], [16], [16, 8]])
    def test_matches_plain_forward(self, hidden, monkeypatch, float64_layers):
        monkeypatch.setattr(nn, "PROJECT_CHUNK", 17)  # force ragged chunking
        rng = np.random.default_rng(30)
        model = _trained_encoder(hidden, rng)
        x = rng.standard_normal((100, 12))
        fast = project(model, x)
        assert np.abs(_reference_eval_forward(model, x) - fast).max() <= 1e-9

    def test_does_not_mutate_input(self, monkeypatch):
        monkeypatch.setattr(nn, "PROJECT_CHUNK", 8)
        rng = np.random.default_rng(32)
        model = build_encoder(5, 3, [7], seed=33)
        x = rng.standard_normal((40, 5))
        keep = x.copy()
        project(model, x)
        assert np.array_equal(x, keep)

    def test_deterministic(self):
        rng = np.random.default_rng(34)
        model = build_encoder(5, 3, [7], seed=35)
        x = rng.standard_normal((23, 5))
        assert np.array_equal(project(model, x), project(model, x))

    # chunks of 17 rows: one chunk, two, an odd count, and an even count
    # whose last chunk is short
    @pytest.mark.parametrize("rows,chunks", [(17, 1), (34, 2), (85, 5), (62, 4)])
    @pytest.mark.parametrize("hidden", [[], [16, 8]])
    def test_two_workers_keep_the_bytes_of_one_thread(self, rows, chunks, hidden,
                                                      monkeypatch):
        monkeypatch.setattr(nn, "PROJECT_CHUNK", 17)
        rng = np.random.default_rng(36)
        model = _trained_encoder(hidden, rng)
        x = rng.standard_normal((rows, 12))
        assert -(-rows // 17) == chunks
        record_worker_parts(monkeypatch, 1)
        serial = project(model, x)
        handed = record_worker_parts(monkeypatch, 2)
        assert project(model, x).tobytes() == serial.tobytes()
        assert len(handed) == (chunks > 1)
        assert all(lo % 17 == 0 and hi == rows for lo, hi in handed)

    @pytest.mark.parametrize("rows,split", [(2100, False), (4095, False), (4096, True)])
    def test_a_split_needs_a_full_chunk_for_each_thread(self, rows, split, monkeypatch):
        # 2,100 rows would leave the worker 52
        model = build_encoder(5, 3, [7], seed=37)
        handed = record_worker_parts(monkeypatch, 2)
        project(model, np.ones((rows, 5)))
        assert handed == ([(nn.PROJECT_CHUNK, rows)] if split else [])


class TestBuildMlp:
    def test_decoder_has_no_l2norm(self):
        model = build_mlp(8, 16, [12], normalize_output=False)
        assert model.layers[-1].kind == "linear"
