import numpy as np
import pytest

from desclite.errors import ConfigError, ShapeError
from desclite.losses import (
    LossValue,
    _column_argmin,
    distance_loss,
    reconstruction_loss,
    softmax_cross_entropy,
    triplet_loss_hardest,
)
from desclite.numerics import pairwise_distance_matrix

from helpers import assert_grad_close, finite_diff_matrix


class TestReconstructionLoss:
    def test_zero_at_equality(self):
        x = np.random.default_rng(0).standard_normal((4, 3))
        loss = reconstruction_loss(x, x.copy())
        assert loss.value == 0.0
        assert np.array_equal(loss.grad, np.zeros_like(x))

    def test_single_row(self):
        loss = reconstruction_loss([[1.0, 0.0]], [[0.0, 0.0]])
        assert loss.value == pytest.approx(1.0, abs=1e-15)

    def test_two_rows(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([[3.0, 4.0], [1.0, 1.0]])
        assert reconstruction_loss(x, y).value == pytest.approx(2.5, abs=1e-15)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 4))
        y = rng.standard_normal((5, 4))
        loss = reconstruction_loss(x, y)
        fd = finite_diff_matrix(lambda m: reconstruction_loss(x, m).value, y)
        assert_grad_close(loss.grad.ravel(), fd)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            reconstruction_loss(np.ones((2, 3)), np.ones((3, 2)))


class TestDistanceLoss:
    def test_isometry_gives_zero(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 3))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert distance_loss(x, x @ q).value <= 1e-12

    def test_exact_zero_on_identical(self):
        x = np.random.default_rng(1).standard_normal((4, 3))
        assert distance_loss(x, x.copy()).value == 0.0

    def test_single_pair_closed_form(self):
        x = np.array([[0.0, 0.0], [5.0, 0.0]])       # d = 5
        xh = np.array([[0.0], [3.0]])                # d = 3
        assert distance_loss(x, xh).value == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_naive_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 6))
        xh = rng.standard_normal((5, 2))
        total = 0.0
        for i in range(5):
            for j in range(5):
                if i == j:
                    continue
                d = np.linalg.norm(x[i] - x[j])
                dh = np.linalg.norm(xh[i] - xh[j])
                total += (d - dh) ** 2
        expected = np.sqrt(total) / (5 * 4)
        assert distance_loss(x, xh).value == pytest.approx(expected, abs=1e-12)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 5))
        xh = rng.standard_normal((6, 3))
        loss = distance_loss(x, xh)
        fd = finite_diff_matrix(lambda m: distance_loss(x, m).value, xh)
        assert_grad_close(loss.grad.ravel(), fd)

    def test_needs_two_rows(self):
        with pytest.raises(ConfigError):
            distance_loss(np.ones((1, 3)), np.ones((1, 2)))


class TestTripletLossHardest:
    def test_inactive_hinge(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = np.array([[0.98, 0.199], [0.0, 1.0]])
        # within-pair distances ~0.2 and 0, cross distances ~1.4 > margin+pos
        loss = triplet_loss_hardest(a, p, margin=1.0)
        assert loss.value == 0.0
        assert np.array_equal(loss.grad, np.zeros((4, 2)))

    def test_equal_pos_and_hardest_gives_margin(self):
        # both rows identical: D[i][i] = hardest = 0, each term = margin
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        loss = triplet_loss_hardest(a, a.copy(), margin=0.7)
        assert loss.value == pytest.approx(0.7, abs=1e-15)

    def test_bruteforce_mining_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 4))
        p = rng.standard_normal((6, 4))
        m = 1.0
        d = pairwise_distance_matrix(a, p)
        expected = 0.0
        for i in range(6):
            cands = [d[i, j] for j in range(6) if j != i]
            cands += [d[j, i] for j in range(6) if j != i]
            expected += max(0.0, m + d[i, i] - min(cands))
        expected /= 6
        assert triplet_loss_hardest(a, p, m).value == pytest.approx(expected, abs=1e-12)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 3))
        p = a + 0.3 * rng.standard_normal((5, 3))  # keep hinges active
        loss = triplet_loss_hardest(a, p, margin=1.0)

        def value_of(stacked):
            return triplet_loss_hardest(stacked[:5], stacked[5:], 1.0).value

        fd = finite_diff_matrix(value_of, np.vstack([a, p]))
        assert_grad_close(loss.grad.ravel(), fd)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((7, 3))
        p = rng.standard_normal((7, 3))
        perm = rng.permutation(7)
        base = triplet_loss_hardest(a, p, 1.0)
        shuffled = triplet_loss_hardest(a[perm], p[perm], 1.0)
        assert shuffled.value == pytest.approx(base.value, abs=1e-12)
        assert np.allclose(shuffled.grad[:7], base.grad[:7][perm], atol=1e-12)
        assert np.allclose(shuffled.grad[7:], base.grad[7:][perm], atol=1e-12)

    def test_needs_two_pairs(self):
        with pytest.raises(ConfigError):
            triplet_loss_hardest(np.ones((1, 3)), np.ones((1, 3)), 1.0)

    @pytest.mark.parametrize("case", ["spread", "clustered", "equal_pairs", "shared_negative"])
    def test_equals_the_per_pair_loop(self, case):
        rng = np.random.default_rng(11)
        n, d = 48, 6
        if case == "spread":
            a = rng.standard_normal((n, d))
            p = a + 0.5 * rng.standard_normal((n, d))
        elif case == "clustered":
            # a few distinct points: exact distance ties, zero distances and
            # negatives shared by many pairs
            a = rng.standard_normal((4, d))[rng.integers(4, size=n)]
            p = rng.standard_normal((4, d))[rng.integers(4, size=n)]
        elif case == "equal_pairs":
            a = rng.standard_normal((n, d))
            p = a.copy()
            p[::3] += 0.2 * rng.standard_normal((len(p[::3]), d))
        else:
            # one positive sits next to every anchor, so most pairs mine it
            a = rng.standard_normal((n, d))
            p = a + rng.standard_normal((n, d))
            p[7] = a.mean(axis=0)
        for margin in (0.1, 1.0, 5.0):
            got = triplet_loss_hardest(a, p, margin)
            want = _reference_triplet_loss_hardest(a, p, margin)
            assert got.value == want.value
            assert np.array_equal(got.grad, want.grad)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_column_argmin_is_argmin_along_axis_0(self, dtype):
        # a few integer values tie often; column 5 ties in every finite row,
        # column 7 is all inf, and a NaN, where argmin stops, goes in column 9
        rng = np.random.default_rng(13)
        m = rng.integers(0, 4, size=(40, 30)).astype(dtype)
        m[rng.integers(40, size=10), rng.integers(30, size=10)] = np.inf
        m[:, 5] = 2.0
        np.fill_diagonal(m, np.inf)
        m[:, 7] = np.inf
        with_nan = m.copy()
        with_nan[[8, 3], 9] = np.nan
        for matrix in (m, with_nan):
            val, idx = _column_argmin(matrix)
            want = matrix.argmin(axis=0)
            assert np.array_equal(idx, want)
            assert np.array_equal(val, matrix[want, np.arange(30)], equal_nan=True)
        assert ((m == m.min(axis=0)).sum(axis=0) > 1).sum() >= 10  # tied minima


def _reference_triplet_loss_hardest(a, p, margin):
    """The per-active-pair loop that `triplet_loss_hardest` replaced."""
    _TINY = 1e-12
    n = len(a)
    dist = pairwise_distance_matrix(a, p)
    pos = np.diag(dist).copy()
    masked = dist.copy()
    np.fill_diagonal(masked, np.inf)
    row_idx = masked.argmin(axis=1)
    row_val = masked[np.arange(n), row_idx]
    col_idx = masked.argmin(axis=0)
    col_val = masked[col_idx, np.arange(n)]
    use_row = row_val <= col_val
    hardest = np.where(use_row, row_val, col_val)

    terms = margin + pos - hardest
    active = terms > 0.0
    value = float(np.maximum(terms, 0.0).mean())

    ga = np.zeros_like(a)
    gp = np.zeros_like(p)
    inv_n = 1.0 / n
    for i in np.flatnonzero(active):
        if pos[i] > _TINY:
            u = (a[i] - p[i]) / pos[i] * inv_n
            ga[i] += u
            gp[i] -= u
        if use_row[i]:
            j = row_idx[i]
            d = row_val[i]
            if d > _TINY:
                v = (a[i] - p[j]) / d * inv_n
                ga[i] -= v
                gp[j] += v
        else:
            j = col_idx[i]
            d = col_val[i]
            if d > _TINY:
                v = (a[j] - p[i]) / d * inv_n
                ga[j] -= v
                gp[i] += v
    return LossValue(value, np.vstack([ga, gp]))


class TestSoftmaxCrossEntropy:
    def test_uniform_two_classes(self):
        loss = softmax_cross_entropy([[0.0, 0.0]], [0])
        assert loss.value == pytest.approx(np.log(2), abs=1e-12)

    def test_saturated(self):
        assert softmax_cross_entropy([[100.0, 0.0]], [0]).value < 1e-10

    def test_zero_logits_any_target(self):
        for classes in (2, 5, 9):
            for target in (0, classes - 1):
                loss = softmax_cross_entropy(np.zeros((3, classes)), [target] * 3)
                assert loss.value == pytest.approx(np.log(classes), abs=1e-12)

    def test_extended_precision_oracle(self):
        rng = np.random.default_rng(7)
        logits = rng.standard_normal((4, 7)) * 3
        targets = rng.integers(0, 7, 4)
        wide = logits.astype(np.longdouble)
        probs = np.exp(wide)
        probs /= probs.sum(axis=1, keepdims=True)
        expected = float(-np.log(probs[np.arange(4), targets]).mean())
        assert softmax_cross_entropy(logits, targets).value == pytest.approx(
            expected, abs=1e-10)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(8)
        logits = rng.standard_normal((5, 4))
        targets = rng.integers(0, 4, 5)
        loss = softmax_cross_entropy(logits, targets)
        fd = finite_diff_matrix(
            lambda m: softmax_cross_entropy(m, targets).value, logits)
        assert_grad_close(loss.grad.ravel(), fd)

    def test_value_non_negative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            logits = rng.standard_normal((3, 5)) * 4
            targets = rng.integers(0, 5, 3)
            assert softmax_cross_entropy(logits, targets).value >= 0.0

    def test_target_out_of_range(self):
        with pytest.raises(ConfigError):
            softmax_cross_entropy(np.zeros((2, 3)), [0, 3])


def _loss_cases():
    rng = np.random.default_rng(13)
    x, y = rng.standard_normal((6, 5)), rng.standard_normal((6, 5))
    xh = rng.standard_normal((6, 3))
    a = rng.standard_normal((6, 4))
    p = a + 0.3 * rng.standard_normal((6, 4))
    logits, targets = rng.standard_normal((6, 4)), rng.integers(0, 4, 6)
    return {
        "reconstruction": lambda dt: reconstruction_loss(x.astype(dt), y.astype(dt)),
        "distance": lambda dt: distance_loss(x.astype(dt), xh.astype(dt)),
        "triplet": lambda dt: triplet_loss_hardest(a.astype(dt), p.astype(dt), 1.0),
        "cross_entropy": lambda dt: softmax_cross_entropy(logits.astype(dt), targets),
    }


class TestDtypes:
    @pytest.mark.parametrize("name", sorted(_loss_cases()))
    def test_gradient_has_the_inputs_dtype(self, name):
        loss = _loss_cases()[name]
        narrow, wide = loss(np.float32), loss(np.float64)
        assert narrow.grad.dtype == np.float32 and wide.grad.dtype == np.float64
        assert isinstance(narrow.value, float) and isinstance(wide.value, float)
        # float32 arithmetic on the rounded inputs: within float32's resolution
        tol = 100 * np.finfo(np.float32).eps
        assert abs(narrow.value - wide.value) <= tol * abs(wide.value)
        assert np.abs(narrow.grad - wide.grad).max() <= tol * np.abs(wide.grad).max()

