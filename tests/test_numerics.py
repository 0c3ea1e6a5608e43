import ctypes
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from desclite import numerics
from desclite.errors import NumericError, ShapeError
from desclite.numerics import (
    EigenDecomposition,
    as_matrix,
    pairwise_distance_matrix,
    run_pair,
    split_rows,
    sym_eigen,
)

from helpers import record_worker_parts


class TestSymEigen:
    def test_already_diagonal(self):
        eig = sym_eigen(np.diag([3.0, 1.0]))
        assert np.allclose(eig.eigenvalues, [3.0, 1.0])
        assert np.allclose(np.abs(eig.eigenvectors), np.eye(2))

    def test_classic_2x2(self):
        eig = sym_eigen([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(eig.eigenvalues, [3.0, 1.0], atol=1e-12)
        v0 = eig.eigenvectors[:, 0]
        v1 = eig.eigenvectors[:, 1]
        assert np.allclose(np.abs(v0), [1, 1] / np.sqrt(2), atol=1e-12)
        assert np.allclose(np.abs(v1 * [1, -1]), [1, 1] / np.sqrt(2), atol=1e-12)

    def test_reconstruction_oracle_5x5(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 5))
        a = (a + a.T) / 2
        eig = sym_eigen(a)
        recon = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
        assert np.abs(recon - a).max() <= 1e-8 * np.linalg.norm(a)

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_matches_numpy_eigh(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2
        eig = sym_eigen(a)
        ref = np.linalg.eigvalsh(a)[::-1]
        assert np.abs(eig.eigenvalues - ref).max() <= 1e-9 * (np.abs(ref).max() + 1)

    def test_trace_and_orthonormality(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((7, 7))
        a = (a + a.T) / 2
        eig = sym_eigen(a)
        assert abs(eig.eigenvalues.sum() - np.trace(a)) <= 1e-9 * (abs(np.trace(a)) + 1)
        gram = eig.eigenvectors.T @ eig.eigenvectors
        assert np.abs(gram - np.eye(7)).max() <= 1e-9

    def test_eigen_pairs_satisfy_definition(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        a = (a + a.T) / 2
        eig = sym_eigen(a)
        norm = np.linalg.norm(a)
        for lam, v in zip(eig.eigenvalues, eig.eigenvectors.T):
            assert np.abs(a @ v - lam * v).max() <= 1e-8 * norm

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            sym_eigen(np.ones((2, 3)))

    def test_asymmetric_rejected(self):
        with pytest.raises(ShapeError):
            sym_eigen([[1.0, 2.0], [0.0, 1.0]])

    def test_zero_matrix(self):
        # zero eigenvalues and the identity, bit for bit: no negative zeros
        for n in (1, 3, 64, 128):
            eig = sym_eigen(np.zeros((n, n)))
            assert eig.eigenvalues.tobytes() == np.zeros(n).tobytes()
            assert eig.eigenvectors.tobytes() == np.eye(n).tobytes()

    def test_empty_matrix(self):
        eig = sym_eigen(np.zeros((0, 0)))
        assert eig.eigenvalues.shape == (0,) and eig.eigenvalues.dtype == np.float64
        assert eig.eigenvectors.shape == (0, 0) and eig.eigenvectors.dtype == np.float64

    def test_one_by_one(self):
        eig = sym_eigen([[3.5]])
        assert eig.eigenvalues.tolist() == [3.5]
        assert eig.eigenvectors.tolist() == [[1.0]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        a = np.eye(3)
        a[1, 2] = a[2, 1] = bad
        with pytest.raises(NumericError):
            sym_eigen(a)

    def test_rank_deficient_covariance(self):
        # 40 samples in 128-D: rank <= 39, so most eigenvalues are ~0
        rng = np.random.default_rng(12)
        x = rng.standard_normal((40, 128)) @ rng.standard_normal((128, 128))
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / (len(x) - 1)
        eig = sym_eigen(cov)
        vals, vecs = eig.eigenvalues, eig.eigenvectors
        assert np.all(np.diff(vals) <= 0.0)
        assert np.abs(vals[39:]).max() <= 1e-10 * vals[0]
        assert np.abs(vecs.T @ vecs - np.eye(128)).max() <= 1e-12
        assert np.abs(cov @ vecs - vecs * vals).max() <= 1e-12 * vals[0]

    def test_returns_dataclass(self):
        assert isinstance(sym_eigen(np.eye(2)), EigenDecomposition)


class TestAsMatrix:
    def test_float32_stays_float32_and_the_rest_becomes_float64(self):
        a = np.ones((2, 3), dtype=np.float32)
        assert as_matrix(a) is a
        for other in ([[1, 2]], np.ones((2, 2), dtype=np.int32),
                      np.ones((1, 2), dtype=np.float16)):
            assert as_matrix(other).dtype == np.float64
        a[0, 1] = np.inf
        with pytest.raises(NumericError):
            as_matrix(a)


class TestPairwiseDistanceMatrix:
    def test_small_example(self):
        a = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert np.allclose(pairwise_distance_matrix(a, a), [[0, 5], [5, 0]], atol=1e-12)

    def test_single_rows(self):
        a = np.array([[1.0, 2.0, 2.0]])
        b = np.array([[0.0, 0.0, 0.0]])
        d = pairwise_distance_matrix(a, b)
        assert d.shape == (1, 1)
        assert d[0, 0] == pytest.approx(np.linalg.norm(a[0] - b[0]), abs=1e-12)

    def test_naive_loop_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((5, 3))
        d = pairwise_distance_matrix(a, b)
        for i in range(4):
            for j in range(5):
                assert abs(d[i, j] - np.linalg.norm(a[i] - b[j])) <= 1e-10

    def test_symmetric_with_zero_diagonal(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((6, 4))
        d = pairwise_distance_matrix(a, a)
        assert np.array_equal(d, d.T)
        assert np.array_equal(np.diag(d), np.zeros(6))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            pairwise_distance_matrix(np.ones((2, 3)), np.ones((2, 4)))

    @pytest.mark.parametrize("na, nb, d", [(1, 1, 3), (1, 40, 32), (24, 500, 32),
                                           (48, 37, 128), (17, 23, 5), (205, 61, 7)])
    def test_equals_the_reference_bit_for_bit(self, na, nb, d):
        rng = np.random.default_rng(na * nb + d)
        a = rng.standard_normal((na, d))
        b = rng.standard_normal((nb, d))
        b[0] = a[0]  # one exact zero distance
        want = _reference_pairwise_distance_matrix(a, b)
        b_sq = (b * b).sum(axis=1)
        for kw in ({}, {"b_sq": b_sq}):
            assert np.array_equal(pairwise_distance_matrix(a, b, **kw), want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("na, nb, d", [(1, 40, 32), (24, 500, 32), (48, 37, 128),
                                           (205, 61, 7)])
    def test_f_ordered_b_equals_the_reference_bit_for_bit(self, na, nb, d, dtype):
        # matching keeps its float32 targets in F order; the -2 goes into `a`
        # or into `b` as the row counts decide, and keeps `b`'s layout
        rng = np.random.default_rng(na * nb + d)
        a = rng.standard_normal((na, d)).astype(dtype)
        b = np.asfortranarray(rng.standard_normal((nb, d)).astype(dtype))
        b[0] = a[0]
        want = _reference_pairwise_distance_matrix(a, b)
        assert want.dtype == dtype
        b_sq = (b * b).sum(axis=1)
        for kw in ({}, {"b_sq": b_sq}):
            assert np.array_equal(pairwise_distance_matrix(a, b, **kw), want)

    @pytest.mark.parametrize("n", [1, 12, 13, 96])
    def test_same_array_equals_the_reference(self, n):
        a = np.random.default_rng(n).standard_normal((n, 16))
        got = pairwise_distance_matrix(a, a)
        assert np.array_equal(got, _reference_pairwise_distance_matrix(a, a))
        assert np.array_equal(np.diag(got), np.zeros(n))

    def test_precomputed_norms_must_fit_b(self):
        b = np.ones((3, 2))
        with pytest.raises(ShapeError):
            pairwise_distance_matrix(np.ones((2, 2)), b, b_sq=np.ones(4))
        with pytest.raises(ShapeError):
            pairwise_distance_matrix(np.ones((2, 2)), b, b_sq=np.ones(2), shifted=True)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("na, nb, d", [(1, 40, 32), (24, 500, 32), (37, 37, 9),
                                           (48, 37, 128), (205, 61, 7)])
    def test_shifted_block_equals_the_reference_bit_for_bit(self, na, nb, d, dtype, order):
        # |b|^2 - 2ab^T, unclamped: the -2 goes into the operand with fewer
        # rows, `a` on a tie, then one add of the target norms
        rng = np.random.default_rng(na * nb + d)
        a = rng.standard_normal((na, d)).astype(dtype)
        b = np.asarray(rng.standard_normal((nb, d)).astype(dtype), order=order)
        b[0] = a[0]
        b_sq = (b * b).sum(axis=1)
        product = np.matmul(-2.0 * a, b.T) if na <= nb else np.matmul(a, (-2.0 * b).T)
        want = product + b_sq
        assert want.dtype == dtype and (want < 0).any()
        # a reused buffer, longer than one block needs and holding stale values
        out = np.full(na * nb + 3, np.nan, dtype)
        for kw in ({}, {"b_sq": b_sq}, {"b_sq": b_sq, "out": out}):
            got = pairwise_distance_matrix(a, b, shifted=True, **kw)
            assert got.dtype == dtype
            assert np.array_equal(got, want)
        assert np.shares_memory(got, out)

    def test_shifted_block_of_one_array(self):
        # a @ a.T goes by syrk, scaled afterwards, as the default path does
        a = np.random.default_rng(3).standard_normal((13, 16))
        ab = np.matmul(a, a.T)
        ab *= -2.0
        assert np.array_equal(pairwise_distance_matrix(a, a, shifted=True),
                              ab + (a * a).sum(axis=1))

    def test_non_finite_rejected(self):
        a = np.ones((2, 2))
        a[1, 0] = np.nan
        with pytest.raises(NumericError):
            pairwise_distance_matrix(a, np.ones((3, 2)))
        with pytest.raises(NumericError):
            pairwise_distance_matrix(np.ones((3, 2)), a)


class TestSplitRows:
    @pytest.mark.parametrize("workers,n,block,min_blocks,worker_part", [
        (1, 100, 10, 1, None),  # one CPU: the caller runs every block
        (2, 0, 10, 1, None),
        (2, 19, 10, 1, None),  # less than two blocks' worth of rows
        (2, 20, 10, 1, (10, 20)),
        (2, 85, 10, 1, (40, 85)),  # the block boundary nearest 42.5
        (2, 95, 10, 1, (50, 95)),  # and nearest 47.5
        (2, 79, 10, 4, None),  # less than 2 x 4 blocks' worth
        (2, 80, 10, 4, (40, 80)),
    ])
    def test_the_cut(self, workers, n, block, min_blocks, worker_part, monkeypatch):
        handed = record_worker_parts(monkeypatch, workers)
        made, ran = [], []

        def buffers(rows):
            made.append((rows, threading.get_ident()))
            return rows

        split_rows(lambda lo, hi, rows: ran.append((lo, hi, rows)), n, block, min_blocks,
                   buffers)
        # every part's buffers are made on the calling thread, for its
        # largest block
        assert {ident for _, ident in made} == {threading.get_ident()}
        if worker_part is None:
            assert handed == [] and ran == [(0, n, min(n, block))]
        else:
            lo, hi = worker_part
            assert handed == [worker_part]
            assert sorted(ran) == [(0, lo, block), (lo, hi, min(hi - lo, block))]
        assert sorted(rows for rows, _ in made) == sorted(rows for _, _, rows in ran)

    def test_a_worker_exception_reaches_the_caller_after_its_own_part(self, monkeypatch):
        monkeypatch.setattr(numerics, "WORKERS", 2)
        raised = threading.Event()
        ended = []

        def part(lo, hi, bufs):
            if lo:  # the worker's part
                ended.append(("worker", threading.get_ident()))
                raised.set()
                raise ValueError("in the worker's part")
            # the caller's part goes on after the worker has raised
            assert raised.wait(timeout=30)
            ended.append(("caller", threading.get_ident()))

        with pytest.raises(ValueError, match="in the worker's part"):
            split_rows(part, 20, 10, 1, lambda rows: None)
        assert [who for who, _ in ended] == ["worker", "caller"]
        assert ended[0][1] != ended[1][1] == threading.get_ident()

    @pytest.mark.parametrize("worker_raises", [False, True])
    def test_a_caller_exception_waits_for_the_worker_s_part(self, worker_raises,
                                                           monkeypatch):
        monkeypatch.setattr(numerics, "WORKERS", 2)
        started = threading.Event()
        ended = []

        def part(lo, hi, bufs):
            if lo:
                started.set()
                time.sleep(0.05)
                ended.append(lo)
                if worker_raises:
                    raise ValueError("in the worker's part")
                return
            assert started.wait(timeout=30)
            raise KeyError("in the caller's part")

        # when both parts raise, the caller's exception is the one raised
        with pytest.raises(KeyError):
            split_rows(part, 20, 10, 1, lambda rows: None)
        assert ended == [10]


class TestRunPair:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_both_parts_run_and_first_s_result_comes_back(self, workers, monkeypatch):
        monkeypatch.setattr(numerics, "WORKERS", workers)
        ran = []

        def part(name, result=None):
            def run():
                ran.append((name, threading.get_ident()))
                return result
            return run

        assert run_pair(part("first", "result"), part("second")) == "result"
        threads = dict(ran)
        assert sorted(threads) == ["first", "second"]
        assert threads["first"] == threading.get_ident()
        # two workers: `second` runs off the calling thread; one: on it,
        # before `first`
        assert (threads["second"] != threading.get_ident()) == (workers == 2)
        if workers == 1:
            assert [name for name, _ in ran] == ["second", "first"]

    def test_a_worker_exception_reaches_the_caller_after_its_own_part(self, monkeypatch):
        monkeypatch.setattr(numerics, "WORKERS", 2)
        raised = threading.Event()
        ended = []

        def second():
            ended.append("second")
            raised.set()
            raise ValueError("in the worker's part")

        def first():
            # the caller's part goes on after the worker has raised
            assert raised.wait(timeout=30)
            ended.append("first")

        with pytest.raises(ValueError, match="in the worker's part"):
            run_pair(first, second)
        assert ended == ["second", "first"]

    @pytest.mark.parametrize("worker_raises", [False, True])
    def test_a_caller_exception_waits_for_the_worker_s_part(self, worker_raises,
                                                           monkeypatch):
        monkeypatch.setattr(numerics, "WORKERS", 2)
        started = threading.Event()
        ended = []

        def second():
            started.set()
            time.sleep(0.05)
            ended.append("second")
            if worker_raises:
                raise ValueError("in the worker's part")

        def first():
            assert started.wait(timeout=30)
            raise KeyError("in the caller's part")

        # when both parts raise, the caller's exception is the one raised
        with pytest.raises(KeyError):
            run_pair(first, second)
        assert ended == ["second"]

    def test_one_worker_stops_at_the_first_exception(self, monkeypatch):
        monkeypatch.setattr(numerics, "WORKERS", 1)
        ran = []

        def second():
            raise ValueError("in the second part")

        with pytest.raises(ValueError):
            run_pair(lambda: ran.append("first"), second)
        assert ran == []


def _has_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return True


# a fresh process that imports desclite, makes and frees ten 2 MiB arrays,
# the (1,024, 512) float32 outputs and gradients of a us step, then prints
# the minor page faults of five more rounds
_ROUNDS_CHILD = """
import resource
import numpy as np
import desclite

def round_():
    arrays = [np.ones((1024, 512), np.float32) for _ in range(10)]
    del arrays

round_()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    round_()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="needs a C library with mallopt")
def test_freed_arrays_stay_in_the_process():
    # glibc's own thresholds hand the 20 MiB back to the OS after each round
    # and fault it in again on the next: ≈25,000 faults for the five rounds
    src = os.path.dirname(os.path.dirname(numerics.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", _ROUNDS_CHILD], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 1000


def _reference_pairwise_distance_matrix(a, b):
    """`pairwise_distance_matrix` as it was before the shared kernel."""
    same = a is b
    a = as_matrix(a, "a")
    b = a if same else as_matrix(b, "b")
    if a.shape[1] != b.shape[1]:
        raise ShapeError(
            f"pairwise_distance_matrix: column counts differ, {a.shape[1]} vs {b.shape[1]}"
        )
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    if same:
        np.fill_diagonal(sq, 0.0)
    return np.sqrt(sq)
