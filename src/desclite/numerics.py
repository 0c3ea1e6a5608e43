"""Dense matrix helpers and a symmetric eigensolver (LAPACK `eigh`).

Matrices are plain 2-D numpy arrays in either memory order, float32 or
float64: a float32 array stays float32, anything else becomes float64, and
results have the input's dtype. Everything here but `run_pair` and
`split_rows` is pure: inputs are never mutated and results depend only on
the arguments.

`run_pair` is the one place the package hands work to a second thread: it
runs one part on a module-level worker thread, shared by every caller, and
another on the calling thread, and returns once both have ended. It has two
users. `split_rows` hands it a row-blocked loop's second half (matching,
retrieval and `nn.project`), and `nn.Linear.backward` its weight-gradient
product. Neither computes anything that depends on whether the worker ran.
A child made by `os.fork` gets a worker thread of its own.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import NumericError, ShapeError

# A row whose L2 norm is below this is a zero row: L2 normalization leaves it
# all-zero instead of dividing by its norm, and the losses take a distance
# below it as zero.
NORM_EPS = 1e-12


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity set where the OS has
    one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Threads that `run_pair` runs its two parts on, the caller's included.
WORKERS = min(2, _cpu_count())


def _start_worker() -> None:
    """Make the worker thread's executor. A child made by `os.fork` inherits
    the parent's executor but not its thread, so the child makes its own."""
    global _worker
    _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="desclite-worker")


_start_worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_start_worker)


def run_pair(first, second):
    """Run `second()` on the worker thread and `first()` on the calling
    thread; return what `first()` returns once both have ended.

    An exception raised in either part reaches the caller once both parts
    have ended; when both raise, the caller's wins. With WORKERS < 2 the
    caller runs `second()` and then `first()`, and an exception ends the
    pair where it is raised.

    The arrays `second` writes are best made before the call, on the
    calling thread: glibc keeps what a thread frees in that thread's arena,
    so arrays the worker made would stay resident after the call. `second`
    must not hand work to the worker thread itself, by `run_pair`,
    `split_rows` or a linear's backward, since the worker thread it would
    wait on is the one running it.
    """
    if WORKERS < 2:
        second()
        return first()
    later = _worker.submit(second)
    try:
        result = first()
    finally:
        wait((later,))
    later.result()
    return result


def split_rows(fn, n: int, block: int, min_blocks: int, buffers) -> None:
    """Run `fn(lo, hi, bufs)` over the rows [0, n) of a loop that works in
    blocks of `block` rows from row 0, in at most two contiguous parts.

    With WORKERS >= 2 and at least 2 * min_blocks blocks' worth of rows, the
    rows are cut at the multiple of `block` nearest n / 2, and `run_pair`
    runs the first part on the calling thread and the second on the worker
    thread. Otherwise the caller runs fn(0, n, bufs). Either way `fn` sees
    the blocks the serial loop makes, so a loop whose blocks depend only on
    their own rows, and whose parts write disjoint slices of arrays
    allocated before the call, gives the same bits split or not.

    Each part gets work buffers of its own, `bufs = buffers(rows)` for its
    largest block of `rows` rows, made on the calling thread for the reason
    `run_pair` gives. An exception raised in either part reaches the caller
    once both parts have ended; when both raise, the caller's wins. `fn`
    must not hand work to the worker thread itself, by `split_rows`,
    `run_pair` or a linear's backward, since the worker thread it would wait
    on is the one running it.
    """
    if WORKERS < 2 or n < 2 * min_blocks * block:
        fn(0, n, buffers(min(n, block)))
        return
    mid = (n + block) // (2 * block) * block
    first, second = buffers(block), buffers(min(n - mid, block))
    run_pair(partial(fn, 0, mid, first), partial(fn, mid, n, second))


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a finite 2-D array: float32 if it is
    float32, float64 otherwise."""
    m = np.asarray(a)
    if m.dtype != np.float32:
        m = m.astype(np.float64, copy=False)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class EigenDecomposition:
    """Full symmetric spectrum, eigenvalues sorted descending.

    eigenvectors holds one orthonormal eigenvector per column, aligned with
    eigenvalues.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def pairwise_distance_matrix(a, b, *, b_sq=None, shifted=False, out=None) -> np.ndarray:
    """All-pairs Euclidean distances between rows of `a` and rows of `b`.

    Uses the expanded form |a|^2 + |b|^2 - 2ab^T; cancellation can push tiny
    squared distances below zero, so values are clamped at 0 before the sqrt.
    When both arguments are the same array the diagonal is exactly zero.

    `b_sq`, for a caller that measures many blocks against one `b`, holds
    b's squared row norms, `(b * b).sum(axis=1)`; `b` must then already be a
    finite 2-D array that `as_matrix` would return unchanged, and is neither
    checked nor measured again.

    With `shifted`, the result is the block |b_j|^2 - 2a_i.b_j instead:
    each row's squared distances less that row's |a_i|^2, unclamped and not
    rooted, which orders a row's targets as its distances do, up to
    rounding. It costs the product, the -2 folded into the operand with
    fewer rows, and one in-place add of `b_sq`; no |a|^2 is formed.

    `out`, for a caller that measures many shifted blocks in turn, is a flat
    array of the result's dtype with at least len(a) * len(b) entries; a
    shifted block is its own product and is written into it instead of a
    fresh array, so the result is a view of `out` that the next call with
    the same array overwrites. The values do not depend on it. The default
    path does not use `out`.
    """
    same = a is b
    a = as_matrix(a, "a")
    if same:
        b = a
    elif b_sq is None:
        b = as_matrix(b, "b")
    if a.shape[1] != b.shape[1]:
        raise ShapeError(
            f"pairwise_distance_matrix: column counts differ, {a.shape[1]} vs {b.shape[1]}"
        )
    if b_sq is not None and len(b_sq) != len(b):
        raise ShapeError(f"b_sq has {len(b_sq)} entries for {len(b)} rows of b")
    if shifted:
        if out is not None:
            out = out[:len(a) * len(b)].reshape(len(a), len(b))
        block = _minus_2ab(a, b, out)
        block += (b * b).sum(axis=1) if b_sq is None else b_sq
        return block
    a_sq = (a * a).sum(axis=1)
    if b_sq is None:
        b_sq = a_sq if same else (b * b).sum(axis=1)
    sq = _sq_distances(a, a_sq, b, b_sq)
    if same:
        np.fill_diagonal(sq, 0.0)
    return np.sqrt(sq, out=sq)


def _minus_2ab(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """-2ab^T, written into `out` if given.

    The -2 goes into the operand with fewer rows before the product, `a` when
    the row counts tie, which saves a pass over the product and gives the
    same bits, since scaling by a power of two is exact. When `a is b` numpy
    takes a @ a.T by syrk, and a scaled copy of one side would switch it to
    gemm and change the bits, so that product is scaled afterwards."""
    if a is b:
        ab = np.matmul(a, a.T, out=out)
        ab *= -2.0
        return ab
    if len(a) <= len(b):
        return np.matmul(-2.0 * a, b.T, out=out)
    return np.matmul(a, (-2.0 * b).T, out=out)


def _sq_distances(a: np.ndarray, a_sq: np.ndarray, b: np.ndarray,
                  b_sq: np.ndarray) -> np.ndarray:
    """Squared distances (|a|^2 + |b|^2) + (-2ab^T) between rows, clamped at
    0, from the squared row norms `a_sq` and `b_sq`; no input is checked."""
    ab = _minus_2ab(a, b)
    sq = np.add(a_sq[:, None], b_sq[None, :])
    sq += ab
    return np.maximum(sq, 0.0, out=sq)


def row_norms(x: np.ndarray, out=None) -> np.ndarray:
    """Euclidean norm of each row of the 2-D `x`, written into the 1-D `out`
    if given. A stacked 1 x D by D x 1 `matmul` takes one BLAS dot per row,
    as `np.linalg.norm` does for a single vector, so every value has the bits
    of that row's `np.linalg.norm`; `np.linalg.norm(x, axis=1)` sums in
    another order."""
    sq = np.matmul(x[:, None, :], x[:, :, None],
                   out=None if out is None else out[:, None, None])
    return np.sqrt(sq[:, 0, 0], out=out)


def l2_normalize_rows(x: np.ndarray):
    """Each row of the 2-D `x` divided by its L2 norm, with a zero row (norm
    below NORM_EPS) left all-zero. Returns the rows, their norms with 1 in
    place of each zero row's, and the zero-row mask."""
    norms = np.linalg.norm(x, axis=1)
    zero = norms < NORM_EPS
    safe = np.where(zero, 1.0, norms)
    out = x / safe[:, None]
    out[zero] = 0.0
    return out, safe, zero


def sym_eigen(a) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix by LAPACK `eigh`, the one
    path for every size: a 0x0 matrix gives empty arrays, and an all-zero one
    zero eigenvalues with the identity as eigenvectors.

    The input must be symmetric to within 1e-9 and is symmetrized as
    (A + A^T)/2 first. Non-finite entries raise NumericError; a non-square
    or asymmetric matrix raises ShapeError.
    """
    a = as_matrix(a, "a")
    n, m = a.shape
    if n != m:
        raise ShapeError(f"sym_eigen: matrix must be square, got {a.shape}")
    if n and np.abs(a - a.T).max() > 1e-9:
        raise ShapeError("sym_eigen: matrix is not symmetric within 1e-9")
    vals, vecs = np.linalg.eigh((a + a.T) / 2.0)
    order = np.argsort(-vals, kind="stable")
    return EigenDecomposition(eigenvalues=vals[order], eigenvectors=vecs[:, order])
