"""Training losses with exact gradients with respect to the embedding batch.

Every function returns a LossValue whose `grad` is the derivative of the
scalar value with respect to the differentiated input:

  reconstruction_loss    -> grad w.r.t. the reconstructed batch
  distance_loss          -> grad w.r.t. the projected batch
  triplet_loss_hardest   -> grad w.r.t. vstack([anchors, positives]) (2N x d)
  softmax_cross_entropy  -> grad w.r.t. the logits

Each loss computes in its inputs' dtype (see `numerics.as_matrix`), so a
float32 batch gets a float32 gradient. Scalars that scale an array are
Python floats, which never widen it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .numerics import NORM_EPS, as_matrix, pairwise_distance_matrix


@dataclass
class LossValue:
    value: float
    grad: np.ndarray


def reconstruction_loss(inputs, outputs) -> LossValue:
    """Mean L2 distance between input rows and reconstructed rows."""
    x = as_matrix(inputs, "inputs")
    y = as_matrix(outputs, "outputs")
    if x.shape != y.shape:
        raise ShapeError(f"reconstruction_loss: shapes differ, {x.shape} vs {y.shape}")
    n = len(x)
    if n == 0:
        raise ConfigError("reconstruction_loss: empty batch")
    diff = y - x
    norms = np.linalg.norm(diff, axis=1)
    value = float(norms.mean())
    safe = np.where(norms < NORM_EPS, 1.0, norms)
    grad = diff / (n * safe[:, None])
    grad[norms < NORM_EPS] = 0.0
    return LossValue(value, grad)


def distance_loss(x, x_hat) -> LossValue:
    """Discrepancy between pairwise distances before and after projection.

    Value is sqrt(sum over ordered pairs i != j of (d_ij - dhat_ij)^2)
    divided by N(N-1); the divisor sits outside the square root. Row counts
    must match; dimensions may differ.
    """
    x = as_matrix(x, "x")
    xh = as_matrix(x_hat, "x_hat")
    if len(x) != len(xh):
        raise ShapeError(f"distance_loss: row counts differ, {len(x)} vs {len(xh)}")
    n = len(x)
    if n < 2:
        raise ConfigError("distance_loss: need at least 2 rows")
    dx = pairwise_distance_matrix(x, x)
    dh = pairwise_distance_matrix(xh, xh)
    diff = dh - dx
    s = float((diff * diff).sum())  # diagonal contributes zero
    coeff = 1.0 / (n * (n - 1))
    value = coeff * np.sqrt(s)
    if s < NORM_EPS * NORM_EPS:
        return LossValue(float(value), np.zeros_like(xh))
    ratio = np.where(dh < NORM_EPS, 0.0, diff / np.where(dh < NORM_EPS, 1.0, dh))
    np.fill_diagonal(ratio, 0.0)
    row_sum = ratio.sum(axis=1)
    grad = (2.0 * coeff / math.sqrt(s)) * (row_sum[:, None] * xh - ratio @ xh)
    return LossValue(float(value), grad)


def triplet_loss_hardest(anchors_emb, positives_emb, margin: float) -> LossValue:
    """Triplet margin loss with hardest-within-batch negative mining.

    Row i of the two inputs is a projected (anchor, positive) embedding pair
    of one class. The negative for pair i is the closest non-matching
    embedding in either direction of the anchor-positive distance matrix:
    min(min_{j!=i} D[i][j], min_{j!=i} D[j][i]); distance ties resolve to the
    smallest index, and row-direction wins an exact row/column tie.

    The gradient stacks d/d(anchors) on top of d/d(positives) -> (2N, d).
    """
    a = as_matrix(anchors_emb, "anchors_emb")
    p = as_matrix(positives_emb, "positives_emb")
    if a.shape != p.shape:
        raise ShapeError(f"triplet_loss_hardest: shapes differ, {a.shape} vs {p.shape}")
    n = len(a)
    if n < 2:
        raise ConfigError("triplet_loss_hardest: need at least 2 pairs to mine negatives")
    dist = pairwise_distance_matrix(a, p)
    pos = np.diag(dist).copy()
    masked = dist.copy()
    np.fill_diagonal(masked, np.inf)
    row_idx = masked.argmin(axis=1)
    row_val = masked[np.arange(n), row_idx]
    col_val, col_idx = _column_argmin(masked)
    use_row = row_val <= col_val
    hardest = np.where(use_row, row_val, col_val)

    terms = margin + pos - hardest
    active = terms > 0.0
    value = float(np.maximum(terms, 0.0).mean())

    # Per active pair i, in ascending i: the positive term moves anchor i
    # and positive i, the negative term anchor i and positive j (row-mined)
    # or anchor j and positive i (column-mined). np.add.at applies the
    # updates to rows of vstack([d/d anchors, d/d positives]) in that order,
    # so a row hit by several pairs sums its updates as a loop would.
    act = np.flatnonzero(active)
    neg = np.where(use_row, row_idx, col_idx)[act]
    anchor = np.where(use_row[act], act, neg)
    positive = np.where(use_row[act], neg, act)
    # a term whose distance is at most NORM_EPS moves nothing
    dists = np.stack([pos[act], hardest[act]], axis=1)
    keep = dists > NORM_EPS
    dists[~keep] = 1.0
    inv_n = 1.0 / n
    u = (a[act] - p[act]) / dists[:, :1] * inv_n
    v = (a[anchor] - p[positive]) / dists[:, 1:] * inv_n
    rows = np.stack([act, n + act, anchor, n + positive], axis=1)
    steps = np.stack([u, -u, -v, v], axis=1)
    keep = np.repeat(keep, 2, axis=1)
    grad = np.zeros((2 * n, a.shape[1]), dtype=np.result_type(a, p))
    np.add.at(grad, rows[keep], steps[keep])
    return LossValue(value, grad)


def _column_argmin(m: np.ndarray):
    """Each column's minimum and the first row that holds it, the row
    `m.argmin(axis=0)` finds. `argmin` along axis 0 copies the matrix to a
    transposed layout first; this takes the column minima and one
    comparison pass in row order instead."""
    col_val = m.min(axis=0)
    row, col = np.divmod(np.flatnonzero(m == col_val), m.shape[1])
    # hits come row by row, so a column's first hit is its lowest row
    _, first = np.unique(col, return_index=True)
    if len(first) < m.shape[1]:  # a NaN minimum equals nothing
        return col_val, m.argmin(axis=0)
    return col_val, row[first]


def softmax_cross_entropy(logits, targets) -> LossValue:
    """Mean negative log softmax probability of the target class."""
    z = as_matrix(logits, "logits")
    t = np.asarray(targets, dtype=np.int64)
    n, classes = z.shape
    if t.shape != (n,):
        raise ShapeError(f"targets must have shape ({n},), got {t.shape}")
    if n == 0:
        raise ConfigError("softmax_cross_entropy: empty batch")
    if t.min() < 0 or t.max() >= classes:
        raise ConfigError(
            f"targets out of range [0, {classes}): [{t.min()}, {t.max()}]"
        )
    shifted = z - z.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    denom = expz.sum(axis=1, keepdims=True)
    log_prob = shifted - np.log(denom)
    value = float(-log_prob[np.arange(n), t].mean())
    grad = expz / denom
    grad[np.arange(n), t] -= 1.0
    return LossValue(value, grad / n)

