"""Seeded k-means (k-means++ init, Lloyd iterations) for pseudo-labeling."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .numerics import _sq_distances, as_matrix

# the most Lloyd passes one fit makes
MAX_ITERS = 50


@dataclass
class KMeansModel:
    """A fit's result, with one `objective_history` entry per Lloyd pass."""

    centroids: np.ndarray          # (k, D)
    assignments: np.ndarray        # (N,) cluster index per training point
    objective: float               # mean squared distance to assigned centroid
    objective_history: list = field(default_factory=list)
    empty_repaired: int = 0        # refills of emptied clusters, summed over the iterations

    @property
    def k(self) -> int:
        return len(self.centroids)

    @property
    def iterations_run(self) -> int:
        return len(self.objective_history)


def _plus_plus_init(points: np.ndarray, points_sq: np.ndarray, k: int,
                    rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii, SODA 2007); `points_sq`
    holds the points' squared row norms."""
    n = len(points)
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    d2 = _sq_dist_to_row(points, points_sq, chosen[0])
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            chosen[i] = rng.integers(n)  # all remaining points coincide
        else:
            chosen[i] = rng.choice(n, p=d2 / total)
        np.minimum(d2, _sq_dist_to_row(points, points_sq, chosen[i]), out=d2)
    return points[chosen].copy()


def _sq_dist_to_row(points: np.ndarray, points_sq: np.ndarray, c: int) -> np.ndarray:
    """Squared distances from every point to point c, clamped at 0, and
    exactly 0 for the rows equal to point c."""
    d2 = points @ points[c]
    d2 *= -2.0
    d2 += points_sq
    d2 += points_sq[c]
    np.maximum(d2, 0.0, out=d2)
    # a row equal to point c shares its squared norm and its first entry;
    # only the rows that do are compared in full
    same = np.flatnonzero(points_sq == points_sq[c])
    same = same[(points[same, :1] == points[c, :1]).all(axis=1)]
    d2[same[(points[same] == points[c]).all(axis=1)]] = 0.0
    return d2


def _lloyd(x: np.ndarray, x_sq: np.ndarray, centroids: np.ndarray, k: int) -> KMeansModel:
    rows = np.arange(len(x))
    history: list[float] = []
    repaired = 0
    # distances to the current centroids: each iteration's argmin, the
    # previous iteration's objective and the final pass all read this matrix
    sq = _sq_distances(x, x_sq, centroids, (centroids * centroids).sum(axis=1))
    for _ in range(MAX_ITERS):
        assign = sq.argmin(axis=1)
        repaired += _repair_empty(x, assign, sq, k)
        # each cluster's rows, in row order, as one contiguous slice
        order = np.argsort(assign, kind="stable")
        members = x[order]
        stops = np.cumsum(np.bincount(assign, minlength=k))
        start = 0
        for j, stop in enumerate(stops):
            centroids[j] = members[start:stop].sum(axis=0) / (stop - start)
            start = stop
        sq = _sq_distances(x, x_sq, centroids, (centroids * centroids).sum(axis=1))
        objective = float(sq[rows, assign].mean())
        if history and objective > history[-1] + 1e-9 * max(1.0, history[-1]):
            raise NumericError(
                f"k-means objective increased: {history[-1]!r} -> {objective!r}"
            )
        history.append(objective)
        # a repeated assignment rebuilds the last centroids bit for bit and
        # stops here; on exact duplicates the refills can move a different
        # row each pass, so the assignment alone might never repeat
        if len(history) > 1 and objective >= history[-2]:
            break
    # final nearest-centroid pass, so that each stored row is at its nearest
    # centroid. Where that empties a cluster (twin centroids send all their
    # rows to the first), the loop's last assignment is kept instead: none of
    # its clusters is empty, the centroids are its cluster means and its
    # objective is the loop's last.
    final_assign = sq.argmin(axis=1)
    if np.bincount(final_assign, minlength=k).min() == 0:
        final_assign = assign
    return KMeansModel(centroids, final_assign, float(sq[rows, final_assign].mean()),
                       history, repaired)


def kmeans_fit(points, k: int, seed: int = 0) -> KMeansModel:
    """Cluster rows of `points` into k groups.

    Runs one k-means++ seeding from an RNG seeded with `seed`, then Lloyd
    passes. The result is deterministic per arguments for a fixed BLAS
    library and thread count, which can change the last bits of the
    distances and so break near-ties differently.
    Lloyd stops after a pass that does not lower the objective, or after
    MAX_ITERS passes. A pass whose assignment repeats the last one rebuilds
    the same centroids, so the objective rule stops it too. An emptied
    cluster is repaired by moving the point farthest from its assigned
    centroid into it. The objective (mean squared distance to the assigned
    centroid) is checked to be non-increasing every pass. The stored
    assignments are each row's nearest centroid unless that would leave a
    cluster empty; then they are the loop's last, so the stored objective
    never exceeds the loop's last.
    """
    x = as_matrix(points, "points")
    n = len(x)
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if k > n:
        raise ConfigError(f"k={k} exceeds the number of points ({n})")

    x_sq = (x * x).sum(axis=1)
    init = _plus_plus_init(x, x_sq, k, np.random.default_rng(seed))
    return _lloyd(x, x_sq, init, k)


def _repair_empty(x: np.ndarray, assign: np.ndarray, sq: np.ndarray, k: int) -> int:
    """Refill empty clusters in place in `assign`; returns how many were refilled."""
    counts = np.bincount(assign, minlength=k)
    if np.all(counts > 0):
        return 0
    refilled = 0
    current = sq[np.arange(len(x)), assign].copy()
    for j in np.flatnonzero(counts == 0):
        donors = np.flatnonzero(counts[assign] > 1)
        if not len(donors):
            break
        far = donors[current[donors].argmax()]
        counts[assign[far]] -= 1
        assign[far] = j
        counts[j] = 1
        current[far] = 0.0
        refilled += 1
    return refilled

