"""Seeded k-means (k-means++ init, Lloyd iterations) for pseudo-labeling."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .numerics import as_matrix

DEFAULT_MAX_ITERS = 50
DEFAULT_RESTARTS = 10


@dataclass
class KMeansModel:
    centroids: np.ndarray          # (k, D)
    assignments: np.ndarray        # (N,) cluster index per training point
    objective: float               # mean squared distance to assigned centroid
    iterations_run: int
    objective_history: list = field(default_factory=list)
    empty_repaired: int = 0        # refills of emptied clusters, summed over the kept run

    @property
    def k(self) -> int:
        return len(self.centroids)


def _sq_dist(points: np.ndarray, points_sq: np.ndarray,
             centroids: np.ndarray) -> np.ndarray:
    """Squared distances from each point to each centroid; `points_sq` holds
    the points' squared row norms."""
    sq = (
        points_sq[:, None]
        + (centroids * centroids).sum(axis=1)[None, :]
        - 2.0 * (points @ centroids.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return sq


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


def _lloyd(x: np.ndarray, x_sq: np.ndarray, centroids: np.ndarray, k: int,
           max_iters: int):
    n = len(x)
    rows = np.arange(n)
    assignments = np.full(n, -1, dtype=np.int64)
    history: list[float] = []
    iterations = 0
    repaired = 0
    # distances to the current centroids: each iteration's argmin, the
    # previous iteration's objective and the final pass all read this matrix
    sq = _sq_dist(x, x_sq, centroids)
    for _ in range(max_iters):
        iterations += 1
        new_assign = sq.argmin(axis=1)
        repaired += _repair_empty(x, new_assign, sq, k)
        # each cluster's rows, in row order, as one contiguous slice
        order = np.argsort(new_assign, kind="stable")
        members = x[order]
        stops = np.cumsum(np.bincount(new_assign, minlength=k))
        start = 0
        for j, stop in enumerate(stops):
            centroids[j] = members[start:stop].sum(axis=0) / (stop - start)
            start = stop
        sq = _sq_dist(x, x_sq, centroids)
        objective = float(sq[rows, new_assign].mean())
        if history and objective > history[-1] + 1e-9 * max(1.0, history[-1]):
            raise NumericError(
                f"k-means objective increased: {history[-1]!r} -> {objective!r}"
            )
        history.append(objective)
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
    # final nearest-centroid pass so stored assignments match the centroids,
    # repaired like every iteration's (not counted in `repaired`) so that no
    # stored cluster is empty
    final_assign = sq.argmin(axis=1)
    _repair_empty(x, final_assign, sq, k)
    objective = float(sq[rows, final_assign].mean())
    return centroids, final_assign, objective, iterations, history, repaired


def kmeans_fit(points, k: int, max_iters: int = DEFAULT_MAX_ITERS,
               seed: int = 0, restarts: int = DEFAULT_RESTARTS) -> KMeansModel:
    """Cluster rows of `points` into k groups.

    Runs `restarts` independent k-means++ seedings from one seeded RNG and
    keeps the run with the lowest objective. The result is deterministic per
    arguments for a fixed BLAS library and thread count, which can change the
    last bits of the distances and so break near-ties differently.
    Each run stops when assignments stop changing or after `max_iters` Lloyd
    iterations; an emptied cluster is repaired by moving the point farthest
    from its assigned centroid into it. The objective (mean squared distance
    to the assigned centroid) is checked to be non-increasing every step.
    """
    x = as_matrix(points, "points")
    n = len(x)
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if k > n:
        raise ConfigError(f"k={k} exceeds the number of points ({n})")
    if restarts < 1:
        raise ConfigError(f"restarts must be >= 1, got {restarts}")

    x_sq = (x * x).sum(axis=1)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        init = _plus_plus_init(x, x_sq, k, rng)
        result = _lloyd(x, x_sq, init, k, max_iters)
        if best is None or result[2] < best[2]:
            best = result
    centroids, assignments, objective, iterations, history, repaired = best
    return KMeansModel(
        centroids=centroids,
        assignments=assignments,
        objective=objective,
        iterations_run=iterations,
        objective_history=history,
        empty_repaired=repaired,
    )


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


def assign(model: KMeansModel, points) -> np.ndarray:
    """Nearest-centroid index per row; distance ties go to the smaller index."""
    x = as_matrix(points, "points")
    if x.shape[1] != model.centroids.shape[1]:
        raise ShapeError(
            f"points have dim {x.shape[1]}, centroids have dim {model.centroids.shape[1]}"
        )
    return _sq_dist(x, (x * x).sum(axis=1), model.centroids).argmin(axis=1)
