import itertools

import numpy as np
import pytest

from desclite.cluster import KMeansModel, _plus_plus_init, assign, kmeans_fit
from desclite.errors import ConfigError, ShapeError


def exhaustive_two_cluster_optimum(points):
    """Global optimum of the k=2 objective by enumerating all assignments."""
    n = len(points)
    best = np.inf
    for bits in itertools.product((0, 1), repeat=n):
        labels = np.array(bits)
        cost = 0.0
        for j in (0, 1):
            members = points[labels == j]
            if len(members):
                cost += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, cost / n)
    return best


class TestKmeansFit:
    def test_k1_closed_form(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10, 3))
        model = kmeans_fit(x, 1, seed=0)
        assert np.allclose(model.centroids[0], x.mean(axis=0), atol=1e-12)
        expected = ((x - x.mean(axis=0)) ** 2).sum() / len(x)
        assert model.objective == pytest.approx(expected, abs=1e-12)

    def test_two_points_two_clusters(self):
        x = np.array([[0.0, 0.0], [5.0, 5.0]])
        model = kmeans_fit(x, 2, seed=1)
        assert model.objective == 0.0
        assert sorted(model.assignments.tolist()) == [0, 1]

    def test_exhaustive_assignment_oracle(self):
        strict = 0
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            x = rng.standard_normal((8, 2))
            model = kmeans_fit(x, 2, seed=seed)
            optimum = exhaustive_two_cluster_optimum(x)
            assert model.objective >= optimum - 1e-10  # Lloyd guarantee
            if abs(model.objective - optimum) <= 1e-10:
                strict += 1
        assert strict >= 16  # >= 80 % of instances reach the global optimum

    def test_objective_history_non_increasing(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((60, 4))
        model = kmeans_fit(x, 5, seed=3)
        hist = model.objective_history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((40, 3))
        a = kmeans_fit(x, 4, seed=7)
        b = kmeans_fit(x, 4, seed=7)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.objective == b.objective

    def test_well_separated_blobs_recovered(self):
        rng = np.random.default_rng(5)
        sigma = 0.05
        centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # 10 sigma apart
        truth = np.repeat(np.arange(3), 30)
        x = centers[truth] + rng.normal(0, sigma, (90, 2))
        model = kmeans_fit(x, 3, seed=6)
        # partition equality up to relabeling
        mapping = {}
        for cluster, true in zip(model.assignments, truth):
            mapping.setdefault(cluster, true)
            assert mapping[cluster] == true

    def test_assignments_are_nearest_centroid(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((30, 3))
        model = kmeans_fit(x, 4, seed=8)
        assert np.array_equal(model.assignments, assign(model, x))

    def test_duplicates_and_empty_cluster_repair(self):
        x = np.array([[0.0, 0.0]] * 5 + [[1.0, 1.0]] * 5 + [[5.0, 5.0]])
        model = kmeans_fit(x, 3, seed=9)
        assert len(np.unique(model.assignments)) == 3
        assert np.isfinite(model.centroids).all()

    def test_near_duplicate_rows(self):
        # the norm form can round a near-duplicate's squared distance to a
        # centre below 0; clamped, it is still a valid k-means++ weight
        base = np.random.default_rng(28).standard_normal((6, 128))
        x = np.vstack([base, base + 1e-9])
        model = kmeans_fit(x, 8, seed=0)
        assert len(np.unique(model.assignments)) == 8

    def test_k_greater_than_n(self):
        with pytest.raises(ConfigError):
            kmeans_fit(np.zeros((3, 2)), 4, seed=0)


class TestAssign:
    def test_centroid_maps_to_itself(self):
        model = KMeansModel(
            centroids=np.array([[0.0, 0.0], [2.0, 2.0]]),
            assignments=np.zeros(1, dtype=np.int64),
            objective=0.0,
            iterations_run=0,
        )
        assert assign(model, np.array([[2.0, 2.0]]))[0] == 1

    def test_tie_goes_to_smallest_index(self):
        model = KMeansModel(
            centroids=np.array([[0.0], [2.0]]),
            assignments=np.zeros(1, dtype=np.int64),
            objective=0.0,
            iterations_run=0,
        )
        assert assign(model, np.array([[1.0]]))[0] == 0

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(7)
        cents = rng.standard_normal((5, 4))
        pts = rng.standard_normal((20, 4))
        model = KMeansModel(centroids=cents, assignments=np.zeros(1, np.int64),
                            objective=0.0, iterations_run=0)
        got = assign(model, pts)
        for i in range(20):
            dists = [np.linalg.norm(pts[i] - c) for c in cents]
            assert got[i] == int(np.argmin(dists))

    def test_dim_mismatch(self):
        model = KMeansModel(centroids=np.zeros((2, 3)), assignments=np.zeros(1, np.int64),
                            objective=0.0, iterations_run=0)
        with pytest.raises(ShapeError):
            assign(model, np.zeros((4, 2)))


# Reference oracle: k-means as first written, before the Lloyd loop reused
# each iteration's distance matrix and summed clusters as sorted slices.
# kmeans_fit must match it bit for bit.

def _reference_sq_dist(points, centroids):
    sq = (
        (points * points).sum(axis=1)[:, None]
        + (centroids * centroids).sum(axis=1)[None, :]
        - 2.0 * points @ centroids.T
    )
    np.maximum(sq, 0.0, out=sq)
    return sq


def _reference_plus_plus_init(points, k, rng):
    n = len(points)
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            chosen[i] = rng.integers(n)  # all remaining points coincide
        else:
            chosen[i] = rng.choice(n, p=d2 / total)
        d2 = np.minimum(d2, ((points - points[chosen[i]]) ** 2).sum(axis=1))
    return points[chosen].copy()


def _reference_repair_empty(x, centroids, assign, sq, k):
    counts = np.bincount(assign, minlength=k)
    if np.all(counts > 0):
        return
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


def _reference_lloyd(x, centroids, k, max_iters):
    n = len(x)
    assignments = np.full(n, -1, dtype=np.int64)
    history = []
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        sq = _reference_sq_dist(x, centroids)
        new_assign = sq.argmin(axis=1)
        _reference_repair_empty(x, centroids, new_assign, sq, k)
        for j in range(k):
            centroids[j] = x[new_assign == j].mean(axis=0)
        objective = float(_reference_sq_dist(x, centroids)[np.arange(n), new_assign].mean())
        history.append(objective)
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
    final_sq = _reference_sq_dist(x, centroids)
    final_assign = final_sq.argmin(axis=1)
    _reference_repair_empty(x, centroids, final_assign, final_sq, k)
    objective = float(_reference_sq_dist(x, centroids)[np.arange(n), final_assign].mean())
    return centroids, final_assign, objective, iterations, history


def _reference_kmeans_fit(x, k, max_iters=50, seed=0, restarts=10):
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        init = _reference_plus_plus_init(x, k, rng)
        result = _reference_lloyd(x, init, k, max_iters)
        if best is None or result[2] < best[2]:
            best = result
    centroids, assignments, objective, iterations, history = best
    return KMeansModel(centroids=centroids, assignments=assignments, objective=objective,
                       iterations_run=iterations, objective_history=history)


def _assert_same_model(got, want):
    assert np.array_equal(got.centroids, want.centroids)
    assert np.array_equal(got.assignments, want.assignments)
    assert got.objective == want.objective
    assert got.iterations_run == want.iterations_run
    assert got.objective_history == want.objective_history


class TestReferenceOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_duplicate_rows_with_empty_cluster_repair(self, seed):
        rng = np.random.default_rng(20 + seed)
        base = rng.standard_normal((4, 3))
        x = base[rng.integers(4, size=40)]  # 40 rows, 4 distinct
        for k in (3, 6, 9):
            model = kmeans_fit(x, k, seed=seed, restarts=3)
            assert model.empty_repaired > 0 or k <= 4
            _assert_same_model(model, _reference_kmeans_fit(x, k, seed=seed, restarts=3))

    def test_duplicate_wide_rows(self):
        # at 128-D the norm form leaves a rounding residue, often positive,
        # on a row equal to the centre; it must still read 0, so that once
        # every distinct row is a centre the seeding takes its all-coincide
        # branch and makes the reference's draws
        rng = np.random.default_rng(27)
        x = rng.standard_normal((6, 128))[rng.integers(6, size=60)]
        for k in (6, 9):
            got_rng, want_rng = np.random.default_rng(8), np.random.default_rng(8)
            got = _plus_plus_init(x, (x * x).sum(axis=1), k, got_rng)
            assert np.array_equal(got, _reference_plus_plus_init(x, k, want_rng))
            assert got_rng.random() == want_rng.random()  # the same draws made
            _assert_same_model(kmeans_fit(x, k, seed=8, restarts=4),
                               _reference_kmeans_fit(x, k, seed=8, restarts=4))

    def test_k1_and_k_equals_n(self):
        x = np.random.default_rng(30).standard_normal((12, 5))
        for k in (1, 12):
            _assert_same_model(kmeans_fit(x, k, seed=4), _reference_kmeans_fit(x, k, seed=4))

    def test_one_dimensional_points(self):
        x = np.random.default_rng(31).standard_normal((50, 1))
        for k in (2, 7):
            _assert_same_model(kmeans_fit(x, k, seed=5), _reference_kmeans_fit(x, k, seed=5))

    def test_iteration_cap(self):
        x = np.random.default_rng(32).standard_normal((80, 4))
        for max_iters in (0, 1, 2):
            _assert_same_model(kmeans_fit(x, 6, max_iters=max_iters, seed=6),
                               _reference_kmeans_fit(x, 6, max_iters=max_iters, seed=6))

    def test_descriptor_sized_set(self):
        # the benchmark's shape: 2,100 training rows of 128-D, k = 50;
        # unclustered skewed data keeps Lloyd going for about 25 iterations
        x = np.random.default_rng(33).standard_normal((2100, 128)) ** 2
        model = kmeans_fit(x, 50, seed=7, restarts=2)
        assert model.iterations_run > 10
        _assert_same_model(model, _reference_kmeans_fit(x, 50, seed=7, restarts=2))


class TestEmptyRepaired:
    def test_counts_refilled_clusters(self):
        # k-means++ must draw a second [0, 0] centroid, which loses every
        # distance tie, so each of the two iterations refills it once
        x = np.array([[0.0, 0.0]] * 10 + [[1.0, 1.0]])
        model = kmeans_fit(x, 3, seed=0, restarts=1)
        assert model.iterations_run == 2
        assert model.empty_repaired == 2

    def test_final_assignments_leave_no_cluster_empty(self):
        # the final nearest-centroid pass sends every [0, 0] row to the first
        # of the twin [0, 0] centroids; its repair refills the second, which
        # `empty_repaired` does not count
        x = np.array([[0.0, 0.0]] * 10 + [[1.0, 1.0]])
        model = kmeans_fit(x, 3, seed=0, restarts=1)
        assert sorted(np.bincount(model.assignments, minlength=3)) == [1, 1, 9]
        assert model.empty_repaired == 2
        _assert_same_model(model, _reference_kmeans_fit(x, 3, seed=0, restarts=1))

    def test_zero_without_empty_clusters(self):
        x = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
        assert kmeans_fit(x, 2, seed=0).empty_repaired == 0
