import itertools
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from desclite import eval as ev
from desclite import numerics
from desclite.data import TIER_NAMES, DescriptorSet, LabelIndex, save_descriptors
from desclite.errors import ConfigError, NumericError
from desclite.eval import (
    EvalReport,
    average_precision,
    eval_matching,
    eval_retrieval,
    eval_verification,
)
from desclite.numerics import pairwise_distance_matrix, row_norms

from helpers import record_worker_parts


def hand_average_precision(rel):
    """Independent AP oracle: running-count enumeration."""
    hits = 0
    total = 0.0
    for rank, r in enumerate(rel, start=1):
        if r:
            hits += 1
            total += hits / rank
    return total / sum(rel)


def make_set(descriptors, labels, seqs=None, tiers=None):
    n = len(descriptors)
    return DescriptorSet(
        descriptors=np.asarray(descriptors, dtype=np.float64),
        labels=labels,
        sequence_ids=np.zeros(n, dtype=np.int64) if seqs is None else seqs,
        tiers=tiers,
    )


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([1, 1, 1]) == 1.0

    def test_single_relevant_at_rank_3(self):
        assert average_precision([0, 0, 1]) == pytest.approx(1 / 3, abs=1e-15)

    def test_interleaved(self):
        assert average_precision([1, 0, 1]) == pytest.approx((1 + 2 / 3) / 2, abs=1e-12)

    def test_exhaustive_hand_oracle_up_to_len_8(self):
        for length in range(1, 9):
            for bits in itertools.product((0, 1), repeat=length):
                if sum(bits) == 0:
                    continue
                assert average_precision(list(bits)) == pytest.approx(
                    hand_average_precision(bits), abs=1e-12)

    def test_zero_relevant_rejected(self):
        with pytest.raises(ConfigError):
            average_precision([0, 0, 0])


class TestVerification:
    def test_separable_embeddings_ap_1(self):
        rng = np.random.default_rng(0)
        centers = np.eye(4)
        labels = np.repeat(np.arange(4), 5)
        x = centers[labels] + 0.01 * rng.standard_normal((20, 4))
        report = eval_verification(make_set(x, labels), pairs_per_tier=50, seed=1)
        assert report.map_overall == 1.0
        assert report.task == "verification"

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(1)
        labels = np.repeat(np.arange(40), 4)
        x = rng.standard_normal((160, 8))  # no class structure at all
        report = eval_verification(make_set(x, labels), pairs_per_tier=4000, seed=2)
        assert abs(report.map_overall - 0.5) <= 0.05

    def test_deterministic_with_duplicate_distances(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        x = np.zeros((6, 3))  # all pairs tie at distance zero
        a = eval_verification(make_set(x, labels), pairs_per_tier=20, seed=3)
        b = eval_verification(make_set(x, labels), pairs_per_tier=20, seed=3)
        assert a.map_overall == b.map_overall
        assert a.map_by_tier == b.map_by_tier

    def test_tier_breakdown_present(self):
        rng = np.random.default_rng(2)
        labels = np.repeat(np.arange(10), 4)
        tiers = np.tile([0, 0, 1, 2], 10).astype(np.uint8)
        x = rng.standard_normal((40, 6))
        report = eval_verification(make_set(x, labels, tiers=tiers),
                                   pairs_per_tier=30, seed=4)
        assert set(report.map_by_tier) == {"easy", "hard", "tough"}

    def test_insufficient_classes(self):
        with pytest.raises(ConfigError):
            eval_verification(make_set(np.zeros((3, 2)), [0, 0, 1]), seed=0)


class TestMatching:
    def test_identity_target_maps_to_1(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal((12, 5))
        x = np.vstack([base, base])
        labels = np.concatenate([np.arange(12), np.arange(12)])
        seqs = np.concatenate([np.zeros(12, int), np.ones(12, int)])
        report = eval_matching(make_set(x, labels, seqs))
        assert report.map_overall == 1.0
        assert report.num_queries == 1

    def test_permuted_labels_near_chance(self):
        rng = np.random.default_rng(1)
        n = 400
        base = rng.standard_normal((n, 16))
        perm = rng.permutation(n)
        x = np.vstack([base, base[perm]])
        labels = np.concatenate([np.arange(n), np.arange(n)])  # target rows shuffled
        seqs = np.concatenate([np.zeros(n, int), np.ones(n, int)])
        report = eval_matching(make_set(x, labels, seqs))
        # NN of each reference is its own copy at a random label position
        assert report.map_overall <= 3.0 / n * 3

    def test_three_patch_hand_instance(self):
        # reference a,b,c; target nearest neighbors: a->b (wrong, d=0.1),
        # b->a (wrong, d=0.2), c->c (right, d=0.3) => relevance [0,0,1], AP=1/3
        ref = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
        tgt = np.array([[10.0, 0.2], [0.0, 0.1], [20.0, 0.3]])
        x = np.vstack([ref, tgt])
        # labels are 3D-point identity: target row i shows the same point as
        # reference row i, so a's nearest neighbor (target row 1) is wrong
        labels = np.array([0, 1, 2, 0, 1, 2])
        seqs = np.array([0, 0, 0, 1, 1, 1])
        report = eval_matching(make_set(x, labels, seqs))
        assert report.map_overall == pytest.approx(1 / 3, abs=1e-12)

    def test_ground_truth_is_label_not_row_position(self):
        ref = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
        tgt = np.array([[10.0, 0.2], [0.0, 0.1], [20.0, 0.3]])
        x = np.vstack([ref, tgt])
        seqs = np.array([0, 0, 0, 1, 1, 1])
        # same geometry as the hand instance, but target rows carry the labels
        # of the reference points they sit on: every match is correct
        report = eval_matching(make_set(x, np.array([0, 1, 2, 1, 0, 2]), seqs))
        assert report.map_overall == 1.0

        rng = np.random.default_rng(4)
        base = rng.standard_normal((20, 6))
        noisy = base + 0.8 * rng.standard_normal((20, 6))
        labels = np.tile(np.arange(20), 2)
        seqs = np.repeat([0, 1], 20)
        tiers = np.repeat([0, 1], 20).astype(np.uint8)
        aligned = eval_matching(make_set(np.vstack([base, noisy]), labels, seqs, tiers))
        assert 0.0 < aligned.map_overall < 1.0
        # reorder the target rows, labels moved along with them
        perm = rng.permutation(20)
        shuffled = eval_matching(make_set(
            np.vstack([base, noisy[perm]]),
            np.concatenate([np.arange(20), np.arange(20)[perm]]),
            seqs, tiers,
        ))
        assert shuffled.map_overall == pytest.approx(aligned.map_overall, abs=1e-12)
        assert shuffled.map_by_tier == pytest.approx(aligned.map_by_tier, abs=1e-12)

    def test_all_wrong_pair_scores_zero(self):
        rng = np.random.default_rng(5)
        n = 8
        base = rng.standard_normal((n, 4))
        shift = np.roll(np.arange(n), 1)  # no fixed point: every match wrong
        x = np.vstack([base, base, base[shift]])
        labels = np.tile(np.arange(n), 3)
        seqs = np.repeat([0, 1, 2], n)
        tiers = np.repeat([0, 0, 2], n).astype(np.uint8)
        report = eval_matching(make_set(x, labels, seqs, tiers))
        assert report.map_overall == 0.5
        assert report.num_queries == 2
        assert report.num_skipped == 0
        assert report.num_zero_ap == 1
        assert "num_zero_ap=1" in report.lines()
        assert report.map_by_tier == {"easy": 1.0, "tough": 0.0}

    def test_no_shared_labels_skipped_with_warning(self):
        x = np.random.default_rng(2).standard_normal((4, 3))
        labels = np.array([0, 1, 2, 3])
        seqs = np.array([0, 0, 1, 1])
        with pytest.warns(RuntimeWarning, match="share no labels"):
            with pytest.raises(ConfigError):
                eval_matching(make_set(x, labels, seqs))

    def test_per_tier_buckets(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((10, 4))
        x = np.vstack([base, base + 0.001, base + 0.002])
        labels = np.tile(np.arange(10), 3)
        seqs = np.repeat([0, 1, 2], 10)
        tiers = np.repeat([0, 0, 2], 10).astype(np.uint8)
        report = eval_matching(make_set(x, labels, seqs, tiers))
        assert set(report.map_by_tier) == {"easy", "tough"}


class TestRetrieval:
    def test_nearest_same_label_gives_1(self):
        rng = np.random.default_rng(0)
        centers = np.eye(5) * 10
        labels = np.repeat(np.arange(5), 3)
        x = centers[labels] + 0.01 * rng.standard_normal((15, 5))
        report = eval_retrieval(make_set(x, labels), distractors_per_query=8, seed=1)
        assert report.map_overall == 1.0
        assert report.num_queries == 15

    def test_identical_item_ranks_first(self):
        x = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [6.0, 6.0]])
        labels = np.array([0, 0, 1, 1])
        report = eval_retrieval(make_set(x, labels), distractors_per_query=4, seed=2)
        assert report.map_overall == 1.0

    def test_five_item_hand_pool(self):
        # query label 0; same-label items at distances 2 and 4; distractors
        # at 1, 3, 5 => relevance by distance = [0,1,0,1,0], AP = (1/2+2/4)/2
        x = np.array([
            [0.0], [2.0], [4.0],      # label 0: query + two relevant
            [1.0], [3.0], [5.0],      # distractors
        ])
        labels = np.array([0, 0, 0, 1, 2, 3])
        dset = make_set(x, labels)
        report = eval_retrieval(dset, distractors_per_query=5, seed=3)
        # only queries of label 0 count; take the first query's AP from the
        # mean over the three label-0 queries by computing it directly
        from desclite.eval import average_precision
        assert report.num_queries == 3
        first_ap = (1 / 2 + 2 / 4) / 2
        assert first_ap == pytest.approx(average_precision([0, 1, 0, 1, 0]), abs=1e-12)

    def test_single_patch_classes_skipped(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.1, 0.0]])
        labels = np.array([0, 1, 2, 2])
        report = eval_retrieval(make_set(x, labels), distractors_per_query=3, seed=4)
        assert report.num_queries == 2
        assert report.num_skipped == 2


class TestInvariances:
    def _random_tiered_set(self, rng, n_classes=12, per=4):
        labels = np.repeat(np.arange(n_classes), per)
        seqs = np.tile(np.arange(per), n_classes)
        tiers = np.tile([0, 0, 1, 2], n_classes).astype(np.uint8)
        centers = rng.standard_normal((n_classes, 8)) * 2
        x = centers[labels] + 0.4 * rng.standard_normal((n_classes * per, 8))
        return make_set(x, labels, seqs, tiers)

    def test_orthogonal_transform_invariance(self):
        rng = np.random.default_rng(5)
        dset = self._random_tiered_set(rng)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        rotated = DescriptorSet(dset.descriptors @ q, dset.labels,
                                dset.sequence_ids, tiers=dset.tiers)
        for task, kwargs in (
            (eval_verification, {"pairs_per_tier": 40}),
            (eval_matching, {}),
            (eval_retrieval, {"distractors_per_query": 10}),
        ):
            a = task(dset, seed=7, **kwargs)
            b = task(rotated, seed=7, **kwargs)
            assert abs(a.map_overall - b.map_overall) <= 1e-12
            for tier in a.map_by_tier:
                assert abs(a.map_by_tier[tier] - b.map_by_tier[tier]) <= 1e-12

    def test_global_scaling_invariance(self):
        rng = np.random.default_rng(6)
        dset = self._random_tiered_set(rng)
        scaled = DescriptorSet(dset.descriptors * 7.5, dset.labels,
                               dset.sequence_ids, tiers=dset.tiers)
        a = eval_matching(dset, seed=8)
        b = eval_matching(scaled, seed=8)
        assert abs(a.map_overall - b.map_overall) <= 1e-12

    def test_reports_deterministic(self):
        rng = np.random.default_rng(7)
        dset = self._random_tiered_set(rng)
        a = eval_verification(dset, pairs_per_tier=30, seed=9)
        b = eval_verification(dset, pairs_per_tier=30, seed=9)
        assert a == b

    def test_report_lines_format(self):
        rng = np.random.default_rng(8)
        dset = self._random_tiered_set(rng)
        report = eval_matching(dset, seed=1)
        lines = report.lines()
        assert lines[0] == "task=matching"
        assert any(line.startswith("map_overall=") for line in lines)
        assert any(line.startswith("tier.") for line in lines)


# Reference oracles: the per-query loops the tasks were first written as.
# Each scans every row per query or attempt, so they serve small sets only,
# and every distance is the single-vector norm of one pair. They draw
# through the same `integers` calls and `_distinct` as the tasks, so they
# check everything but the draw stream. A drawn index picks among a row's
# other-label rows in cyclic label order (`_reference_other_labels`).
# Matching's config leaves out the seed, which matching never used.

def _reference_tier_of(dset, row):
    return "all" if dset.tiers is None else TIER_NAMES[int(dset.tiers[row])]


def _reference_ranked(distances, relevant, tie_index):
    return relevant[np.lexsort((tie_index, distances))]


def _reference_other_labels(labels, rows, label):
    # `rows` whose label is not `label`: the labels above it, then those below
    # it, each label's rows ascending
    other = rows[labels[rows] != label]
    return other[np.lexsort((other, labels[other], labels[other] < label))]


def _reference_sample_pairs(dset, tier_rows, code, codes, rng, want, positive, multi):
    # the attempts' rows in one call, then the kept attempts' partners in one
    labels = dset.labels
    kept, cands = [], []
    for t in rng.integers(len(tier_rows), size=max(50 * want, 1000)):
        if len(kept) == want:
            break
        i = int(tier_rows[t])
        if positive:
            if labels[i] not in multi:
                continue
            cand = np.flatnonzero((labels == labels[i]) & (codes <= code))
        else:
            cand = _reference_other_labels(labels, np.flatnonzero(codes <= code), labels[i])
        cand = cand[cand != i]
        if len(cand):
            kept.append(i)
            cands.append(cand)
    r = rng.integers(0, np.array([len(c) for c in cands], dtype=np.int64))
    return [(i, int(c[k])) for i, c, k in zip(kept, cands, r)]


def _reference_verification(dset, pairs_per_tier, seed):
    labels = dset.labels
    classes, counts = np.unique(labels, return_counts=True)
    rng = np.random.default_rng(seed)
    codes = dset.tiers if dset.tiers is not None else np.zeros(len(dset), np.uint8)
    tiers_present = sorted(set(int(c) for c in codes))
    multi = set(classes[counts >= 2].tolist())
    pair_dist, pair_rel, pair_tier, pairs_by_tier = [], [], [], {}
    for code in tiers_present:
        tier_rows = np.flatnonzero(codes == code)
        counts = {"requested": pairs_per_tier}
        for positive in (True, False):
            pairs = _reference_sample_pairs(dset, tier_rows, code, codes, rng,
                                            pairs_per_tier, positive, multi)
            counts["positive" if positive else "negative"] = len(pairs)
            for (i, j) in pairs:
                pair_dist.append(float(np.linalg.norm(dset.descriptors[i] - dset.descriptors[j])))
                pair_rel.append(float(positive))
                pair_tier.append(code)
        pairs_by_tier["all" if dset.tiers is None else TIER_NAMES[code]] = counts
    dist, rel, tier_arr = np.asarray(pair_dist), np.asarray(pair_rel), np.asarray(pair_tier)
    idx = np.arange(len(dist))
    by_tier = {}
    for code in tiers_present:
        mask = tier_arr == code
        if rel[mask].sum() > 0:
            name = "all" if dset.tiers is None else TIER_NAMES[code]
            by_tier[name] = average_precision(_reference_ranked(dist[mask], rel[mask], idx[mask]))
    return EvalReport(
        task="verification",
        map_overall=average_precision(_reference_ranked(dist, rel, idx)),
        map_by_tier=by_tier, num_queries=len(dist), num_skipped=0,
        config={"pairs_per_tier": pairs_per_tier, "seed": seed, "dim": dset.dim},
        pairs_by_tier=pairs_by_tier,
    )


def _reference_norms(diff):
    # np.linalg.norm of each row on its own, one vector at a time, in one call
    return np.sqrt(np.vecdot(diff, diff))


def _reference_nearest(queries, targets):
    # per query: every target's distance, then the first smallest
    nn = np.array([_reference_norms(q - targets).argmin() for q in queries], dtype=np.int64)
    return nn, _reference_norms(queries - targets[nn])


def _reference_matching(dset):
    seqs = np.unique(dset.sequence_ids)
    ref_id = int(seqs.min())
    ref_rows = np.flatnonzero(dset.sequence_ids == ref_id)
    aps, tiers_of_pairs, skipped = [], [], 0
    for target in seqs[seqs != ref_id]:
        tgt_rows = np.flatnonzero(dset.sequence_ids == target)
        shared = np.intersect1d(dset.labels[ref_rows], dset.labels[tgt_rows])
        if not len(shared):
            skipped += 1
            continue
        use_ref = ref_rows[np.isin(dset.labels[ref_rows], shared)]
        nn, nn_dist = _reference_nearest(dset.descriptors[use_ref],
                                         dset.descriptors[tgt_rows])
        correct = (dset.labels[tgt_rows][nn] == dset.labels[use_ref]).astype(np.float64)
        ranked = _reference_ranked(nn_dist, correct, np.arange(len(use_ref)))
        aps.append(average_precision(ranked) if correct.any() else 0.0)
        if dset.tiers is None:
            tiers_of_pairs.append("all")
        else:
            tiers_of_pairs.append(TIER_NAMES[int(np.bincount(dset.tiers[tgt_rows]).argmax())])
    by_tier = {}
    for name, ap in zip(tiers_of_pairs, aps):
        by_tier.setdefault(name, []).append(ap)
    return EvalReport(
        task="matching", map_overall=float(np.mean(aps)),
        map_by_tier={name: float(np.mean(v)) for name, v in by_tier.items()},
        num_queries=len(aps), num_skipped=skipped,
        num_zero_ap=sum(ap == 0.0 for ap in aps), config={"dim": dset.dim},
    )


def _reference_retrieval(dset, distractors_per_query, seed):
    labels = dset.labels
    classes, counts = np.unique(labels, return_counts=True)
    count_of = dict(zip(classes.tolist(), counts.tolist()))
    queries = [q for q in range(len(dset)) if count_of[int(labels[q])] >= 2]
    n_other = [int(np.sum(labels != labels[q])) for q in queries]
    takes = [min(distractors_per_query, n) for n in n_other]
    picks = ev._distinct(np.random.default_rng(seed), n_other, takes)
    aps, tiers_of_queries = [], []
    for q, pick, take in zip(queries, picks, takes):
        same = np.flatnonzero(labels == labels[q])
        same = same[same != q]
        distractors = _reference_other_labels(labels, np.arange(len(dset)), labels[q])[pick[:take]]
        pool = np.concatenate([same, distractors])
        dist = np.array([np.linalg.norm(dset.descriptors[k] - dset.descriptors[q]) for k in pool])
        rel = np.concatenate([np.ones(len(same)), np.zeros(len(distractors))])
        aps.append(average_precision(_reference_ranked(dist, rel, pool)))
        tiers_of_queries.append(_reference_tier_of(dset, q))
    skipped = len(dset) - len(queries)
    by_tier = {}
    for name, ap in zip(tiers_of_queries, aps):
        by_tier.setdefault(name, []).append(ap)
    return EvalReport(
        task="retrieval", map_overall=float(np.mean(aps)),
        map_by_tier={name: float(np.mean(v)) for name, v in by_tier.items()},
        num_queries=len(aps), num_skipped=skipped,
        config={"distractors_per_query": distractors_per_query, "seed": seed,
                "dim": dset.dim},
    )


def _uneven_set(seed, tiered):
    """Classes of 1 to 9 rows plus one of 40, rows shuffled, so sequences
    are not index-aligned and labels are not contiguous."""
    rng = np.random.default_rng(seed)
    sizes = np.concatenate([rng.integers(1, 10, size=40), [1, 1, 40]])
    labels = np.repeat(rng.permutation(500)[:len(sizes)], sizes)
    n = len(labels)
    centres = rng.standard_normal((labels.max() + 1, 6))
    x = centres[labels] + 0.7 * rng.standard_normal((n, 6))
    x[rng.integers(n, size=8)] = x[0]  # exact duplicates tie in every task
    seqs = rng.integers(0, 4, size=n)
    perm = rng.permutation(n)
    tiers = rng.integers(0, 3, size=n).astype(np.uint8)[perm] if tiered else None
    return make_set(x[perm], labels[perm], seqs[perm], tiers)


class TestReferenceOracle:
    @pytest.mark.parametrize("block", [ev.BLOCK_FLOATS, 1 << 20, 60])
    @pytest.mark.parametrize("tiered", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reports_equal_the_per_query_loops(self, seed, tiered, block, monkeypatch):
        # a small block splits matching and retrieval into many blocks
        monkeypatch.setattr(ev, "BLOCK_FLOATS", block)
        dset = _uneven_set(seed, tiered)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for pairs in (7, 300):
                assert eval_verification(dset, pairs_per_tier=pairs, seed=seed) == \
                    _reference_verification(dset, pairs, seed)
            assert eval_matching(dset, seed=seed) == _reference_matching(dset)
        # 1000 distractors is more than the rows of other labels
        for distractors in (0, 3, 50, 1000):
            assert eval_retrieval(dset, distractors_per_query=distractors, seed=seed) == \
                _reference_retrieval(dset, distractors, seed)

    @pytest.mark.parametrize("block", [ev.BLOCK_FLOATS, 170])
    @pytest.mark.parametrize("distractors", [1000, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_retrieval_ties_between_mates_and_distractors(self, seed, distractors, block,
                                                         monkeypatch):
        # Label 0 is rows 1, 4 and 9, and row 9 is row 4's twin. Rows 0 and 6
        # are row 4's twins under other labels, one below and one above it,
        # so for query row 1 two mates and two distractors sit at one
        # distance and rank by row index: 0, 4, 6, 9. Labels 6 and 7 add six
        # rows with no twin and label 0's pool shape.
        monkeypatch.setattr(ev, "BLOCK_FLOATS", block)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((18, 5))
        x[[0, 6, 9]] = x[4]
        labels = np.array([1, 0, 3, 2, 0, 3, 2, 1, 4, 0, 4, 5, 6, 6, 6, 7, 7, 7])
        dset = make_set(x, labels)
        report = eval_retrieval(dset, distractors_per_query=distractors, seed=seed)
        assert report == _reference_retrieval(dset, distractors, seed)
        # the tied distances are equal bit for bit
        dist = np.linalg.norm(x[[0, 4, 6, 9]] - x[1], axis=1)
        assert (dist == dist[0]).all()
        # With every other row in the pool, a mate ties another pool row only
        # for queries 1, 3, 4, 7 and 9. Block 170 holds two queries of one
        # pool shape (17 pool rows of 5 entries each), so queries 3 and 5,
        # 6 and 7, and 9 and 12 share a block and the tie count touches one
        # of its two columns.
        full = np.linalg.norm(x[:, None] - x[None], axis=2)
        others = ~np.eye(len(x), dtype=bool)
        tied = [q for q in range(len(x))
                if any((full[q, others[q]] == full[q, m]).sum() > 1
                       for m in np.flatnonzero((labels == labels[q]) & others[q]))]
        assert tied == [1, 3, 4, 7, 9]

    def test_matching_candidates_in_a_block_s_first_and_last_rows(self, monkeypatch):
        # Blocks of 4 of the 8 reference rows. The first and last row of each
        # block have three targets 3 away along an axis, with other labels,
        # and after them the matching target 3(1 - 1e-12) away. Small
        # integers keep every float32 value of the search exact, so all four
        # targets get one value and the search's first minimum is the first
        # of them: only the float64 scores of every candidate find the
        # match. The middle rows have one clear nearest, 5 away, so they rank
        # after the others and a wrong match at the edges lowers the AP.
        rng = np.random.default_rng(10)
        ref = 10.0 * rng.integers(-4, 5, size=(8, 6))
        assert len(np.unique(ref, axis=0)) == 8
        eye = np.eye(6)
        groups = []
        for i, row in enumerate(ref):
            if i % 4 in (0, 3):
                groups.append(([row + 3 * eye[0], row - 3 * eye[1], row + 3 * eye[2],
                                row + 3 * (1 - 1e-12) * eye[3]],
                               [i + 100, i + 200, i + 300, i]))
            else:
                groups.append(([row + 5 * eye[i % 6]], [i]))
        # the targets of the last reference row come first
        targets = np.vstack([np.asarray(t) for t, _ in reversed(groups)])
        target_labels = np.concatenate([lab for _, lab in reversed(groups)])
        x = np.vstack([ref, targets])
        labels = np.concatenate([np.arange(8), target_labels])
        dset = make_set(x, labels, np.repeat([0, 1], [8, len(targets)]))
        monkeypatch.setattr(ev, "BLOCK_FLOATS", 4 * len(targets))
        report = eval_matching(dset)
        assert report == _reference_matching(dset)
        assert report.map_overall == 1.0

    def test_matching_blocks_on_a_large_pair(self):
        rng = np.random.default_rng(9)
        n = 1500
        assert n * n > 2 * ev.BLOCK_FLOATS  # the distances take several blocks
        base = rng.standard_normal((n, 8))
        perm = rng.permutation(n)
        x = np.vstack([base, base[perm] + 0.3 * rng.standard_normal((n, 8))])
        labels = np.concatenate([np.arange(n), perm])
        dset = make_set(x, labels, np.repeat([0, 1], n))
        assert eval_matching(dset) == _reference_matching(dset)


class TestTwoWorkers:
    """Matching and retrieval hand the second half of their blocks to the
    worker thread (`numerics.split_rows`); every report keeps the bits of
    the one-thread loop."""

    @staticmethod
    def _set():
        # 30 classes, each seen once in each of 4 sequences, 8-D, tiered:
        # matching queries 30 reference rows against 3 targets of 30 rows,
        # and retrieval's 120 queries share one pool shape, 3 mates and 10
        # distractors
        rng = np.random.default_rng(21)
        labels = np.tile(np.arange(30), 4)
        x = rng.standard_normal((30, 8))[labels] + 0.6 * rng.standard_normal((120, 8))
        return make_set(x, labels, np.repeat(np.arange(4), 30),
                        rng.integers(0, 3, size=120).astype(np.uint8))

    @staticmethod
    def _both(monkeypatch, run):
        """`run()` with one worker, then with two, and the parts handed to
        the worker thread."""
        record_worker_parts(monkeypatch, 1)
        serial = run()
        handed = record_worker_parts(monkeypatch, 2)
        return serial, run(), handed

    # (blocks, matching rows per block, retrieval queries per block): one
    # block, two, an odd count, and an even count whose last block is short
    @pytest.mark.parametrize("blocks,match_rows,retrieval_rows",
                             [(1, 30, 120), (2, 15, 60), (5, 7, 26), (4, 8, 35)])
    def test_reports_keep_the_bits_of_one_thread(self, blocks, match_rows, retrieval_rows,
                                                 monkeypatch):
        monkeypatch.setattr(ev, "MIN_PART_BLOCKS", 1)
        dset = self._set()
        tasks = [(lambda: eval_matching(dset), match_rows * 30, match_rows, 30, 3),
                 (lambda: eval_retrieval(dset, distractors_per_query=10, seed=3),
                  retrieval_rows * 13 * 8, retrieval_rows, 120, 1)]
        for run, block_floats, rows, n, loops in tasks:
            monkeypatch.setattr(ev, "BLOCK_FLOATS", block_floats)
            assert -(-n // rows) == blocks
            serial, split, handed = self._both(monkeypatch, run)
            assert split == serial
            assert split.lines() == serial.lines()
            # every target sequence, or the one pool shape, is cut at a block
            assert len(handed) == (loops if blocks > 1 else 0)
            assert all(lo % rows == 0 and hi == n for lo, hi in handed)

    @pytest.mark.parametrize("tiered", [True, False])
    def test_uneven_sets_keep_the_bits_of_one_thread(self, tiered, monkeypatch):
        # many pool shapes and sequences of unequal length, in small blocks
        monkeypatch.setattr(ev, "MIN_PART_BLOCKS", 1)
        monkeypatch.setattr(ev, "BLOCK_FLOATS", 60)
        dset = _uneven_set(3, tiered)
        for task in (eval_verification, eval_matching, eval_retrieval):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                serial, split, handed = self._both(monkeypatch,
                                                   lambda: task(dset, seed=4))
            assert split == serial
            assert split.lines() == serial.lines()
            # verification has no blocks to hand over
            assert bool(handed) == (task is not eval_verification)

    @pytest.mark.parametrize("split", [False, True])
    def test_a_split_needs_min_part_blocks_for_each_thread(self, split, monkeypatch):
        # blocks of rows // (2 * MIN_PART_BLOCKS) rows give each thread
        # MIN_PART_BLOCKS blocks' worth; one row more per block stays serial
        dset = self._set()
        tasks = [(lambda: eval_matching(dset), 30, 30, 3),
                 (lambda: eval_retrieval(dset, distractors_per_query=10, seed=3),
                  120, 13 * 8, 1)]
        for run, n, per_row, loops in tasks:
            rows = n // (2 * ev.MIN_PART_BLOCKS) + (not split)
            monkeypatch.setattr(ev, "BLOCK_FLOATS", rows * per_row)
            _, _, handed = self._both(monkeypatch, run)
            assert len(handed) == (loops if split else 0)


@pytest.mark.parametrize("task", [eval_verification, eval_matching, eval_retrieval])
def test_a_non_finite_descriptor_raises(task):
    # 10 classes seen in 4 sequences; one row of the reference sequence is NaN
    rng = np.random.default_rng(2)
    x = rng.standard_normal((40, 8))
    x[12] = np.nan
    dset = make_set(x, np.repeat(np.arange(10), 4), np.tile(np.arange(4), 10))
    with pytest.raises(NumericError):
        task(dset)


def test_matching_ignores_the_seed():
    dset = _uneven_set(4, tiered=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        a = eval_matching(dset, seed=1)
        b = eval_matching(dset, seed=2)
    assert a == b
    assert "seed" not in a.config


@pytest.mark.parametrize("labels,tiers,short,scored", [
    # the two tough rows are the only rows of their labels
    ([0, 0, 1, 1, 2, 3], [0, 0, 0, 0, 2, 2], "tough", ["easy"]),
    # the hard rows are the only rows of their labels among the rows no
    # noisier than them, and tough's pairs come after hard's in the pool
    ([0, 0, 1, 1, 2, 3, 0, 1, 4, 4], [0, 0, 0, 0, 1, 1, 2, 2, 2, 2], "hard",
     ["easy", "tough"]),
])
def test_verification_warns_on_a_short_tier(labels, tiers, short, scored):
    # the short tier draws negatives but no positive, so it has no AP of its own
    x = np.random.default_rng(3).standard_normal((len(labels), 4))
    dset = make_set(x, np.array(labels), tiers=np.array(tiers, dtype=np.uint8))
    with pytest.warns(RuntimeWarning) as caught:
        report = eval_verification(dset, pairs_per_tier=10, seed=5)
    messages = [str(w.message) for w in caught]
    assert messages == [
        f"verification: tier {short} drew 0 positive and 10 negative pairs of 10 requested each",
        f"verification: tier {short} has no positive pairs; left out of map_by_tier",
    ]
    assert list(report.map_by_tier) == scored
    assert report.num_queries == 20 * len(scored) + 10
    assert report == _reference_verification(dset, 10, 5)


def test_verification_reports_pairs_per_tier():
    labels = np.array([0, 0, 1, 1, 2, 3])
    tiers = np.array([0, 0, 0, 0, 2, 2], dtype=np.uint8)
    x = np.random.default_rng(3).standard_normal((6, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = eval_verification(make_set(x, labels, tiers=tiers), pairs_per_tier=10, seed=5)
    assert report.pairs_by_tier == {
        "easy": {"requested": 10, "positive": 10, "negative": 10},
        "tough": {"requested": 10, "positive": 0, "negative": 10},
    }
    lines = report.lines()
    assert lines[lines.index("tier.tough.pairs_requested=10"):] == [
        "tier.tough.pairs_requested=10",
        "tier.tough.pairs_positive=0",
        "tier.tough.pairs_negative=10",
    ]
    assert "tier.easy.pairs_positive=10" in lines


def test_reference_norms_are_single_vector_norms():
    rng = np.random.default_rng(12)
    for d in (1, 3, 8, 31, 32, 128, 300):
        diff = rng.standard_normal((40, d)) * 10.0 ** rng.integers(-6, 6, size=(40, 1))
        want = np.array([np.linalg.norm(v) for v in diff])
        assert np.array_equal(_reference_norms(diff), want)
        assert np.array_equal(row_norms(diff), want)
        out = np.full(len(diff), np.nan)
        assert row_norms(diff, out=out) is out
        assert np.array_equal(out, want)


class TestNearest:
    """Matching's nearest rows against a brute-force search over every
    target's per-pair norm, compared with `==`: same rows, same bits."""

    @staticmethod
    def _check(queries, targets):
        nn, dist = ev._nearest(queries, targets)
        want_nn, want_dist = _reference_nearest(queries, targets)
        assert np.array_equal(nn, want_nn)
        assert np.array_equal(dist, want_dist)
        return nn, dist

    @staticmethod
    def _near_ties(seed):
        """Every query has 2 to 4 targets along one displacement, stretched
        by 0 (the same point), 2^-52, 2^-50, 1e-12, 1e-9 or 1e-6, among
        random targets; the rows are shuffled."""
        rng = np.random.default_rng(seed)
        d = (8, 32, 128)[seed % 3]
        queries = rng.standard_normal((60, d))
        planted = []
        for q in queries:
            v = 0.3 * rng.standard_normal(d)
            for stretch in rng.choice([0.0, 2.0 ** -52, 2.0 ** -50, 1e-12, 1e-9, 1e-6],
                                      size=rng.integers(2, 5)):
                planted.append(q + v * (1.0 + stretch))
        targets = np.vstack([np.vstack(planted), rng.standard_normal((100, d))])
        return queries, targets[rng.permutation(len(targets))]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_planted_near_ties(self, seed):
        queries, targets = self._near_ties(seed)
        nn, dist = self._check(queries, targets)
        # the float32 search alone picks another row for some queries
        g32 = pairwise_distance_matrix(queries.astype(np.float32),
                                       targets.astype(np.float32), shifted=True)
        assert (g32.argmin(axis=1) != nn).sum() >= 5
        # and some rows have a runner-up within one float64 step, or a tie
        norms = _reference_norms(queries[:, None, :] - targets[None, :, :])
        runner_up = np.sort(norms, axis=1)[:, 1]
        assert ((runner_up - dist) <= np.spacing(dist)).sum() >= 5

    @pytest.mark.parametrize("d", [1, 8, 32, 128])
    def test_float32_values_lie_within_the_bound(self, d):
        # every float32 value of the search, computed as `_nearest` computes
        # it, against the exact |b|^2 - 2a.b of the scaled float64 rows
        rng = np.random.default_rng(d)

        def rows(n, power):
            return np.ldexp(rng.standard_normal((n, d)), power)

        # one large query row sets the scale; the others and every target
        # have squares and products below 2^-126, and some entries cast to
        # float32 subnormals
        tiny_q, tiny_t = rows(4, -66), rows(7, -66)
        tiny_q[:, ::3] = rows(4, -140)[:, ::3]
        tiny_t[:, 1::3] = rows(7, -135)[:, 1::3]
        sets = [(rows(5, 0), rows(7, 0)),
                (rows(5, 0), rows(7, -12)),   # |a| >> |b|
                (rows(5, -12), rows(7, 0)),   # |a| << |b|
                (np.vstack([rows(1, 0), tiny_q]), tiny_t)]
        for queries, targets in sets:
            # raw rows of any size; `_nearest` scales them below 1
            queries, targets = np.ldexp(queries, 300), np.ldexp(targets, 300)
            top = max(np.abs(queries).max(), np.abs(targets).max())
            shift = -int(np.frexp(top)[1])
            queries, targets = np.ldexp(queries, shift), np.ldexp(targets, shift)
            targets32 = targets.astype(np.float32, order="F")
            g = pairwise_distance_matrix(queries.astype(np.float32), targets32,
                                         b_sq=(targets32 * targets32).sum(axis=1),
                                         shifted=True)
            bound = ev._search_error(queries, targets)
            exact_b = [[Fraction(v) for v in row] for row in targets.tolist()]
            for i, a in enumerate(queries.tolist()):
                a = [Fraction(v) for v in a]
                for j, b in enumerate(exact_b):
                    exact = sum(y * y for y in b) - 2 * sum(x * y for x, y in zip(a, b))
                    assert abs(Fraction(float(g[i, j])) - exact) <= Fraction(bound[i])

    @pytest.mark.parametrize("rows", [1, 7, 25])
    def test_tiny_blocks(self, rows, monkeypatch):
        # blocks of 1, 7 and 25 of the 60 query rows; the last block is short
        queries, targets = self._near_ties(3)
        monkeypatch.setattr(ev, "BLOCK_FLOATS", rows * len(targets))
        self._check(queries, targets)

    def test_exact_duplicates_go_to_the_first_column(self):
        rng = np.random.default_rng(4)
        targets = rng.standard_normal((30, 16))
        targets[[4, 11, 25]] = targets[17]
        targets[[2, 9]] = targets[28]
        queries = targets[[25, 17, 28, 9, 0]]
        nn, dist = self._check(queries, targets)
        assert nn.tolist() == [4, 4, 2, 2, 0]
        assert not dist.any()

    @pytest.mark.parametrize("power", [500, -500])
    def test_scaled_by_a_power_of_two(self, power):
        # at 2^-500 some squares fall below the smallest normal double, so
        # the brute-force norms of the scaled rows lose bits: the scaled
        # search must give the unscaled answer, scaled exactly
        queries, targets = self._near_ties(1)
        nn, dist = self._check(queries, targets)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            scaled_nn, scaled_dist = ev._nearest(np.ldexp(queries, power),
                                                 np.ldexp(targets, power))
        assert np.array_equal(scaled_nn, nn)
        assert np.array_equal(scaled_dist, np.ldexp(dist, power))

    def test_every_target_equidistant(self):
        # each target is its query moved by 3 along one axis, either way;
        # small integers keep every difference exact
        rng = np.random.default_rng(5)
        query = rng.integers(-4, 5, size=(1, 6)).astype(np.float64)
        targets = np.vstack([query + 3.0 * np.eye(6), query - 3.0 * np.eye(6)])
        nn, dist = self._check(query, targets)
        assert nn.tolist() == [0] and dist.tolist() == [3.0]
        # the origin against sign flips of one row: every norm has one bit pattern
        signs = rng.choice([-1.0, 1.0], size=(20, 9))
        flips = signs * rng.standard_normal(9)
        nn, dist = self._check(np.zeros((3, 9)), flips)
        assert nn.tolist() == [0, 0, 0]

    def test_minimum_in_the_last_column(self):
        targets = np.array([[2.0, 0.0], [3.0, 0.0], [1.5, 0.0], [1.0, 0.0]])
        nn, dist = self._check(np.zeros((1, 2)), targets)
        assert nn.tolist() == [3] and dist.tolist() == [1.0]

    def test_one_row_and_one_column(self):
        rng = np.random.default_rng(6)
        queries, targets = rng.standard_normal((5, 4)), rng.standard_normal((7, 4))
        self._check(queries[:1], targets)
        nn, _ = self._check(queries, targets[:1])
        assert not nn.any()
        self._check(queries[:1], targets[:1])
        self._check(queries[:1, :1], targets[:, :1])


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 1,000 reference rows against 999 target rows, 32-D: matching's float32
    # products are large enough for OpenBLAS to run them on two threads
    rng = np.random.default_rng(13)
    base = rng.standard_normal((1000, 32))
    moved = base[:999] + 0.5 * rng.standard_normal((999, 32))
    labels = np.concatenate([np.arange(1000), np.arange(999)])
    path = tmp_path / "pair.ddr"
    save_descriptors(make_set(np.vstack([base, moved]), labels,
                              np.repeat([0, 1], [1000, 999])), str(path))
    child = ("import sys\n"
             "from desclite.data import load_descriptors\n"
             "from desclite.eval import eval_matching, eval_retrieval, eval_verification\n"
             "dset = load_descriptors(sys.argv[1])\n"
             "for task in (eval_verification, eval_matching, eval_retrieval):\n"
             "    print('\\n'.join(task(dset, seed=3).lines()))\n")
    src = os.path.dirname(os.path.dirname(ev.__file__))
    out = {}
    for threads in ("2", "1"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", child, str(path)], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        out[threads] = run.stdout.splitlines()
    assert [line for line in out["1"] if line.startswith("task=")] == \
        ["task=verification", "task=matching", "task=retrieval"]
    assert out["2"] == out["1"]


def test_matching_memory_stays_below_the_dense_matrix():
    rng = np.random.default_rng(10)
    n = 4000  # a dense 4000 x 4000 float64 matrix takes 128 MB
    base = rng.standard_normal((n, 16))
    x = np.vstack([base, base + 0.1 * rng.standard_normal((n, 16))])
    dset = make_set(x, np.tile(np.arange(n), 2), np.repeat([0, 1], n))
    tracemalloc.start()
    try:
        report = eval_matching(dset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.num_queries == 1
    assert peak < 8 * n * n / 4


# Floyd's subsets: distinct, in range, zero-padded and uniform.

class TestDistinct:
    @pytest.mark.parametrize("block", [ev.BLOCK_FLOATS, 40])
    def test_rows_are_distinct_in_range_and_zero_padded(self, block, monkeypatch):
        # uneven takes, take 0, take == pop, pop 1 and rows whose draws
        # repeat; a small block splits the rows over many blocks
        monkeypatch.setattr(ev, "BLOCK_FLOATS", block)
        rng = np.random.default_rng(6)
        pops = rng.integers(1, 60, size=300)
        takes = np.minimum(rng.integers(0, 12, size=300), pops)
        pops[:6] = [60, 60, 1, 7, 5, 60]
        takes[:6] = [12, 0, 1, 7, 0, 60]
        got = ev._distinct(np.random.default_rng(7), pops, takes)
        assert got.shape == (300, 60)
        for row, pop, take in zip(got, pops, takes):
            assert len(set(row[:take].tolist())) == take
            assert ((row[:take] >= 0) & (row[:take] < pop)).all()
            assert not row[take:].any()

    def test_no_rows_and_no_takes(self):
        assert ev._distinct(np.random.default_rng(0), [], []).shape == (0, 0)
        assert ev._distinct(np.random.default_rng(0), [3, 1], [0, 0]).shape == (2, 0)

    def test_subsets_are_uniform(self):
        n = 100000
        got = ev._distinct(np.random.default_rng(11), np.full(n, 5), np.full(n, 3))
        got.sort(axis=1)
        subsets, counts = np.unique(got, axis=0, return_counts=True)
        assert len(subsets) == 10
        assert np.abs(counts / n - 0.1).max() <= 0.005


# The label index: a drawn index 0..n_other - 1 must reach every other-label
# row exactly once, or uniform draws would not give uniform rows.

class TestLabelIndex:
    @staticmethod
    def _check(rows, codes, n_codes):
        # `codes[k]` is row k's label code; the index holds only `rows`
        index = LabelIndex(rows, codes[rows], n_codes)
        assert np.array_equal(index.rows[index.slot], rows)
        for c in np.unique(codes[rows]):
            others = rows[codes[rows] != c]
            got = index.outside(c, np.arange(len(others)))
            assert np.array_equal(np.sort(got), others)
            assert np.array_equal(got, _reference_other_labels(codes, rows, c))
            assert np.array_equal(index.rows[index.start[c]:][:index.count[c]],
                                  rows[codes[rows] == c])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_outside_lists_every_other_row_once(self, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 8, size=rng.integers(2, 15))
        codes = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        self._check(np.arange(len(codes)), codes, len(sizes))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_outside_on_a_tier_filtered_subset(self, seed):
        # as verification builds it: the rows no noisier than a tier, with
        # label codes of the whole set, so some labels have no row here
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 8, size=12)
        codes = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        tiers = rng.integers(0, 3, size=len(codes))
        self._check(np.flatnonzero(tiers <= 1), codes, len(sizes))


class TestBadCounts:
    def test_verification_needs_a_pair_per_tier(self):
        dset = _uneven_set(0, tiered=True)
        for pairs in (0, -5):
            with pytest.raises(ConfigError, match="pairs_per_tier"):
                eval_verification(dset, pairs_per_tier=pairs)

    def test_retrieval_rejects_negative_distractors(self):
        with pytest.raises(ConfigError, match="distractors_per_query"):
            eval_retrieval(_uneven_set(0, tiered=True), distractors_per_query=-3)
