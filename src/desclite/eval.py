"""Patch verification, image matching and patch retrieval, reported as mean
average precision with a per-noise-tier breakdown. A set without tier codes
(a DDR1 file without the tier trailer) is one tier, named `all`.

Protocol notes (simplified HPatches analogue, desk scale):
  verification — seeded balanced positive/negative pairs per tier, scored by
      negative distance; the overall number is the AP of the pooled ranking
      across tiers, per-tier numbers are the APs of each tier's ranking.
  matching — the smallest sequence id is the reference view; each other
      sequence is matched against it by nearest neighbor, giving one AP per
      (reference, target) pair; mAP is the mean over pairs. Labels are the
      ground truth: a match is correct when the nearest target row has the
      reference row's label, so rows need not be index-aligned. Only
      reference rows whose label occurs in the target are queried. A pair
      with no correct match scores AP 0 and counts in the mean and in its
      tier; only pairs that share no labels are skipped.
  retrieval — every patch whose label has >= 2 rows queries a pool of all
      other same-label rows plus sampled distractors; mAP over queries.
All score ties break by stable index order, and every distance a report
ranks or matches by is taken pair by pair (matching's float32 matrix
products only narrow the candidates, within a proven bound), so reports are
deterministic per (set, seed) for a fixed numpy and BLAS library, whatever
the BLAS thread count or the number of CPUs.

Each task checks once, on entry, that every descriptor is finite, and
raises NumericError if one is not.

Cost, for N rows of D dimensions:
  verification — O(N log N) per tier to index its rows by label; the
      attempts are drawn in one call and filtered in O(attempts), and each
      drawn pair's row is found in O(1); all pair distances in one call.
  matching — O(R * T * D) for R reference rows against T target rows, in
      float32: the reference rows go through `pairwise_distance_matrix(...,
      shifted=True)` in blocks of about BLOCK_FLOATS / T rows, each
      O(rows * T * D), so a block holds about BLOCK_FLOATS float32 entries
      (1 MiB) and never R x T, and every block of a part (see "two CPUs"
      below) reuses one buffer. A block's values are |b|^2 - 2a.b, each row's
      squared distances less the row's own |a|^2, which order a row's
      targets as its distances do. The float32 target copy is kept in
      column-major order, so the sgemm reads its transpose contiguously, and
      a block takes the sgemm (the -2 folded into the operand with fewer
      rows), one elementwise pass that adds the target norms, and the
      candidate filter. This search only keeps candidates: each row's
      targets within an error bound of its float32 minimum (`_nearest`
      derives the bound), about one per row on eval sets. The filter takes
      two reductions over the block, each row's argmin and, with that entry
      masked, its second minimum; only a row whose second minimum lies
      within its bound is scanned in full. The kept pairs are scored again
      in float64, O(D) each, and the row's match is the candidate at the
      smallest float64 distance, ties to the lower target row.
  retrieval — O(N log N) to index rows by label; K draws per query for K
      distractors, made in blocks of about BLOCK_FLOATS draws, each mapped
      to its row in O(1); then O(P * D) per query for a pool of P rows, in
      blocks of queries whose gathered rows, and whose label-mate against
      pool comparisons, hold at most BLOCK_FLOATS entries; the blocks of one
      pool shape in one part share one buffer of rows and one of distances.
      A block is laid out pool-major, the p-th pool row of every query
      together, so each pass runs over the whole block rather than over one
      query's D entries or P pool rows at a time. It gathers its pool rows,
      subtracts the queries and takes one dot per pair, the distance
      verification and matching use. Ranking is O(S * P) per query for its S
      label-mates, with no sort: a mate's rank counts the pool entries
      nearer than it, and only the queries where a mate ties another entry
      also count the tied entries of smaller row index.
  two CPUs — matching's query blocks against one target sequence, and
      retrieval's query blocks of one pool shape, go through
      `numerics.split_rows`: with at least 2 * MIN_PART_BLOCKS blocks, the
      blocks before the block boundary nearest the middle run on the calling
      thread and the rest on the worker thread, each part with its own block
      buffers and writing its own rows of the results. Fewer blocks stay on
      the calling thread: split, the 5 retrieval blocks of 600 32-D rows
      took no less time. A block's values depend only on its own rows, so
      the split changes no bit.

Random draws. Every draw is a public `Generator.integers` call over a whole
array, never one call per attempt or query: verification draws all of a
tier's attempts at once and then their partners, and retrieval draws each
query's distractors as a uniform subset by Floyd's algorithm (`_distinct`).
A drawn index p below a row's n_other rows of other labels is the p-th of
them in cyclic label order: the rows of the labels above the row's own,
then those of the labels below it, each label's rows ascending
(`data.LabelIndex.outside`). This is a bijection, so uniform indices give
uniform rows. The same seed gives the same draws and reports; they are not
those of per-item `rng.choice` calls.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import TIER_NAMES, DescriptorSet, LabelIndex
from .errors import ConfigError
from .numerics import as_matrix, pairwise_distance_matrix, row_norms, split_rows

# Entries in the largest array one block of matching or retrieval works on:
# 2 MiB of float64 (1 MiB for matching's float32 blocks), so a block's arrays
# stay in cache between passes (at 5,000 target rows, matching blocks hold 52
# reference rows).
BLOCK_FLOATS = 1 << 18
# Blocks each part must get before matching or retrieval splits its blocks
# over two threads (`numerics.split_rows`).
MIN_PART_BLOCKS = 4


@dataclass
class EvalReport:
    task: str
    map_overall: float
    map_by_tier: dict = field(default_factory=dict)
    num_queries: int = 0
    num_skipped: int = 0
    num_zero_ap: int = 0   # matching: pairs scored AP 0 (no correct match)
    config: dict = field(default_factory=dict)
    # verification: tier name -> {"requested", "positive", "negative"} pairs,
    # the pairs asked for of each kind and the positives and negatives drawn
    pairs_by_tier: dict = field(default_factory=dict)

    def lines(self):
        """Flat key=value rendering, one record per tier."""
        out = [f"task={self.task}"]
        for key, value in sorted(self.config.items()):
            out.append(f"config.{key}={value}")
        out.append(f"num_queries={self.num_queries}")
        out.append(f"num_skipped={self.num_skipped}")
        out.append(f"num_zero_ap={self.num_zero_ap}")
        out.append(f"map_overall={self.map_overall:.6f}")
        for tier, value in sorted(self.map_by_tier.items()):
            out.append(f"tier.{tier}.map={value:.6f}")
        for tier, counts in sorted(self.pairs_by_tier.items()):
            out += [f"tier.{tier}.pairs_{kind}={n}" for kind, n in counts.items()]
        return out


def average_precision(ranked_relevance) -> float:
    """AP of a ranked 0/1 relevance list: mean of precision@r over the ranks
    of relevant items. The list must contain at least one relevant item."""
    rel = np.asarray(ranked_relevance, dtype=np.float64)
    if rel.ndim != 1 or len(rel) == 0:
        raise ConfigError("ranked_relevance must be a non-empty 1-D 0/1 list")
    total = rel.sum()
    if total == 0:
        raise ConfigError("average_precision undefined with zero relevant items")
    precision_at = np.cumsum(rel) / np.arange(1, len(rel) + 1)
    return float((precision_at * rel).sum() / total)


def _ap_by_distance(distances: np.ndarray, relevant: np.ndarray) -> float:
    """AP of `relevant` ranked by ascending distance, ties by position."""
    return average_precision(relevant[np.argsort(distances, kind="stable")])


def _tiers(dset: DescriptorSet):
    """Each row's tier code and the names the codes index. An untiered set
    is one tier named `all`: every row has code 0 and the names are
    ("all",)."""
    if dset.tiers is None:
        return np.zeros(len(dset), np.uint8), ("all",)
    return dset.tiers, TIER_NAMES


def _mean_by_tier(values: np.ndarray, codes, names) -> dict:
    """Mean of `values` per tier name, tiers in order of first appearance;
    `codes` holds one tier code per value, an index into `names`."""
    codes = np.asarray(codes)
    present, first = np.unique(codes, return_index=True)
    return {names[code]: float(np.mean(values[codes == code]))
            for code in present[np.argsort(first)]}


def _distinct(rng, pops, takes):
    """Row q holds `takes[q]` distinct integers below `pops[q]`, a uniform
    subset, and zeros past them; each take is at most its pop.

    Floyd's algorithm: pick k is `rng.integers(0, top + 1)` with
    top = pop - take + k, or top itself when an earlier pick of the row took
    that value. The picks are uniform as a set, not in their order: the first
    is never pop - 1 when take > 1. Every pick of a block of rows is drawn in
    one call; a row where a draw repeats, found by sorting each row, is then
    walked pick by pick. Rows go in blocks of about BLOCK_FLOATS picks."""
    pops = np.asarray(pops, dtype=np.int64)
    takes = np.asarray(takes, dtype=np.int64)
    width = int(takes.max(initial=0))
    out = np.zeros((len(pops), width), dtype=np.int64)
    col = np.arange(width)
    rows = max(1, BLOCK_FLOATS // max(width, 1))
    for lo in range(0, len(pops), rows):
        block_takes = takes[lo:lo + rows, None]
        top = pops[lo:lo + rows, None] - block_takes + col
        picks = rng.integers(0, top + 1)
        full = block_takes.min() == width  # no row has padding
        if full:
            probe = np.sort(picks, axis=1)
        else:
            live = col < block_takes
            # padding gets distinct negative values, so only true repeats match
            probe = np.where(live, picks, -1 - col)
            probe.sort(axis=1)
        rep = np.flatnonzero((probe[:, 1:] == probe[:, :-1]).any(axis=1))
        sub = picks[rep]
        for k in range(1, width):
            taken = (sub[:, :k] == sub[:, k:k + 1]).any(axis=1)
            sub[taken, k] = top[rep[taken], k]
        picks[rep] = sub
        out[lo:lo + rows] = picks if full else np.where(live, picks, 0)
    return out


def eval_verification(dset: DescriptorSet, pairs_per_tier: int = 1000,
                      seed: int = 0) -> EvalReport:
    """Ranked same/different-label pair classification by descriptor distance.

    A pair's tier is the tier of its noisier member. Pairs are sampled
    per-tier, balanced between positives and negatives. A tier that draws
    fewer than `pairs_per_tier` positives or negatives warns with both
    counts, and a tier with no positives, which has no AP of its own and is
    left out of `map_by_tier`, warns too; the report counts what was drawn.
    """
    if pairs_per_tier < 1:
        raise ConfigError(f"pairs_per_tier must be >= 1, got {pairs_per_tier}")
    x = as_matrix(dset.descriptors, "descriptors")
    classes, label_codes, counts = np.unique(
        dset.labels, return_inverse=True, return_counts=True)
    if np.sum(counts >= 2) < 2:
        raise ConfigError("verification needs >= 2 classes with >= 2 patches each")
    rng = np.random.default_rng(seed)
    tiers, names = _tiers(dset)

    # pairs are pooled tier by tier, so each tier's pairs are one span,
    # recorded as (name, lo, hi, positives drawn)
    first, second, pair_rel, spans = [], [], [], []
    pairs_by_tier = {}
    hi = 0
    for code in np.unique(tiers):
        name = names[code]
        tier_rows = np.flatnonzero(tiers == code)
        eligible_rows = np.flatnonzero(tiers <= code)
        eligible = LabelIndex(eligible_rows, label_codes[eligible_rows], len(classes))
        tier_slots = eligible.slot[np.searchsorted(eligible_rows, tier_rows)]
        drawn = []
        for positive in (True, False):
            i, j = _sample_pairs(tier_rows, tier_slots, label_codes[tier_rows],
                                 eligible, rng, pairs_per_tier, positive)
            first.append(i)
            second.append(j)
            pair_rel.append(np.full(len(i), float(positive)))
            drawn.append(len(i))
        lo, hi = hi, hi + sum(drawn)
        spans.append((name, lo, hi, drawn[0]))
        pairs_by_tier[name] = {"requested": pairs_per_tier, "positive": drawn[0],
                               "negative": drawn[1]}
        if min(drawn) < pairs_per_tier:
            warnings.warn(
                f"verification: tier {name} drew {drawn[0]} positive and {drawn[1]} "
                f"negative pairs of {pairs_per_tier} requested each",
                RuntimeWarning, stacklevel=2)
        if not drawn[0]:
            warnings.warn(
                f"verification: tier {name} has no positive pairs; left out of map_by_tier",
                RuntimeWarning, stacklevel=2)

    dist = row_norms(x[np.concatenate(first)] - x[np.concatenate(second)])
    rel = np.concatenate(pair_rel)
    return EvalReport(
        task="verification",
        map_overall=_ap_by_distance(dist, rel),
        map_by_tier={name: _ap_by_distance(dist[lo:hi], rel[lo:hi])
                     for name, lo, hi, positives in spans if positives},
        num_queries=len(dist),
        num_skipped=0,
        config={"pairs_per_tier": pairs_per_tier, "seed": seed, "dim": dset.dim},
        pairs_by_tier=pairs_by_tier,
    )


def _sample_pairs(tier_rows, tier_slots, tier_labels, eligible, rng, want, positive):
    """Seeded rejection sampling of pairs (i, j), returned as the arrays of
    i and of j: i is drawn from `tier_rows`, j from the other rows of
    `eligible` (the rows no noisier than i's tier) with i's label if
    `positive`, else with another label. An attempt whose i has no such j
    is rejected.

    All max(50 * want, 1000) attempts draw their tier row t in one call;
    the first `want` whose row has a candidate j are kept, and each then
    draws its candidate r, uniform over that row's candidates, in a second
    call.
    """
    if positive:
        sizes = eligible.count[tier_labels] - 1
    else:
        sizes = len(eligible.rows) - eligible.count[tier_labels]
    t = rng.integers(len(tier_rows), size=max(50 * want, 1000))
    t = t[sizes[t] > 0][:want]
    r = rng.integers(0, sizes[t])
    label = tier_labels[t]
    if positive:
        # skip i itself among its label's rows
        r += r >= tier_slots[t] - eligible.start[label]
        j = eligible.rows[eligible.start[label] + r]
    else:
        j = eligible.outside(label, r)
    return tier_rows[t], j


def eval_matching(dset: DescriptorSet, seed: int = 0) -> EvalReport:
    """Nearest-neighbor correspondence from the reference sequence to every
    other sequence; one AP per sequence pair.

    A match is correct when the nearest target row carries the reference
    row's label (labels are 3D-point identity; row order is not used, so the
    sequences need not be index-aligned). Only reference rows whose label
    occurs in the target are queried. A pair with no correct match scores
    AP 0, counted in `map_overall` and in its tier and in `num_zero_ap`.
    `num_skipped` counts only the pairs that share no labels with the
    reference; each one warns.

    The nearest target row is the one at the smallest per-pair float64
    distance, the distance verification uses; ties go to the lower target
    row. A float32 search over all targets keeps the candidates, every row
    within a proven bound of the float32 minimum, and only those are scored
    in float64 (see `_nearest`), so the match is the float64 one whatever
    the float32 rounding.

    Matching draws nothing: it is deterministic and ignores `seed`, which it
    accepts so that every task takes the same keywords.
    """
    x = as_matrix(dset.descriptors, "descriptors")
    seqs = np.unique(dset.sequence_ids)
    if len(seqs) < 2:
        raise ConfigError("matching needs a reference plus >= 1 target sequence")
    ref_id = int(seqs.min())
    ref_rows = np.flatnonzero(dset.sequence_ids == ref_id)
    tiers, names = _tiers(dset)
    aps = []
    pair_codes = []
    skipped = 0
    for target in seqs[seqs != ref_id]:
        tgt_rows = np.flatnonzero(dset.sequence_ids == target)
        shared = np.intersect1d(dset.labels[ref_rows], dset.labels[tgt_rows])
        if not len(shared):
            warnings.warn(
                f"matching: sequences {ref_id} and {int(target)} share no labels; skipped",
                RuntimeWarning,
                stacklevel=2,
            )
            skipped += 1
            continue
        use_ref = ref_rows[np.isin(dset.labels[ref_rows], shared)]
        nn, nn_dist = _nearest(x[use_ref], x[tgt_rows])
        correct = (
            dset.labels[tgt_rows][nn] == dset.labels[use_ref]
        ).astype(np.float64)
        # AP is undefined with no relevant item; an all-wrong pair scores 0
        aps.append(_ap_by_distance(nn_dist, correct) if correct.any() else 0.0)
        pair_codes.append(np.bincount(tiers[tgt_rows]).argmax())
    if not aps:
        raise ConfigError(
            f"matching: no target sequence shares a label with reference sequence {ref_id}"
        )
    aps = np.asarray(aps)
    return EvalReport(
        task="matching",
        map_overall=float(np.mean(aps)),
        map_by_tier=_mean_by_tier(aps, pair_codes, names),
        num_queries=len(aps),
        num_skipped=skipped,
        num_zero_ap=int(np.sum(aps == 0.0)),
        config={"dim": dset.dim},
    )


def _nearest(queries: np.ndarray, targets: np.ndarray):
    """Index of and distance to each query row's nearest target row: the
    smallest per-pair float64 distance (`row_norms`), ties to the lower
    target row. Both arrays must be finite float64.

    Rows are first scaled by one power of two, 2^-e with e from `np.frexp`
    of the largest entry, so every entry lies below 1 in magnitude and no
    float32 cast or square overflows. A float32 search then finds the
    candidates: query rows go in blocks of about BLOCK_FLOATS / T through
    `pairwise_distance_matrix(..., shifted=True)` in float32, in at most
    two parts (`split_rows`) whose blocks each write into their part's one
    buffer, which gives G, the float32 value of |b_j|^2 - 2a.b_j for query
    row a and target row b_j. That is the squared distance |a - b_j|^2
    less the row's own |a|^2, so within a row
    it orders the targets as the squared distances do, and a row keeps each
    target whose G lies within 2E of the row's smallest G (E from
    `_search_error`). The kept candidates are scored again with the
    per-pair float64 norm of the scaled rows; undoing the scale afterwards
    is exact, so a distance has the bits of `np.linalg.norm` of the raw
    difference unless some square under- or overflows float64.

    The bound. With u = 2^-24, d the row length, a the scaled query row and
    S = |a|^2 + max_j |b_j|^2 over the scaled target rows b_j, every G of
    the row is within E = 2(d + 5) u / (1 - (d + 5) u) S + 16(d + 1) 2^-126
    of the exact |b_j|^2 - 2a.b_j. Rounding the rows to float32 moves that
    value by at most (2u + u^2)(|a|^2 + 2|b_j|^2) <= (4u + 2u^2) S. The
    float32 norm |b_j|^2 and the d-term dot, in any summation order and
    with or without FMA, add at most g (1 + u)^2 (|a|^2 + 2|b_j|^2) with
    g = du / (1 - du), so 2g(1 + u)^2 S, and the final add at most
    2u(1 + g)(1 + u)^2 S: (2d + 6) u S to first order in all. For every d
    with (d + 5) u < 1 the first term of E exceeds this exact sum by more
    than 4u S (least at d = 1). The second term covers values that fall
    below 2^-126, whether rounded gradually, flushed to zero or read as
    zero: each costs less than 2^-126, and since every entry lies below 1,
    the entries cost at most 6d, the products and sums of the norm and the
    dot 4d - 2, the -2 scaling d and the final add 1 such units, 11d - 1 in
    all. The G of the exact nearest row then lies within 2E of the row's
    smallest G. So does the G of every row whose float64 distance ties with
    or undercuts the exact nearest row's: a float64 distance, from a
    difference, a d-term dot and a root, is within (4d + 20) 2^-53 S of the
    exact one, plus d 2^-1074 for squares that underflow float64, far less
    than the 4u S and the (5d + 17) 2^-126 that E holds beyond its float32
    terms. The float64 answer never rests on the float32 bits.
    """
    top = max(np.abs(queries).max(initial=0.0), np.abs(targets).max(initial=0.0))
    shift = -int(np.frexp(top)[1])
    queries, targets = np.ldexp(queries, shift), np.ldexp(targets, shift)
    # F order makes targets32.T C-contiguous, so the sgemm packs no transpose
    queries32 = queries.astype(np.float32)
    targets32 = targets.astype(np.float32, order="F")
    targets32_sq = (targets32 * targets32).sum(axis=1)
    slack = 2 * _search_error(queries, targets)
    rows = max(1, BLOCK_FLOATS // len(targets))
    nn = np.empty(len(queries), dtype=np.int64)
    nn_dist = np.empty(len(queries))

    def search(start, stop, out):
        # the rows' blocks, from `start`, all write into this part's `out`
        for lo in range(start, stop, rows):
            hi = min(lo + rows, stop)
            g = pairwise_distance_matrix(queries32[lo:hi], targets32, b_sq=targets32_sq,
                                         shifted=True, out=out)
            # each row's first float32 minimum is its first candidate
            row, col = np.arange(hi - lo), g.argmin(axis=1)
            # the row's float32 minimum plus 2E, rounded up into float32
            limit = (g[row, col] + slack[lo:hi]).astype(np.float32)
            limit = np.nextafter(limit, np.float32(np.inf))
            # with each minimum masked, a row's second minimum tells whether it
            # has more candidates; only those rows are scanned in full, and the
            # masked minima keep the scan from finding them again
            g[row, col] = np.inf
            multi = np.flatnonzero(g.min(axis=1) <= limit)
            if len(multi):
                # np.nonzero of the 2-D mask gives the same (row, col) order but
                # took 15x as long on a 52 x 5,000 block (numpy 2.4)
                more_row, more_col = np.divmod(
                    np.flatnonzero(g[multi] <= limit[multi, None]), len(targets))
                row = np.concatenate([row, multi[more_row]])
                col = np.concatenate([col, more_col])
            dist = row_norms(queries[lo + row] - targets[col])
            if len(multi):
                # each row's candidate at the smallest distance, then lowest column
                order = np.lexsort((col, dist, row))
                first = order[np.searchsorted(row[order], np.arange(hi - lo))]
                col, dist = col[first], dist[first]
            nn[lo:hi] = col
            nn_dist[lo:hi] = dist

    split_rows(search, len(queries), rows, MIN_PART_BLOCKS,
               lambda width: np.empty(width * len(targets), np.float32))
    return nn, np.ldexp(nn_dist, -shift)


def _search_error(queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """E of `_nearest`'s bound for each row of `queries`, in float64: how far
    each float32 value of the row's search may lie from its exact value.
    Both arrays hold rows already scaled as `_nearest` scales them."""
    d = queries.shape[1]
    c = (d + 5) * 2.0 ** -24
    return (2 * c / (1 - c) * ((queries * queries).sum(axis=1)
                               + (targets * targets).sum(axis=1).max())
            + 16 * (d + 1) * 2.0 ** -126)


def eval_retrieval(dset: DescriptorSet, distractors_per_query: int = 50,
                   seed: int = 0) -> EvalReport:
    """Rank same-label patches against sampled distractors, per query patch.

    Each query's pool is its label-mates plus a uniform subset of
    `distractors_per_query` of its n_other rows of other labels, or all of
    them when there are fewer. The subsets depend only on n_other and the
    take, so all of them are drawn first, by `_distinct` over the queries in
    row order, and the rows are located afterwards.
    """
    if distractors_per_query < 0:
        raise ConfigError(
            f"distractors_per_query must be >= 0, got {distractors_per_query}")
    x = as_matrix(dset.descriptors, "descriptors")
    classes, codes, counts = np.unique(dset.labels, return_inverse=True,
                                       return_counts=True)
    if len(classes) < 2:
        raise ConfigError("retrieval needs >= 2 classes")
    rng = np.random.default_rng(seed)
    tiers, names = _tiers(dset)
    n = len(dset)
    index = LabelIndex(np.arange(n), codes, len(classes))
    queries = np.flatnonzero(counts[codes] >= 2)
    if not len(queries):
        raise ConfigError("retrieval: every class has a single patch")
    n_same = counts[codes[queries]] - 1
    n_other = n - n_same - 1
    take = np.minimum(distractors_per_query, n_other)
    # the order of a query's distractors is not used: ties break by row
    picks = _distinct(rng, n_other, take)

    aps = np.empty(len(queries))
    # queries with equal (same-label count, distractor count) share a pool shape
    shape_key = n_same * (int(take.max()) + 1) + take
    by_shape = np.argsort(shape_key, kind="stable")
    bounds = np.flatnonzero(np.diff(shape_key[by_shape])) + 1
    for members in np.split(by_shape, bounds):
        same, far = int(n_same[members[0]]), int(take[members[0]])
        size = same + far
        # the rank count compares `same` mates with the pool: same * P per query
        block = max(1, BLOCK_FLOATS // (size * max(dset.dim, same)))
        j = np.arange(same)[:, None]

        def score(start, stop, bufs):
            # every block of this pool shape, from `start`, gathers its rows
            # into this part's `work` and takes their distances in place, by
            # np.linalg.norm's own steps; the pool rows are valid, and
            # np.take's default mode would gather into a temporary before
            # copying into `out`
            work, work_dist = bufs
            for lo in range(start, stop, block):
                part = members[lo:min(lo + block, stop)]
                q = queries[part]
                label = codes[q]
                # pool-major: row p holds each query's p-th pool entry, so every
                # pass below runs over whole rows of the block's queries. The
                # first `same` rows are the label-mates, skipping the query itself
                pool = np.empty((size, len(part)), dtype=np.int64)
                pool[:same] = index.rows[index.start[label] + j
                                         + (j >= index.slot[q] - index.start[label])]
                pool[same:] = index.outside(label, picks[part, :far].T)
                gathered = work[:pool.size * dset.dim].reshape(*pool.shape, dset.dim)
                diff = np.take(x, pool, axis=0, mode="clip", out=gathered)
                diff -= x[q]
                dist = work_dist[:pool.size].reshape(pool.shape)
                row_norms(diff.reshape(-1, dset.dim), out=dist.reshape(-1))
                # ties break by row index: a mate's 0-based rank counts the pool
                # entries ahead of it, nearer or as near with a smaller row index.
                # Every mate is as near as itself; only the queries where a mate
                # ties another entry take the second count.
                mate_dist = dist[:same, None, :]
                rank = (dist < mate_dist).sum(axis=1)
                tie = dist == mate_dist
                if np.count_nonzero(tie) > rank.size:
                    tied = np.flatnonzero(np.count_nonzero(tie, axis=(0, 1)) > same)
                    smaller = pool[:, tied] < pool[:same, None, tied]
                    rank[:, tied] += (tie[:, :, tied] & smaller).sum(axis=1)
                # the mate at rank r that is the k-th mate found scores precision
                # k / (r + 1); the AP sums each query's precisions over its pool in
                # rank order, zeros between them
                found = (rank[:, None, :] <= rank).sum(axis=0)
                precision = np.zeros((len(part), size))
                precision[np.arange(len(part))[:, None], rank.T] = (found / (rank + 1)).T
                aps[part] = precision.sum(axis=1) / same

        split_rows(score, len(members), block, MIN_PART_BLOCKS, lambda width: (
            np.empty(size * width * dset.dim), np.empty(size * width)))
    return EvalReport(
        task="retrieval",
        map_overall=float(np.mean(aps)),
        map_by_tier=_mean_by_tier(aps, tiers[queries], names),
        num_queries=len(aps),
        num_skipped=n - len(queries),
        config={"distractors_per_query": distractors_per_query, "seed": seed,
                "dim": dset.dim},
    )
