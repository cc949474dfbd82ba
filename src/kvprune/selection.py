"""Top-k selection, budget allocation, and cross-self selection.

Selection happens over the candidates 0..L'-1, which are the cache minus
its trailing recent window, and returns the selected candidate positions
as an ascending int64 array. The policies keep the recent block
unconditionally after those positions, so a selection can never duplicate
or evict a recent token.

`topk_mask` and `cross_self_select` check their scores and then call the
unchecked kernels `_topk_mask` and `_cross_self_select`, which the
policies call directly on the column mass they scored. Widening finds its
pool size by bisection inside a computed bracket: from the nominal pool
to `_widening_stop`, a pool size at which every constrained ranking
selects every candidate. That takes about log2((cand + 1) / min(ratio,
1 - ratio)) intersection counts a call: 115 over the 18 widening
searches of perfbench's replay-widen compare at seed 7, where doubling
up from the pool took 274.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .core import PruneConfig
from .decompose import ImportanceScores


def _checked_scores(scores) -> np.ndarray:
    """scores as a 1-D float64 array; ValueError unless every one is finite."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    return scores


def _stable_order(scores: np.ndarray) -> np.ndarray:
    """Indices of 1-D float64 scores by descending score; ties go to the
    smaller index."""
    # Stable sort on negated scores: equal scores keep ascending index order.
    return np.argsort(-scores, kind="stable")


def topk_mask(scores, k: int) -> np.ndarray:
    """Ascending positions of the k highest scores; ties go to the smaller
    index.

    k = 0 selects nothing, k >= len(scores) selects everything.
    """
    scores = _checked_scores(scores)
    if not (isinstance(k, numbers.Integral) and k >= 0):
        raise ValueError(f"k must be an integer >= 0, got {k}")
    return _topk_mask(scores, k)


def _topk_mask(scores: np.ndarray, k: int) -> np.ndarray:
    """topk_mask on finite 1-D float64 scores and an integer k >= 0,
    unchecked."""
    return np.sort(_stable_order(scores)[:k])


def _ranks(scores: np.ndarray) -> np.ndarray:
    """Each index's position in the _topk_mask order of 1-D float64 scores.

    The inverse permutation of that order, so _topk_mask(scores, k) selects
    exactly the indices with rank < k, ties included.
    """
    order = _stable_order(scores)
    ranks = np.empty(order.size, dtype=np.int64)
    ranks[order] = np.arange(order.size)
    return ranks


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def budget_to_k(cfg: PruneConfig, candidate_count: int) -> tuple[int, int]:
    """Split the selection pool between the intra and inter rankings.

    pool = budget - recent tokens are available for scored retention;
    cross_ratio of them go to the inter ranking, the rest to intra. Both
    are capped at the candidate count. A zero share is possible at the
    ratio extremes and is interpreted by cross_self_select as "that
    ranking imposes no constraint".
    """
    if candidate_count < 0:
        raise ValueError(f"candidate_count must be >= 0, got {candidate_count}")
    pool = max(cfg.budget - cfg.recent, 0)
    k_inter = _round_half_up(cfg.cross_ratio * pool)
    k_intra = pool - k_inter
    return min(k_intra, candidate_count), min(k_inter, candidate_count)


def _biased(scores: ImportanceScores, cfg: PruneConfig) -> tuple[np.ndarray, np.ndarray]:
    """The intra and inter scores with the last obs_window candidates
    multiplied by recency_bias; at bias 1 the scores as they are, since
    x * 1.0 == x."""
    if cfg.recency_bias == 1.0:
        return scores.intra, scores.inter
    bias = np.ones(len(scores))
    bias[max(len(scores) - cfg.obs_window, 0) :] = cfg.recency_bias
    return scores.intra * bias, scores.inter * bias


def _effective_ks(t: int, cand: int, ratio: float, free_intra: bool,
                  free_inter: bool) -> tuple[int, int]:
    """The (intra, inter) top-k sizes at pool size t: the budget_to_k split
    of t, capped at cand, except that a free side (one whose nominal
    allocation is zero) selects all cand candidates."""
    k_inter = _round_half_up(ratio * t)
    return (
        cand if free_intra else min(t - k_inter, cand),
        cand if free_inter else min(k_inter, cand),
    )


def _widening_stop(cand: int, pool: int, ratio: float, free_intra: bool,
                   free_inter: bool) -> int:
    """A pool size t >= pool at which every constrained side selects all
    cand candidates, so that widening stops there at the latest.

    The inter k, round_half_up(ratio * t), reaches cand once ratio * t >=
    cand - 1/2, and the intra k, t minus that, once (1 - ratio) * t >= cand
    + 1/2. So t = (cand + 1) / share is enough for a side whose share of
    the pool is share; the spare half candidate absorbs the rounding of
    ratio * t below t = 2**52. A constrained side has a nominal k of at
    least 1, so its share exceeds 1 / (2 * pool), and the stop is below
    2 * (cand + 1) * pool + 1.
    """
    shares = [share for share, free in ((1.0 - ratio, free_intra), (ratio, free_inter))
              if not free]
    return max(pool, math.ceil((cand + 1) / min(shares)))


def _first_true(pred, lo: int, hi: int) -> int:
    """Smallest t in [lo, hi] with pred(t), for pred monotone in t and true
    at hi: bisection, ceil(log2(hi - lo + 1)) probes, none of them at hi."""
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def cross_self_select(scores: ImportanceScores, cfg: PruneConfig) -> np.ndarray:
    """Intersect the intra and inter top-k sets over the candidates.

    Returns the surviving candidate positions in ascending order. A
    candidate survives only if both rankings select it, so the selection is
    usually smaller than the pool. A ranking whose allocation is zero
    (cross_ratio 0 or 1) is treated as unconstrained rather than as an
    empty veto, which is what makes the ratio extremes mean pure-intra /
    pure-inter selection.

    With widen_to_budget the pool size t grows from the nominal pool, both
    k values following the budget_to_k split of t (ratio preserved, capped
    at the candidate count), and the result is the selection at the
    smallest t where the intersection reaches the pool or both rankings
    select every candidate. A side that started unconstrained stays
    unconstrained.

    Each ranking is sorted once: its top-k set is rank < k, so the
    selection at any t is one vectorised comparison. round_half_up(ratio *
    t) rises by 0 or 1 per unit of t, so both k values, and with them the
    intersection size, never shrink as t grows. The search bisects between
    the pool and `_widening_stop`, a t of about (cand + 1) / min(ratio,
    1 - ratio) at which every constrained ranking selects every candidate,
    so it counts the intersection about log2 of that many times. A call costs two stable
    sorts plus those counts, instead of re-sorting once per unit of
    widening.

    The scores must be finite after the recency bias, since a finite score
    times a finite bias can still overflow; a column mass cannot, because
    validate_config bounds recency_bias * obs_window.
    """
    if len(scores) == 0:
        raise ValueError("no candidates to select from")
    scores = ImportanceScores(intra=np.asarray(scores.intra, dtype=np.float64),
                              inter=np.asarray(scores.inter, dtype=np.float64))
    for biased in _biased(scores, cfg):
        _checked_scores(biased)
    return _cross_self_select(scores, cfg)


def _cross_self_select(scores: ImportanceScores, cfg: PruneConfig) -> np.ndarray:
    """cross_self_select on 1-D float64 scores of at least one candidate,
    finite after the recency bias, unchecked."""
    cand = len(scores)
    intra, inter = _biased(scores, cfg)
    intra_rank, inter_rank = _ranks(intra), _ranks(inter)
    k_intra, k_inter = budget_to_k(cfg, cand)
    # Effective k: a zero allocation selects everything instead of nothing.
    free = (k_intra == 0, k_inter == 0)

    def selected(t: int) -> np.ndarray:
        eff_intra, eff_inter = _effective_ks(t, cand, cfg.cross_ratio, *free)
        return (intra_rank < eff_intra) & (inter_rank < eff_inter)

    pool = max(cfg.budget - cfg.recent, 0)
    t = pool
    if cfg.widen_to_budget:
        # At the stop every side selects every candidate, which is at least
        # the target, so the predicate holds there without a count.
        target = min(pool, cand)
        t = _first_true(lambda t: np.count_nonzero(selected(t)) >= target, pool,
                        _widening_stop(cand, pool, cfg.cross_ratio, *free))
    return np.flatnonzero(selected(t))
