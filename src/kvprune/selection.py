"""Top-k selection, budget allocation, and cross-self selection.

Selection happens over the candidates 0..L'-1, which are the cache minus
its trailing recent window, and returns the selected candidate positions
as an ascending int64 array. The policies keep the recent block
unconditionally after those positions, so a selection can never duplicate
or evict a recent token.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .core import PruneConfig
from .decompose import ImportanceScores


def _stable_order(scores) -> np.ndarray:
    """Indices by descending score; ties go to the smaller index."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    # Stable sort on negated scores: equal scores keep ascending index order.
    return np.argsort(-scores, kind="stable")


def topk_mask(scores, k: int) -> np.ndarray:
    """Ascending positions of the k highest scores; ties go to the smaller
    index.

    k = 0 selects nothing, k >= len(scores) selects everything.
    """
    order = _stable_order(scores)
    if not (isinstance(k, numbers.Integral) and k >= 0):
        raise ValueError(f"k must be an integer >= 0, got {k}")
    return np.sort(order[:k])


def _ranks(scores) -> np.ndarray:
    """Each index's position in the topk_mask order.

    The inverse permutation of that order, so topk_mask(scores, k) selects
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


def _first_true(pred, start: int) -> int:
    """Smallest t >= start with pred(t), for pred monotone in t and true
    somewhere: double the step until pred holds, then bisect."""
    if pred(start):
        return start
    step = 1
    while not pred(start + step):
        step *= 2
    lo, hi = start + step // 2, start + step  # pred(lo) is false, pred(hi) true
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


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
    intersection size, never shrink as t grows; a doubling-then-bisection
    search finds the stopping t in O(log t) counts. A call costs two stable
    sorts plus O(cand log t), instead of re-sorting once per unit of
    widening.
    """
    cand = len(scores)
    if cand == 0:
        raise ValueError("no candidates to select from")
    intra, inter = _biased(scores, cfg)
    intra_rank, inter_rank = _ranks(intra), _ranks(inter)
    k_intra, k_inter = budget_to_k(cfg, cand)
    # Effective k: a zero allocation selects everything instead of nothing.
    free_intra, free_inter = k_intra == 0, k_inter == 0

    def effective_ks(t: int) -> tuple[int, int]:
        kc = _round_half_up(cfg.cross_ratio * t)
        return (
            cand if free_intra else min(t - kc, cand),
            cand if free_inter else min(kc, cand),
        )

    def selected(t: int) -> np.ndarray:
        eff_intra, eff_inter = effective_ks(t)
        return (intra_rank < eff_intra) & (inter_rank < eff_inter)

    pool = max(cfg.budget - cfg.recent, 0)
    t = pool
    if cfg.widen_to_budget:
        target = min(pool, cand)
        t = _first_true(
            lambda t: min(effective_ks(t)) == cand
            or np.count_nonzero(selected(t)) >= target,
            pool,
        )
    return np.flatnonzero(selected(t))
