"""Top-k selection, budget allocation, and cross-self selection.

Selection happens over the candidates 0..L'-1, which are the cache minus
its trailing recent window, and returns the selected candidate positions
as an ascending int64 array. The policies keep the recent block
unconditionally after those positions, so a selection can never duplicate
or evict a recent token.

`topk_mask` and `cross_self_select` check their scores and then call the
unchecked kernels `_topk_mask` and `_cross_self_select`, which the
policies call directly on the column mass they scored. Both the nominal
split and every widened one come from `_split`, and the pool is
`PruneConfig.pool`. A zero share is plain top-k: the other ranking then
holds the whole pool, and its top pool candidates are the selection.
Otherwise widening finds its pool size with the stdlib bisection inside a
computed bracket: from the nominal pool to `_widening_stop`, a pool size
at which both rankings select every candidate. That takes about
log2((cand + 1) / min(ratio, 1 - ratio)) intersection counts a call: 115
over the 18 widening searches of perfbench's replay-widen compare at seed
7, where doubling up from the pool took 274.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .core import PruneConfig, as_count
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
    return _topk_mask(_checked_scores(scores), as_count(k, "k"))


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


def _split(t: int, ratio: float) -> tuple[int, int]:
    """The (intra, inter) split of a pool of t: round_half_up(ratio * t) to
    the inter ranking, the rest to intra."""
    k_inter = _round_half_up(ratio * t)
    return t - k_inter, k_inter


def budget_to_k(cfg: PruneConfig, candidate_count: int) -> tuple[int, int]:
    """Split the selection pool between the intra and inter rankings.

    cfg.pool = budget - recent tokens are available for scored retention;
    cross_ratio of them go to the inter ranking, the rest to intra. Both
    are capped at the candidate count. A zero share is possible at the
    ratio extremes, and cross_self_select then ranks by the other side
    alone.
    """
    if candidate_count < 0:
        raise ValueError(f"candidate_count must be >= 0, got {candidate_count}")
    k_intra, k_inter = _split(cfg.pool, cfg.cross_ratio)
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


def _widening_stop(cand: int, pool: int, ratio: float) -> int:
    """A pool size t >= pool at which both sides of a split with nonzero
    nominal shares select all cand candidates, so that widening stops
    there at the latest.

    The inter k, round_half_up(ratio * t), reaches cand once ratio * t >=
    cand - 1/2, and the intra k, t minus that, once (1 - ratio) * t >= cand
    + 1/2. So t = (cand + 1) / share is enough for a side whose share of
    the pool is share; the spare half candidate absorbs the rounding of
    ratio * t below t = 2**52. Each side has a nominal k of at least 1, so
    its share exceeds 1 / (2 * pool), and the stop is below 2 * (cand + 1)
    * pool + 1.
    """
    return max(pool, math.ceil((cand + 1) / min(ratio, 1.0 - ratio)))


def cross_self_select(scores: ImportanceScores, cfg: PruneConfig) -> np.ndarray:
    """Intersect the intra and inter top-k sets over the candidates.

    Returns the surviving candidate positions in ascending order. A
    candidate survives only if both rankings select it, so the selection is
    usually smaller than the pool. A zero share is plain top-k: when one
    ranking's nominal k is 0 (always at cross_ratio 0 or 1), the other
    holds the whole pool, and the selection is its top pool candidates,
    widened or not, since that already reaches min(pool, candidates).

    With widen_to_budget the pool size t grows from the nominal pool, both
    k values following the budget_to_k split of t (ratio preserved), and
    the result is the selection at the smallest t where the intersection
    reaches the pool or both rankings select every candidate.

    Each ranking is sorted once: its top-k set is rank < k, so the
    selection at any t is one vectorised comparison, and a k past the
    candidate count selects what the count does. round_half_up(ratio * t)
    rises by 0 or 1 per unit of t, so both k values, and with them the
    intersection size, never shrink as t grows. The stdlib bisection
    searches from the pool to `_widening_stop`, a t of about (cand + 1) /
    min(ratio, 1 - ratio) at which both rankings select every candidate,
    so it counts the intersection about log2 of that many times. A call
    costs two stable sorts plus those counts, instead of re-sorting once
    per unit of widening.

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
    cand, pool = len(scores), cfg.pool
    intra, inter = _biased(scores, cfg)
    k_intra, k_inter = _split(pool, cfg.cross_ratio)
    if k_intra == 0:
        return _topk_mask(inter, pool)
    if k_inter == 0:
        return _topk_mask(intra, pool)
    intra_rank, inter_rank = _ranks(intra), _ranks(inter)

    def selected(t: int) -> np.ndarray:
        k_intra, k_inter = _split(t, cfg.cross_ratio)
        return (intra_rank < k_intra) & (inter_rank < k_inter)

    t = pool
    if cfg.widen_to_budget:
        # At the stop both sides select every candidate, which is at least
        # the target, so the search takes it as true without a count.
        target = min(pool, cand)
        stop = _widening_stop(cand, pool, cfg.cross_ratio)
        t = pool + bisect.bisect_left(
            range(pool, stop), True, key=lambda t: np.count_nonzero(selected(t)) >= target)
    return np.flatnonzero(selected(t))
