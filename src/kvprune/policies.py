"""Eviction policies.

Four interchangeable strategies decide which cached tokens survive a prune:

* ``csp``          intersected per-modality top-k (the method under study)
* ``global-topk``  column-sum top-k with optional max-pooling (SnapKV-like)
* ``accum``        accumulated column sums across steps (H2O-like)
* ``full``         never evicts (reference)

The baselines are deliberately simplified single-knob reimplementations;
they exist so modality retention can be compared under one harness, and the
CLI labels them "-like" to avoid overclaiming fidelity to the originals.

A policy is one step function of the tags of the layer's cached keys, a
(heads, rows, cols) stack of raw attention logits whose rows are the newest
queries and whose columns are those keys, the query rows' modality tags, a
PruneConfig, and optional state (only ``accum`` keeps any: its running
accumulator). Policies never see keys or values, since no decision reads
them. A step returns (keep, decision, state): keep holds the positions that
survive, the retained candidates in ascending order followed by the recent
window, so keep[:keep.size - recent] are the kept candidates. The caller
prunes by indexing its own per-position data with keep. Steps never mutate
their inputs.

Each step checks its own inputs once, on entry: the config, both tag
sequences, the logits' shape against them, finite logits and the baselines'
smoothing. Past that it calls the unchecked kernels of scoring, decompose
and core rather than their checked public forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import PruneConfig, _tag_counts, as_tags, validate_config
from .decompose import _cross_self_importance
from .scoring import _head_average, _smoothed_softmax_rows, _trim_observation
from .selection import budget_to_k, cross_self_select, topk_mask


class PolicyKind(Enum):
    CSP = "csp"
    GLOBAL_TOPK = "global-topk"
    ACCUMULATED_SCORE = "accum"
    FULL_CACHE = "full"


@dataclass(frozen=True)
class PolicyDecision:
    """What one policy step retained.

    achieved_occupancy is the kept length, keep.size; per_modality_retained
    counts text/visual tokens among the kept candidates,
    keep[:keep.size - recent]; ks_used records the nominal budget split
    before any widening; pruned is False for early-return no-ops.
    """

    achieved_occupancy: int
    per_modality_retained: tuple[int, int]
    ks_used: tuple[int, int]
    pruned: bool = True


def _checked(key_tags, logits, query_tags, cfg: PruneConfig, smoothing: float):
    """A step's entry checks. Returns the key and query tags as uint8 and
    the logits as a (heads, rows, cols) array, float32 if they came as
    float32 and float64 otherwise, with cols matching the key tags and rows
    the query tags."""
    validate_config(cfg)
    if not 0.0 <= smoothing < np.inf:
        raise ValueError(f"smoothing must be finite and >= 0, got {smoothing}")
    key_tags = as_tags(key_tags)
    logits = np.asarray(logits)
    if logits.dtype != np.float32:
        logits = logits.astype(np.float64, copy=False)
    if logits.ndim != 3:
        raise ValueError(f"logits must be (heads, rows, cols), got shape {logits.shape}")
    heads, rows, cols = logits.shape
    if heads < 1:
        raise ValueError("need at least one head")
    if cols != key_tags.size:
        raise ValueError(
            f"logits cover {cols} keys but the cache holds {key_tags.size}"
        )
    query_tags = as_tags(query_tags)
    if query_tags.shape[0] != rows:
        raise ValueError(f"{query_tags.shape[0]} query tags for {rows} logit rows")
    if logits.size and not np.isfinite(logits).all():
        raise ValueError("logits must contain finite entries only")
    return key_tags, logits, query_tags


def _per_head_weights(logits: np.ndarray, smoothing: float) -> np.ndarray:
    """Checked logits to float64 (heads, rows, cols) weight stacks."""
    heads, rows, cols = logits.shape
    flat = _smoothed_softmax_rows(logits.reshape(heads * rows, cols), smoothing)
    return flat.reshape(heads, rows, cols)


def _decided(key_tags: np.ndarray, cfg: PruneConfig, keep: np.ndarray, ks, pruned: bool):
    """(keep, decision) for a step that keeps the positions keep."""
    decision = PolicyDecision(
        achieved_occupancy=keep.size,
        per_modality_retained=_tag_counts(key_tags[keep[: max(keep.size - cfg.recent, 0)]]),
        ks_used=ks,
        pruned=pruned,
    )
    return keep, decision


def _noop(key_tags: np.ndarray, cfg: PruneConfig):
    """(keep, decision) for a step that evicts nothing."""
    return _decided(key_tags, cfg, np.arange(key_tags.size), (0, 0), False)


def _pruned(key_tags: np.ndarray, cfg: PruneConfig, chosen: np.ndarray, ks):
    """(keep, decision) for a step that keeps the ascending candidate
    positions chosen, then the recent window."""
    length = key_tags.size
    keep = np.concatenate([chosen, np.arange(length - cfg.recent, length)])
    return _decided(key_tags, cfg, keep, ks, True)


def csp_step(key_tags, logits, query_tags, cfg: PruneConfig, state=None):
    """One cross-self pruning step.

    Below budget this keeps everything. Otherwise: smoothed softmax over
    the raw logits, head averaging (or per-head voting), observation
    trimming, modality decomposition and intersected top-k selection, with
    the recent window kept after the selected candidates.
    """
    key_tags, logits, query_tags = _checked(key_tags, logits, query_tags, cfg, cfg.smoothing)
    if key_tags.size < cfg.budget:
        return (*_noop(key_tags, cfg), None)
    weights = _per_head_weights(logits, cfg.smoothing)
    cand = key_tags.size - cfg.recent
    cand_tags = key_tags[:cand]

    if cfg.head_mode == "averaged":
        trimmed = _trim_observation(_head_average(weights), cfg.obs_window, cfg.recent)
        imp = _cross_self_importance(trimmed, query_tags[-trimmed.shape[0] :], cand_tags)
        chosen = cross_self_select(imp, cfg)
    else:
        # Per-head mode: each head votes with its own intersected selection;
        # the most-voted candidates fill the pool, ties to the smaller index.
        votes = np.zeros(cand)
        for head_weights in weights:
            trimmed = _trim_observation(head_weights, cfg.obs_window, cfg.recent)
            imp = _cross_self_importance(trimmed, query_tags[-trimmed.shape[0] :], cand_tags)
            votes[cross_self_select(imp, cfg)] += 1
        target = min(max(cfg.budget - cfg.recent, 0), cand)
        chosen = np.argsort(-votes, kind="stable")[:target]
        chosen = np.sort(chosen[votes[chosen] > 0])

    return (*_pruned(key_tags, cfg, chosen, budget_to_k(cfg, cand)), None)


def _pooled(importance: np.ndarray, width: int) -> np.ndarray:
    """Sliding 1-D max-pool, 'same' length; width 1 is the identity."""
    if width < 1:
        raise ValueError(f"pool width must be >= 1, got {width}")
    if width == 1 or importance.size == 0:
        return importance
    pad_left = (width - 1) // 2
    pad_right = width // 2
    padded = np.pad(importance, (pad_left, pad_right), constant_values=-np.inf)
    windows = np.lib.stride_tricks.sliding_window_view(padded, width)
    return windows.max(axis=1)


def global_topk_step(
    key_tags,
    logits,
    query_tags,
    cfg: PruneConfig,
    state=None,
    pool_width: int = 1,
    smoothing: float = 0.0,
):
    """Single global ranking by column sum, no modality split."""
    key_tags, logits, query_tags = _checked(key_tags, logits, query_tags, cfg, smoothing)
    if key_tags.size < cfg.budget:
        return (*_noop(key_tags, cfg), None)
    weights = _per_head_weights(logits, smoothing)
    trimmed = _trim_observation(_head_average(weights), cfg.obs_window, cfg.recent)
    importance = _pooled(trimmed.sum(axis=0), pool_width)
    pool = max(cfg.budget - cfg.recent, 0)
    return (*_pruned(key_tags, cfg, topk_mask(importance, pool), (pool, pool)), None)


def accumulated_score_step(
    key_tags,
    logits,
    query_tags,
    cfg: PruneConfig,
    state=None,
    smoothing: float = 0.0,
):
    """Heavy-hitter step: rank by attention mass accumulated across steps.

    `state` is the running accumulator returned by the previous step, one
    entry per cached token (None starts empty). Tokens added since then
    enter at zero. Every call adds the current step's column sums over the
    whole cache; eviction keeps the top pool accumulators among the
    candidates, and evicted accumulators are dropped with their tokens.
    """
    key_tags, logits, query_tags = _checked(key_tags, logits, query_tags, cfg, smoothing)
    running = np.zeros(0) if state is None else np.asarray(state, dtype=np.float64)
    grown = key_tags.size - running.size
    if grown < 0:
        raise ValueError(
            f"running accumulator covers {running.size} tokens but the cache holds "
            f"{key_tags.size}: the cache shrank outside of this policy's own pruning"
        )
    running = np.concatenate([running, np.zeros(grown)])
    averaged = _head_average(_per_head_weights(logits, smoothing))
    obs_rows = min(cfg.obs_window, averaged.shape[0])
    running = running + averaged[averaged.shape[0] - obs_rows :, :].sum(axis=0)

    if key_tags.size < cfg.budget:
        return (*_noop(key_tags, cfg), running)
    cand = key_tags.size - cfg.recent
    pool = max(cfg.budget - cfg.recent, 0)
    keep, decision = _pruned(key_tags, cfg, topk_mask(running[:cand], pool), (pool, pool))
    return keep, decision, running[keep]


def full_cache_step(key_tags, logits, query_tags, cfg: PruneConfig, state=None):
    """Reference policy: never evicts."""
    key_tags, _, _ = _checked(key_tags, logits, query_tags, cfg, 0.0)
    return (*_noop(key_tags, cfg), None)


POLICY_NAMES = tuple(kind.value for kind in PolicyKind)

POLICY_LABELS = {
    "csp": "csp (cross-self intersection)",
    "global-topk": "global-topk (SnapKV-like)",
    "accum": "accum (H2O-like)",
    "full": "full (no eviction)",
}

# Step functions by module attribute name, looked up at call time so a
# rebound attribute (a wrapper, a patch) is the one that runs.
_STEP_NAMES = {
    PolicyKind.CSP: "csp_step",
    PolicyKind.GLOBAL_TOPK: "global_topk_step",
    PolicyKind.ACCUMULATED_SCORE: "accumulated_score_step",
    PolicyKind.FULL_CACHE: "full_cache_step",
}


def _kind(name: str | PolicyKind) -> PolicyKind:
    try:
        return PolicyKind(name)
    except ValueError:
        raise ValueError(f"unknown policy {name!r}; choices: {', '.join(POLICY_NAMES)}")


def policy_step(name: str | PolicyKind):
    """The step function of a policy, by registry name."""
    return globals()[_STEP_NAMES[_kind(name)]]


def deploy_smoothing(name: str | PolicyKind, cfg: PruneConfig, **policy_kwargs) -> float:
    """Denominator constant used when replaying a policy's retained tokens.

    csp scores with cfg.smoothing and replays with it too; the global-topk
    and accum baselines use their own `smoothing` option (default 0); the
    full cache uses the plain softmax.
    """
    kind = _kind(name)
    if kind is PolicyKind.CSP:
        return cfg.smoothing
    if kind is PolicyKind.FULL_CACHE:
        return 0.0
    return float(policy_kwargs.get("smoothing", 0.0))
