"""Shared domain types for modality-aware KV cache pruning.

Everything downstream (scoring, selection, policies, the simulator) speaks in
terms of two things defined here: per-token modality tags and the pruning
configuration. Attention matrices are plain float64 numpy arrays; the ops
that consume them validate shapes at the boundary instead of wrapping them
in classes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np


class ModalityTag(IntEnum):
    """Per-token modality label. Values double as the on-disk byte encoding."""

    TEXT = 0
    VISUAL = 1


TEXT = ModalityTag.TEXT
VISUAL = ModalityTag.VISUAL

# The same codes as plain ints. numpy takes several microseconds longer per
# call when an operand is an IntEnum member, so array code compares and
# fills with these.
TEXT_CODE = int(TEXT)
VISUAL_CODE = int(VISUAL)


def as_tags(seq) -> np.ndarray:
    """Coerce a tag sequence to a uint8 array of ModalityTag values.

    Accepts any iterable of ints / ModalityTag members. Arbitrary
    interleavings are fine; only the values are constrained.
    """
    tags = np.asarray(seq, dtype=np.uint8).ravel()
    # Tags are uint8, so anything above VISUAL is the only way to be invalid.
    if tags.max(initial=0) > VISUAL_CODE:
        bad = tags[tags > VISUAL_CODE][0]
        raise ValueError(f"modality tags must be 0 (text) or 1 (visual), got {bad}")
    return tags


def modality_index(tags) -> tuple[np.ndarray, np.ndarray]:
    """Positions of each modality, order preserved.

    Returns (text_positions, visual_positions); together they partition
    range(len(tags)).
    """
    tags = as_tags(tags)
    text = np.flatnonzero(tags == TEXT_CODE)
    visual = np.flatnonzero(tags == VISUAL_CODE)
    return text, visual


def tag_counts(tags) -> tuple[int, int]:
    """(text_count, visual_count) for a tag sequence."""
    return _tag_counts(as_tags(tags))


def _tag_counts(tags: np.ndarray) -> tuple[int, int]:
    """tag_counts on a uint8 array of valid tags, unchecked."""
    # Valid tags are 0 or 1, so the nonzero ones are the visual ones.
    visual = int(np.count_nonzero(tags))
    return tags.size - visual, visual


@dataclass(frozen=True)
class PruneConfig:
    """Knobs shared by every eviction policy.

    budget
        Maximum cache length in tokens; pruning triggers once the cache
        reaches it.
    recent
        Trailing window that is always retained and never scored.
    obs_window
        Number of trailing query rows used for importance estimation.
    cross_ratio
        Fraction of the selection pool allocated to inter-modality scores;
        the remainder goes to intra-modality scores.
    smoothing
        Additive constant in the attention denominator (0 disables it).
        policies.POLICIES records which policies score and replay with it.
    recency_bias
        Multiplicative weight on the trailing obs_window candidate scores
        before top-k. 1.0 is a no-op.
    widen_to_budget
        Grow both top-k sizes in lock-step until the intersected mask fills
        the pool (or every candidate is selected).
    seed
        RNG seed recorded alongside results.
    """

    budget: int
    recent: int
    obs_window: int
    cross_ratio: float = 0.5
    smoothing: float = 1.0
    recency_bias: float = 1.0
    widen_to_budget: bool = False
    seed: int = 0

    def __post_init__(self):
        validate_config(self)

    def with_updates(self, **kwargs) -> "PruneConfig":
        return replace(self, **kwargs)


def validate_config(cfg: PruneConfig) -> PruneConfig:
    """Check every PruneConfig invariant; raise on the first violation.

    Idempotent: validating an already valid config returns it unchanged.
    """
    if int(cfg.budget) != cfg.budget or cfg.budget <= 0:
        raise ValueError(f"budget must be a positive integer, got {cfg.budget}")
    if int(cfg.recent) != cfg.recent or cfg.recent < 0:
        raise ValueError(f"recent must be a non-negative integer, got {cfg.recent}")
    if cfg.recent >= cfg.budget:
        raise ValueError(
            f"recent must be smaller than budget, got recent={cfg.recent} budget={cfg.budget}"
        )
    if int(cfg.obs_window) != cfg.obs_window or cfg.obs_window < 1:
        raise ValueError(f"obs_window must be a positive integer, got {cfg.obs_window}")
    if not 0.0 <= cfg.cross_ratio <= 1.0:
        raise ValueError(f"cross_ratio must lie in [0, 1], got {cfg.cross_ratio}")
    if not 0.0 <= cfg.smoothing < np.inf:
        raise ValueError(f"smoothing must be finite and >= 0, got {cfg.smoothing}")
    if not 0.0 < cfg.recency_bias < np.inf:
        raise ValueError(f"recency_bias must be finite and > 0, got {cfg.recency_bias}")
    if int(cfg.seed) != cfg.seed:
        raise ValueError(f"seed must be an integer, got {cfg.seed}")
    return cfg
