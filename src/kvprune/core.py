"""Shared domain types for modality-aware KV cache pruning.

Everything downstream (scoring, selection, policies, the simulator) speaks in
terms of two things defined here: per-token modality tags and the pruning
configuration. Attention matrices are plain float64 numpy arrays; the ops
that consume them validate shapes at the boundary instead of wrapping them
in classes.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np

# Per-token modality codes, which double as the on-disk byte encoding.
TEXT = 0
VISUAL = 1


def as_tags(seq) -> np.ndarray:
    """Coerce a tag sequence to a uint8 array of TEXT and VISUAL codes.

    Accepts any iterable of ints. Arbitrary interleavings are fine; only
    the values are constrained.
    """
    tags = np.asarray(seq, dtype=np.uint8).ravel()
    # Tags are uint8, so anything above VISUAL is the only way to be invalid.
    if tags.max(initial=0) > VISUAL:
        bad = tags[tags > VISUAL][0]
        raise ValueError(f"modality tags must be 0 (text) or 1 (visual), got {bad}")
    return tags


def as_real(value) -> float:
    """value as a Python float for a range check, which then refuses what
    lies outside with its own message. A real number past the float range
    (a Python int such as 10**400) becomes the infinity of its sign, which
    a finite bound refuses, where float() would raise OverflowError; a
    value that is no real number becomes NaN, which every bound refuses. A
    numpy float32 converts exactly, with no cast-overflow warning."""
    if not isinstance(value, numbers.Real):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def as_count(value, name: str, least: int = 0) -> int:
    """value as a Python int, for the count argument `name`: ValueError
    naming it unless value is an integer (numbers.Integral, so not an
    integral float) of at least `least`. Every count goes through here, so
    none carries a numpy dtype into index or size arithmetic, where a uint8
    count would overflow."""
    if not (isinstance(value, numbers.Integral) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


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
    """The one configuration of every eviction policy: budget, recent and
    obs_window concern them all, cross_ratio, recency_bias and
    widen_to_budget only csp, pool_width only global-topk, and a policy
    ignores the knobs it does not read.

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
    pool_width
        Width of global-topk's 1-D max pool over column sums; 1 is a no-op.
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
    pool_width: int = 1
    seed: int = 0

    def __post_init__(self):
        validate_config(self)
        # Plain Python numbers from here on, as as_count gives every count:
        # a float32 ratio would round coarser in the kernels' arithmetic.
        for name in ("budget", "recent", "obs_window", "pool_width", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        for name in ("cross_ratio", "smoothing", "recency_bias"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "widen_to_budget", bool(self.widen_to_budget))

    @property
    def pool(self) -> int:
        """The budget - recent tokens available for scored retention, at
        least 1 by validate_config."""
        return self.budget - self.recent

    def with_updates(self, **kwargs) -> "PruneConfig":
        return replace(self, **kwargs)


def validate_config(cfg: PruneConfig) -> PruneConfig:
    """Check every PruneConfig invariant; raise on the first violation.

    The counts budget (>= 1), recent (>= 0), obs_window (>= 1) and
    pool_width (>= 1) are checked by as_count, the reals through as_real;
    widen_to_budget must be a bool (a numpy bool too); seed is only
    recorded, so it may be any integer.
    recency_bias times obs_window must be at most half the largest float:
    a key's column mass is at most the obs_window rows that vote for it,
    so every biased score is then finite, with room to spare for rounding.
    Idempotent: validating an already valid config returns it unchanged.
    """
    budget = as_count(cfg.budget, "budget", 1)
    recent = as_count(cfg.recent, "recent")
    if recent >= budget:
        raise ValueError(
            f"recent must be smaller than budget, got recent={cfg.recent} budget={cfg.budget}"
        )
    obs_window = as_count(cfg.obs_window, "obs_window", 1)
    as_count(cfg.pool_width, "pool_width", 1)
    if not 0.0 <= as_real(cfg.cross_ratio) <= 1.0:
        raise ValueError(f"cross_ratio must lie in [0, 1], got {cfg.cross_ratio}")
    if not 0.0 <= as_real(cfg.smoothing) < np.inf:
        raise ValueError(f"smoothing must be finite and >= 0, got {cfg.smoothing}")
    recency_bias = as_real(cfg.recency_bias)
    if not 0.0 < recency_bias < np.inf:
        raise ValueError(f"recency_bias must be finite and > 0, got {cfg.recency_bias}")
    # An int compared with a Python float, which is exact for any int.
    if obs_window > sys.float_info.max / 2 / recency_bias:
        raise ValueError(
            f"recency_bias times obs_window must be at most {sys.float_info.max / 2:.4g}, "
            f"got {cfg.recency_bias} * {cfg.obs_window}"
        )
    if not isinstance(cfg.widen_to_budget, (bool, np.bool_)):
        raise ValueError(f"widen_to_budget must be a bool, got {cfg.widen_to_budget!r}")
    if not isinstance(cfg.seed, numbers.Integral):
        raise ValueError(f"seed must be an integer, got {cfg.seed}")
    return cfg
