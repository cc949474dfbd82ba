"""Eviction policies.

Four interchangeable strategies, registered in POLICIES near the end of this
module, decide which cached tokens survive a prune:

* ``csp``          intersected per-modality top-k (the method under study)
* ``global-topk``  column-sum top-k with optional max-pooling (SnapKV-like)
* ``accum``        accumulated column sums across steps (H2O-like)
* ``full``         never evicts (reference)

The baselines are deliberately simplified reimplementations; they exist so
modality retention can be compared under one harness, and their labels say
"-like" to avoid overclaiming fidelity to the originals. Like SnapKV and
H2O, they rank by the plain softmax: only csp, the method under study,
scores and replays with the n-softmax (cfg.smoothing).

A policy is one kernel and one Policy record in POLICIES. A kernel,
kernel(key_tags, mass, cfg, state) -> (keep, ks_used, state), prunes one
layer from the uint8 tags of its cached keys, a scorer, a PruneConfig,
which holds every knob of every policy (global-topk reads its pool_width),
and its state (only accum keeps any: its running accumulator, None at
first). It never sees keys, values, logits or query tags.
mass() returns the read-only float64 (2, cols) column mass of the
observation window, the last min(obs_window, rows) query rows, at the
run's smoothing: row 0 sums the head-averaged smoothed softmax weights of
the window's text queries, row 1 those of its visual queries. That is all
any policy reads: csp splits it by key tag into intra and inter scores,
global-topk ranks its column sums, and accum adds them to its running
total. keep is None for a step that evicts nothing, so a no-op allocates
nothing; otherwise it holds the retained candidates in ascending order,
then the recent window, so keep[:keep.size - recent] are the kept
candidates, and the caller prunes its own per-position data with it.
ks_used is the nominal budget split before any widening, (0, 0) for a
no-op. Kernels never mutate their inputs and build no decision record:
_decided builds every PolicyDecision from the kept tokens' tags, for
policy_step and for simulator.RunReport, which derives its per-step
records from the retained ids only when they are read.

A record holds the policy's name, its label, the kernel function itself
and smoothing(cfg), the one rule for the smoothing a run scores and
replays with; POLICIES maps each record's name to it. The CLI's policy
choices and help derive from POLICIES, and so does every checked step:
policy_step checks a step's config, tags and logits once, then calls the
kernel. csp_step, global_topk_step, accumulated_score_step and
full_cache_step are its four steps. simulator.run_decodes runs records,
not names, so a record that is not in POLICIES (a variant kernel, or a
registered one wrapped) runs as any registered one does.

Every kernel scores through one function, `_mass`, and only when it needs
scores, so a no-op step neither gathers nor scores; it never forms a
(rows, cols) weight matrix. A kernel calls only the unchecked kernels of
scoring, decompose, selection and core (`_shifted_exp`, `_decompose`,
`_cross_self_select`, `_topk_mask`, `_tag_counts`), never their checked
public forms, plus `budget_to_k` for the nominal split, whose one check
costs a comparison. No kernel checks its scores for finiteness: a column
mass is at most the window's row count, so only csp's recency_bias
multiply could overflow, and validate_config bounds that.
simulator.run_decodes checks each run's config once and calls its
record's kernel itself, with one _scorer per distinct (keys, smoothing)
at a layer-step, shared by every run that holds those keys at that
smoothing, so each is gathered and scored at most once.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .core import TEXT, PruneConfig, _tag_counts, as_tags, validate_config
from .decompose import _decompose
from .scoring import _shifted_exp
from .selection import _cross_self_select, _topk_mask, budget_to_k


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


def _checked(key_tags, logits, query_tags, cfg: PruneConfig):
    """A step's entry checks. Returns the key and query tags as uint8 and
    the logits as a (heads, rows, cols) array, float32 if they came as
    float32 and float64 otherwise, with cols matching the key tags and rows
    the query tags."""
    validate_config(cfg)
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


def _selector(window_tags: np.ndarray, heads: int) -> np.ndarray:
    """The (2, heads * window) 0/1 float64 matrix that picks the text
    (row 0) and the visual (row 1) query rows out of a window's
    (heads * window, cols) stack of rows, head-major; window_tags are the
    window's uint8 query tags. Both rows are written into one array, each
    broadcast over the heads."""
    text = window_tags == TEXT
    select = np.empty((2, heads, text.size))
    select[0] = text
    select[1] = ~text
    return select.reshape(2, heads * text.size)


def _mass(logits: np.ndarray, select: np.ndarray, smoothing: float) -> np.ndarray:
    """The one scoring every kernel reads: the column mass of checked
    (heads, window, cols) logits, a read-only float64 (2, cols) array,
    since scorers share it. Row 0 sums the head-averaged smoothed softmax
    weights of the window's text query rows and row 1 those of its visual
    rows, select being their _selector. The division by each row's
    denominator, the head mean and the row sums are one matrix product."""
    heads, window, cols = logits.shape
    expd, denom = _shifted_exp(logits, smoothing)
    mass = (select / (heads * denom.reshape(-1))) @ expd.reshape(heads * window, cols)
    mass.flags.writeable = False
    return mass


def _scorer(logits: np.ndarray, select: np.ndarray, smoothing: float,
            ids: np.ndarray | None = None):
    """mass(), the scorer a kernel reads: _mass at smoothing of the checked
    (heads, rows, cols) logits' last window rows and their columns ids (all
    of them when ids is None), select being the window's _selector, so
    window = select.shape[1] // heads.

    The first call slices the window, gathers the columns and scores them,
    so a kernel that never scores costs no gather and rows outside the
    window are never read; every later call hands out the same read-only
    mass. The gather keeps fancy indexing's layout, and a full block is
    read as a view, not copied.
    """
    heads, rows, _ = logits.shape
    first = rows - select.shape[1] // heads
    scored = None

    def mass() -> np.ndarray:
        nonlocal scored
        if scored is None:
            block = logits[:, first:] if ids is None else logits[:, first:, ids]
            scored = _mass(block, select, smoothing)
        return scored

    return mass


def _decided(kept_tags: np.ndarray, cfg: PruneConfig, ks, pruned: bool) -> PolicyDecision:
    """The decision of a step that keeps the tokens tagged kept_tags, in
    cache order, the recent window last, having split its budget as ks."""
    return PolicyDecision(
        achieved_occupancy=kept_tags.size,
        per_modality_retained=_tag_counts(kept_tags[: max(kept_tags.size - cfg.recent, 0)]),
        ks_used=ks,
        pruned=pruned,
    )


def _kept(chosen: np.ndarray, length: int, cfg: PruneConfig) -> np.ndarray:
    """The keep of a step over length keys that keeps the ascending
    candidate positions chosen, then the recent window."""
    return np.concatenate([chosen, np.arange(length - cfg.recent, length)])


def _csp_step(key_tags, mass, cfg: PruneConfig, state):
    """One cross-self pruning step.

    Below budget this keeps everything. Otherwise: modality decomposition
    of the column mass and intersected top-k selection, with the recent
    window kept after the selected candidates.
    """
    if key_tags.size < cfg.budget:
        return None, (0, 0), None
    cand = key_tags.size - cfg.recent
    imp = _decompose(mass()[:, :cand], key_tags[:cand])
    chosen = _cross_self_select(imp, cfg)
    return _kept(chosen, key_tags.size, cfg), budget_to_k(cfg, cand), None


def _pooled(importance: np.ndarray, width: int) -> np.ndarray:
    """Sliding 1-D max-pool, 'same' length; width 1 is the identity."""
    # At width 2 * size - 1 every window already spans every candidate, so
    # a wider pool gives the same array: clamp the width, never the pad.
    width = min(width, 2 * importance.size - 1)
    if width <= 1:
        return importance
    pad_left = (width - 1) // 2
    pad_right = width // 2
    padded = np.pad(importance, (pad_left, pad_right), constant_values=-np.inf)
    windows = np.lib.stride_tricks.sliding_window_view(padded, width)
    return windows.max(axis=1)


def _global_topk_step(key_tags, mass, cfg: PruneConfig, state):
    """Single global ranking by column sum, max-pooled over
    cfg.pool_width keys, no modality split."""
    if key_tags.size < cfg.budget:
        return None, (0, 0), None
    cand = key_tags.size - cfg.recent
    columns = mass()
    importance = _pooled(columns[0, :cand] + columns[1, :cand], cfg.pool_width)
    pool = cfg.pool
    return _kept(_topk_mask(importance, pool), key_tags.size, cfg), (pool, pool), None


def _accumulated_score_step(key_tags, mass, cfg: PruneConfig, state):
    """Heavy-hitter step: rank by attention mass accumulated across steps.

    `state` is the running accumulator returned by the previous step, one
    entry per cached token (None starts empty). Tokens added since then
    enter at zero. Every call adds the current step's column sums over the
    whole cache; eviction keeps the top pool accumulators among the
    candidates, and evicted accumulators are dropped with their tokens. A
    state longer than the cache, which no input check sees, is refused.
    """
    running = np.zeros(0) if state is None else np.asarray(state, dtype=np.float64)
    grown = key_tags.size - running.size
    if grown < 0:
        raise ValueError(
            f"running accumulator covers {running.size} tokens but the cache holds "
            f"{key_tags.size}: the cache shrank outside of this policy's own pruning"
        )
    running = np.concatenate([running, np.zeros(grown)])
    columns = mass()
    running = running + (columns[0] + columns[1])

    if key_tags.size < cfg.budget:
        return None, (0, 0), running
    cand = key_tags.size - cfg.recent
    pool = cfg.pool
    keep = _kept(_topk_mask(running[:cand], pool), key_tags.size, cfg)
    return keep, (pool, pool), running[keep]


def _full_cache_step(key_tags, mass, cfg: PruneConfig, state):
    """Reference policy: never evicts, and so never scores."""
    return None, (0, 0), None


# A registry entry: the policy's name; its label; its kernel, the function
# itself; and smoothing(cfg), the smoothing constant a run scores and
# replays its retained tokens with.
Policy = namedtuple("Policy", "name label kernel smoothing")


def _plain_softmax(cfg: PruneConfig) -> float:
    return 0.0


# csp smooths with cfg.smoothing, its n-softmax; the baselines score and
# replay with the plain softmax, and the full cache replays with it and
# never scores. The first entry, the method under study, is the CLI's
# default.
POLICIES = {policy.name: policy for policy in (
    Policy("csp", "csp (cross-self intersection)", _csp_step, lambda cfg: cfg.smoothing),
    Policy("global-topk", "global-topk (SnapKV-like)", _global_topk_step, _plain_softmax),
    Policy("accum", "accum (H2O-like)", _accumulated_score_step, _plain_softmax),
    Policy("full", "full (no eviction)", _full_cache_step, _plain_softmax),
)}


def get_policy(name: str) -> Policy:
    """The registry entry of a policy; ValueError if it has none."""
    if name not in POLICIES:
        raise ValueError(f"unknown policy {name!r}; choices: {', '.join(POLICIES)}")
    return POLICIES[name]


def policy_step(name: str):
    """The checked step of policy `name`, step(key_tags, logits,
    query_tags, cfg, state=None) -> (keep, decision, state): _checked,
    then the kernel with a _scorer of the checked logits' last
    min(cfg.obs_window, rows) rows at the policy's smoothing, then
    _decided over the kept tags. keep is every position, in order, for a
    step that evicts nothing. The record is looked up once, when the step
    is built. ValueError for an unknown policy."""
    policy = get_policy(name)

    def step(key_tags, logits, query_tags, cfg: PruneConfig, state=None):
        """Check the config, tags and logits once, run the policy's kernel
        on a scorer of the logits, and decide from what it kept."""
        key_tags, logits, query_tags = _checked(key_tags, logits, query_tags, cfg)
        window = query_tags[query_tags.size - min(cfg.obs_window, query_tags.size) :]
        mass = _scorer(logits, _selector(window, logits.shape[0]), policy.smoothing(cfg))
        keep, ks, state = policy.kernel(key_tags, mass, cfg, state)
        if keep is None:
            return np.arange(key_tags.size), _decided(key_tags, cfg, ks, False), state
        return keep, _decided(key_tags[keep], cfg, ks, True), state

    return step


csp_step = policy_step("csp")
global_topk_step = policy_step("global-topk")
accumulated_score_step = policy_step("accum")
full_cache_step = policy_step("full")
