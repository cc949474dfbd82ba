"""Eviction policies.

Four interchangeable strategies, registered in POLICIES at the end of this
module, decide which cached tokens survive a prune:

* ``csp``          intersected per-modality top-k (the method under study)
* ``global-topk``  column-sum top-k with optional max-pooling (SnapKV-like)
* ``accum``        accumulated column sums across steps (H2O-like)
* ``full``         never evicts (reference)

The baselines are deliberately simplified single-knob reimplementations;
they exist so modality retention can be compared under one harness, and
their labels say "-like" to avoid overclaiming fidelity to the originals.
The CLI's policy choices, help and options derive from POLICIES, so adding
a policy is one step function, its kernel and one table entry.

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

Each public step checks its own inputs once, on entry: its options, through
check_options, then the config, both tag sequences, the logits' shape
against them and finite logits. Then it calls its kernel (`_csp_step` and so
on, named in its POLICIES entry) with the checked tags, a scorer built from
the checked logits, the config, the state and every option by keyword;
kernels declare no option defaults, the steps do. A kernel never reads
logits: it calls mass(smoothing), the scorer, for the read-only float64
(2, cols) column mass of the observation window, the last
min(obs_window, rows) query rows. Row 0 sums the head-averaged smoothed
softmax weights of the window's text queries, row 1 those of its visual
queries; that is all any policy reads. csp splits it by key tag into intra
and inter scores, global-topk ranks its column sums, and accum adds them
to its running total. Every kernel scores through one function, `_mass`,
and only when it needs scores, so a no-op step neither gathers nor scores;
it never forms a (rows, cols) weight matrix. A kernel calls the unchecked
kernels of scoring, decompose and core rather than their checked public
forms.
simulator.run_decodes checks its runs once, the options through
run_options, builds each step's selector once, and then calls each run's
kernel on every step and layer with a scorer shared by every run that
holds the same keys there, so each distinct (keys, smoothing) of a
layer-step is scored once.
"""

from __future__ import annotations

import inspect
import numbers
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .core import TEXT_CODE, PruneConfig, _tag_counts, as_tags, validate_config
from .decompose import _decompose
from .scoring import _shifted_exp
from .selection import budget_to_k, cross_self_select, topk_mask


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
    """A step's entry checks of everything but its options. Returns the key
    and query tags as uint8 and the logits as a (heads, rows, cols) array,
    float32 if they came as float32 and float64 otherwise, with cols
    matching the key tags and rows the query tags."""
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
    window's uint8 query tags."""
    text = window_tags == TEXT_CODE
    return np.tile(np.stack([text, ~text]).astype(np.float64), heads)


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


def _scorer(logits: np.ndarray, select: np.ndarray, ids: np.ndarray | None = None):
    """The mass(smoothing) callable a kernel scores with: _mass of the
    checked (heads, rows, cols) logits' last window rows and their columns
    ids (all of them when ids is None), select being the window's
    _selector, so window = select.shape[1] // heads.

    The window is sliced and the columns gathered on the first call, so a
    kernel that never scores costs no gather and rows outside the window
    are never read. Each smoothing is scored once and then handed out
    again, read-only, to every later call. The gather keeps fancy
    indexing's layout, and a full block is read as a view, not copied.
    """
    heads, rows, _ = logits.shape
    first = rows - select.shape[1] // heads
    memo = {}
    block = None

    def mass(smoothing: float) -> np.ndarray:
        nonlocal block
        if smoothing not in memo:
            if block is None:
                block = logits[:, first:] if ids is None else logits[:, first:, ids]
            memo[smoothing] = _mass(block, select, smoothing)
        return memo[smoothing]

    return mass


def _window_scorer(logits: np.ndarray, query_tags: np.ndarray, cfg: PruneConfig):
    """A public step's scorer of its checked logits, over the last
    min(cfg.obs_window, rows) rows."""
    window = min(cfg.obs_window, query_tags.size)
    return _scorer(logits, _selector(query_tags[query_tags.size - window :], logits.shape[0]))


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
    the raw logits, head averaging, observation trimming, modality
    decomposition and intersected top-k selection, with the recent window
    kept after the selected candidates.
    """
    key_tags, logits, query_tags = _checked(key_tags, logits, query_tags, cfg)
    return _csp_step(key_tags, _window_scorer(logits, query_tags, cfg), query_tags, cfg, state)


def _csp_step(key_tags, mass, query_tags, cfg: PruneConfig, state):
    """csp_step on checked inputs and a scorer, unchecked."""
    if key_tags.size < cfg.budget:
        return (*_noop(key_tags, cfg), None)
    cand = key_tags.size - cfg.recent
    imp = _decompose(mass(cfg.smoothing)[:, :cand], key_tags[:cand])
    chosen = cross_self_select(imp, cfg)
    return (*_pruned(key_tags, cfg, chosen, budget_to_k(cfg, cand)), None)


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
    options = check_options("global-topk", {"pool_width": pool_width, "smoothing": smoothing})
    key_tags, logits, query_tags = _checked(key_tags, logits, query_tags, cfg)
    return _global_topk_step(key_tags, _window_scorer(logits, query_tags, cfg), query_tags, cfg,
                             state, **options)


def _global_topk_step(key_tags, mass, query_tags, cfg: PruneConfig, state, *,
                      pool_width, smoothing):
    """global_topk_step on checked inputs, options and a scorer, unchecked."""
    if key_tags.size < cfg.budget:
        return (*_noop(key_tags, cfg), None)
    cand = key_tags.size - cfg.recent
    columns = mass(smoothing)
    importance = _pooled(columns[0, :cand] + columns[1, :cand], pool_width)
    pool = max(cfg.budget - cfg.recent, 0)
    # A valid budget may be an integral float; topk_mask takes an integer.
    return (*_pruned(key_tags, cfg, topk_mask(importance, int(pool)), (pool, pool)), None)


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
    options = check_options("accum", {"smoothing": smoothing})
    key_tags, logits, query_tags = _checked(key_tags, logits, query_tags, cfg)
    return _accumulated_score_step(key_tags, _window_scorer(logits, query_tags, cfg), query_tags,
                                   cfg, state, **options)


def _accumulated_score_step(key_tags, mass, query_tags, cfg: PruneConfig, state, *,
                            smoothing):
    """accumulated_score_step on checked inputs, options and a scorer. It
    still refuses a state longer than the cache, which no input check
    sees."""
    running = np.zeros(0) if state is None else np.asarray(state, dtype=np.float64)
    grown = key_tags.size - running.size
    if grown < 0:
        raise ValueError(
            f"running accumulator covers {running.size} tokens but the cache holds "
            f"{key_tags.size}: the cache shrank outside of this policy's own pruning"
        )
    running = np.concatenate([running, np.zeros(grown)])
    columns = mass(smoothing)
    running = running + (columns[0] + columns[1])

    if key_tags.size < cfg.budget:
        return (*_noop(key_tags, cfg), running)
    cand = key_tags.size - cfg.recent
    pool = max(cfg.budget - cfg.recent, 0)
    keep, decision = _pruned(key_tags, cfg, topk_mask(running[:cand], int(pool)), (pool, pool))
    return keep, decision, running[keep]


def full_cache_step(key_tags, logits, query_tags, cfg: PruneConfig, state=None):
    """Reference policy: never evicts."""
    key_tags, logits, query_tags = _checked(key_tags, logits, query_tags, cfg)
    return _full_cache_step(key_tags, _window_scorer(logits, query_tags, cfg), query_tags, cfg,
                            state)


def _full_cache_step(key_tags, mass, query_tags, cfg: PruneConfig, state):
    """full_cache_step on checked inputs, unchecked; it never scores."""
    return (*_noop(key_tags, cfg), None)


# A keyword option of a policy step: the cli.FLAGS entry that sets it, its
# help there, and the rule its values meet, checked by admits(value).
Option = namedtuple("Option", "keyword flag help rule admits")

# A registry entry: the policy's label; the module attribute names of its
# checked step and of the unchecked kernel that step calls, each looked up
# at call time so a rebound attribute (a wrapper, a patch) is the one that
# runs; the step's options, in the order a sidecar records them; and
# replay_smoothing(cfg, options), the smoothing constant a run replays the
# policy's retained tokens with.
Policy = namedtuple("Policy", "label step kernel options replay_smoothing")

_POOL_WIDTH = Option("pool_width", "pool_width",
                    "global-topk: width of the 1-D max pool over column sums",
                    "must be an integer >= 1",
                    lambda width: isinstance(width, numbers.Integral) and width >= 1)
_BASELINE_SMOOTHING = Option("smoothing", "baseline_n",
                            "smoothing constant for the baseline policies",
                            "must be finite and >= 0", lambda n: 0.0 <= n < np.inf)


def _baseline_smoothing(cfg: PruneConfig, options: dict) -> float:
    return float(options.get("smoothing", 0.0))


# csp scores with cfg.smoothing and replays with it too; the baselines
# replay with their own smoothing option; the full cache with the plain
# softmax. The first entry, the method under study, is the CLI's default.
POLICIES = {
    "csp": Policy("csp (cross-self intersection)", "csp_step", "_csp_step", (),
                  lambda cfg, options: cfg.smoothing),
    "global-topk": Policy("global-topk (SnapKV-like)", "global_topk_step", "_global_topk_step",
                          (_POOL_WIDTH, _BASELINE_SMOOTHING), _baseline_smoothing),
    "accum": Policy("accum (H2O-like)", "accumulated_score_step", "_accumulated_score_step",
                    (_BASELINE_SMOOTHING,), _baseline_smoothing),
    "full": Policy("full (no eviction)", "full_cache_step", "_full_cache_step", (),
                   lambda cfg, options: 0.0),
}


def get_policy(name: str) -> Policy:
    """The registry entry of a policy; ValueError if it has none."""
    if name not in POLICIES:
        raise ValueError(f"unknown policy {name!r}; choices: {', '.join(POLICIES)}")
    return POLICIES[name]


def policy_step(name: str):
    """The step function of a policy, by registry name."""
    return globals()[get_policy(name).step]


def option_defaults(name: str) -> dict:
    """The default of each option of policy `name`, by keyword in table
    order: the default of that parameter of its step."""
    params = inspect.signature(policy_step(name)).parameters
    return {option.keyword: params[option.keyword].default for option in get_policy(name).options}


def run_options(name: str, values: dict) -> dict:
    """Every option policy `name` takes, checked, those values omits at
    their step defaults: what its kernel takes by keyword. TypeError, as a
    call of the step would raise, for a keyword the step does not take."""
    defaults = option_defaults(name)
    for keyword in values:
        if keyword not in defaults:
            raise TypeError(f"{get_policy(name).step}() got an unexpected keyword argument "
                            f"{keyword!r}")
    return check_options(name, {**defaults, **values})


def check_options(name: str, values: dict, from_flags: bool = False) -> dict:
    """The options policy `name` takes, by keyword in table order, each one
    checked: ValueError for an unknown policy or a value its option does
    not admit. values holds them by keyword or, from_flags, by their
    cli.FLAGS names, and errors then name the command-line flag."""
    options = {}
    for option in get_policy(name).options:
        key = option.flag if from_flags else option.keyword
        if not option.admits(values[key]):
            shown = "--" + key.replace("_", "-") if from_flags else key
            raise ValueError(f"{shown} {option.rule}, got {values[key]}")
        options[option.keyword] = values[key]
    return options
