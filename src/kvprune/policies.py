"""Eviction policies.

Four interchangeable strategies, registered in POLICIES near the end of this
module, decide which cached tokens survive a prune:

* ``csp``          intersected per-modality top-k (the method under study)
* ``global-topk``  column-sum top-k with optional max-pooling (SnapKV-like)
* ``accum``        accumulated column sums across steps (H2O-like)
* ``full``         never evicts (reference)

The baselines are deliberately simplified single-knob reimplementations;
they exist so modality retention can be compared under one harness, and
their labels say "-like" to avoid overclaiming fidelity to the originals.

A policy is one kernel and one POLICIES entry. A kernel,
kernel(key_tags, mass, cfg, state, options) -> (keep, decision, state),
prunes one layer from the uint8 tags of its cached keys, a scorer, a
PruneConfig, its state (only accum keeps any: its running accumulator,
None at first) and the run's checked options (only global-topk reads
them, for pool_width). It never sees keys, values, logits or query tags.
mass() returns the read-only float64 (2, cols) column mass of the
observation window, the last min(obs_window, rows) query rows, at the
run's smoothing: row 0 sums the head-averaged smoothed softmax weights of
the window's text queries, row 1 those of its visual queries. That is all
any policy reads: csp splits it by key tag into intra and inter scores,
global-topk ranks its column sums, and accum adds them to its running
total. keep holds the retained candidates in ascending order, then the
recent window, so keep[:keep.size - recent] are the kept candidates; the
caller prunes its own per-position data with keep. Kernels never mutate
their inputs.

An entry names the kernel, lists the options with their defaults and
checks, and gives smoothing(cfg, options), the one rule for the smoothing
a run scores and replays with. The CLI's policy choices, help and option
flags derive from POLICIES, and so does every checked step: policy_step
checks a step's options, config, tags and logits once, then calls the
kernel. csp_step, global_topk_step, accumulated_score_step and
full_cache_step are its four steps.

Every kernel scores through one function, `_mass`, and only when it needs
scores, so a no-op step neither gathers nor scores; it never forms a
(rows, cols) weight matrix. A kernel calls only the unchecked kernels of
scoring, decompose, selection and core (`_shifted_exp`, `_decompose`,
`_cross_self_select`, `_topk_mask`, `_tag_counts`), never their checked
public forms, plus `budget_to_k` for the nominal split, whose one check
costs a comparison. No kernel checks its scores for finiteness: a column
mass is at most the window's row count, so only csp's recency_bias
multiply could overflow, and validate_config bounds that.
simulator.run_decodes checks its runs once, through run_options, and
calls their kernels itself, with a scorer shared by every run that holds
the same keys at a layer-step, so each distinct (keys, smoothing) there
is scored once.
"""

from __future__ import annotations

import numbers
from collections import namedtuple
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import TEXT_CODE, PruneConfig, _tag_counts, as_real, as_tags, validate_config
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
    """mass(smoothing), the callable a kernel's scorer binds to one
    smoothing: _mass of the checked (heads, rows, cols) logits' last window
    rows and their columns ids (all of them when ids is None), select being
    the window's _selector, so window = select.shape[1] // heads.

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
    """The _scorer of a step's checked logits, over the last
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


def _csp_step(key_tags, mass, cfg: PruneConfig, state, options):
    """One cross-self pruning step.

    Below budget this keeps everything. Otherwise: modality decomposition
    of the column mass and intersected top-k selection, with the recent
    window kept after the selected candidates.
    """
    if key_tags.size < cfg.budget:
        return (*_noop(key_tags, cfg), None)
    cand = key_tags.size - cfg.recent
    imp = _decompose(mass()[:, :cand], key_tags[:cand])
    chosen = _cross_self_select(imp, cfg)
    return (*_pruned(key_tags, cfg, chosen, budget_to_k(cfg, cand)), None)


def _pooled(importance: np.ndarray, width: int) -> np.ndarray:
    """Sliding 1-D max-pool, 'same' length; width 1 is the identity."""
    # At width 2 * size - 1 every window already spans every candidate, so
    # a wider pool gives the same array: clamp the width, never the pad.
    # int(): np.pad refuses a pad of an unsigned numpy integer type.
    width = min(int(width), 2 * importance.size - 1)
    if width <= 1:
        return importance
    pad_left = (width - 1) // 2
    pad_right = width // 2
    padded = np.pad(importance, (pad_left, pad_right), constant_values=-np.inf)
    windows = np.lib.stride_tricks.sliding_window_view(padded, width)
    return windows.max(axis=1)


def _global_topk_step(key_tags, mass, cfg: PruneConfig, state, options):
    """Single global ranking by column sum, max-pooled over
    options["pool_width"] keys, no modality split."""
    if key_tags.size < cfg.budget:
        return (*_noop(key_tags, cfg), None)
    cand = key_tags.size - cfg.recent
    columns = mass()
    importance = _pooled(columns[0, :cand] + columns[1, :cand], options["pool_width"])
    pool = cfg.pool
    return (*_pruned(key_tags, cfg, _topk_mask(importance, pool), (pool, pool)), None)


def _accumulated_score_step(key_tags, mass, cfg: PruneConfig, state, options):
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
        return (*_noop(key_tags, cfg), running)
    cand = key_tags.size - cfg.recent
    pool = cfg.pool
    keep, decision = _pruned(key_tags, cfg, _topk_mask(running[:cand], pool), (pool, pool))
    return keep, decision, running[keep]


def _full_cache_step(key_tags, mass, cfg: PruneConfig, state, options):
    """Reference policy: never evicts, and so never scores."""
    return (*_noop(key_tags, cfg), None)


# A keyword option of a policy: the cli.FLAGS entry that sets it, its
# default, its help there, and the rule its values meet, checked by
# admits(value).
Option = namedtuple("Option", "keyword flag default help rule admits")

# A registry entry: the policy's label; the module attribute name of its
# kernel, looked up at call time so a rebound attribute (a wrapper, a
# patch) is the one that runs; its options, in the order a sidecar records
# them; and smoothing(cfg, options), the smoothing constant a run with
# those checked options scores and replays its retained tokens with.
Policy = namedtuple("Policy", "label kernel options smoothing")

_POOL_WIDTH = Option("pool_width", "pool_width", 1,
                     "global-topk: width of the 1-D max pool over column sums",
                     "must be an integer >= 1",
                     lambda width: isinstance(width, numbers.Integral) and width >= 1)
_BASELINE_SMOOTHING = Option("smoothing", "baseline_n", 0.0,
                             "smoothing constant for the baseline policies",
                             "must be finite and >= 0", lambda n: 0.0 <= as_real(n) < np.inf)


def _baseline_smoothing(cfg: PruneConfig, options: dict) -> float:
    return float(options["smoothing"])


# csp smooths with cfg.smoothing; the baselines with their own smoothing
# option; the full cache replays with the plain softmax and never scores.
# The first entry, the method under study, is the CLI's default.
POLICIES = {
    "csp": Policy("csp (cross-self intersection)", "_csp_step", (),
                  lambda cfg, options: cfg.smoothing),
    "global-topk": Policy("global-topk (SnapKV-like)", "_global_topk_step",
                          (_POOL_WIDTH, _BASELINE_SMOOTHING), _baseline_smoothing),
    "accum": Policy("accum (H2O-like)", "_accumulated_score_step", (_BASELINE_SMOOTHING,),
                    _baseline_smoothing),
    "full": Policy("full (no eviction)", "_full_cache_step", (), lambda cfg, options: 0.0),
}


def get_policy(name: str) -> Policy:
    """The registry entry of a policy; ValueError if it has none."""
    if name not in POLICIES:
        raise ValueError(f"unknown policy {name!r}; choices: {', '.join(POLICIES)}")
    return POLICIES[name]


def policy_step(name: str):
    """The checked step of policy `name`, step(key_tags, logits,
    query_tags, cfg, state=None, **options) -> (keep, decision, state):
    run_options, _checked, then the kernel with a scorer of the checked
    logits at the policy's smoothing. The entry and its kernel are looked
    up at call time. ValueError for an unknown policy."""
    get_policy(name)

    def step(key_tags, logits, query_tags, cfg: PruneConfig, state=None, **options):
        """Check the options, config, tags and logits once, then run the
        policy's kernel on a scorer of the logits."""
        policy = POLICIES[name]
        options = run_options(name, options)
        key_tags, logits, query_tags = _checked(key_tags, logits, query_tags, cfg)
        mass = partial(_window_scorer(logits, query_tags, cfg), policy.smoothing(cfg, options))
        return globals()[policy.kernel](key_tags, mass, cfg, state, options)

    return step


def option_defaults(name: str) -> dict:
    """The default of each option of policy `name`, by keyword in table
    order."""
    return {option.keyword: option.default for option in get_policy(name).options}


def run_options(name: str, values: dict) -> dict:
    """Every option policy `name` takes, checked, those values omits at
    their defaults: what its kernel reads. TypeError for a keyword the
    policy does not take."""
    defaults = option_defaults(name)
    for keyword in values:
        if keyword not in defaults:
            raise TypeError(f"policy {name!r} got an unexpected keyword argument {keyword!r}")
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


csp_step = policy_step("csp")
global_topk_step = policy_step("global-topk")
accumulated_score_step = policy_step("accum")
full_cache_step = policy_step("full")
