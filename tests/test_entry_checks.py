"""Public functions reject bad input when called directly.

Policy steps check their inputs once on entry and then call unchecked
kernels (`_smoothed_softmax_rows`, `_decompose`, ...). These tests
pin the other half of that contract: every public function still runs every
check it documents, whichever caller it has.
"""

import dataclasses
from functools import partial

import numpy as np
import pytest

from kvprune.core import PruneConfig, tag_counts
from kvprune.decompose import ImportanceScores, cross_self_importance
from kvprune.diagnostics import js_divergence, kde
from kvprune.policies import (
    accumulated_score_step,
    csp_step,
    full_cache_step,
    global_topk_step,
)
from kvprune.scoring import head_average, smoothed_softmax_rows, trim_observation
from kvprune.selection import cross_self_select, topk_mask
from kvprune.simulator import SynthSpec
from kvprune.traceio import AttentionTrace

STEPS = {
    "csp": csp_step,
    "global-topk": global_topk_step,
    "accum": accumulated_score_step,
    "full": full_cache_step,
}
BASELINES = ("global-topk", "accum")

KEY_TAGS = np.array([0, 1, 0, 1, 0, 0], dtype=np.uint8)
QUERY_TAGS = np.array([1, 0], dtype=np.uint8)
LOGITS = np.random.default_rng(0).standard_normal((2, 2, 6))
# Length 6 at budget 4 prunes; budget 8 is the below-budget no-op path.
PRUNING = PruneConfig(budget=4, recent=1, obs_window=2)
NOOP = PruneConfig(budget=8, recent=1, obs_window=2)
NON_FINITE = [np.nan, np.inf, -np.inf]
BAD_SMOOTHING = [-1.0, np.inf, np.nan]


def with_logit(value):
    logits = LOGITS.copy()
    logits[1, 0, 2] = value
    return logits


def matrix_with(value):
    """A 2-D (2, 6) matrix with one entry set to value."""
    return with_logit(value)[1]


def with_tag(tags, value=2):
    tags = np.array(tags)
    tags[-1] = value
    return tags


def invalid_config(**fields):
    """A PruneConfig holding values __post_init__ would have refused."""
    cfg = dataclasses.replace(PRUNING)
    for name, value in fields.items():
        object.__setattr__(cfg, name, value)
    return cfg


def step_cases():
    """(id, step name, args, kwargs): one bad input per case."""
    for name in STEPS:
        for path, cfg in (("prune", PRUNING), ("noop", NOOP)):
            bad_args = {
                **{f"logit-{v}": (KEY_TAGS, with_logit(v), QUERY_TAGS, cfg) for v in NON_FINITE},
                "key-tag-2": (with_tag(KEY_TAGS), LOGITS, QUERY_TAGS, cfg),
                "query-tag-2": (KEY_TAGS, LOGITS, with_tag(QUERY_TAGS), cfg),
                "logit-cols": (KEY_TAGS[:-1], LOGITS, QUERY_TAGS, cfg),
                "logit-rows": (KEY_TAGS, LOGITS, QUERY_TAGS[:1], cfg),
                "logits-2d": (KEY_TAGS, LOGITS[0], QUERY_TAGS, cfg),
                "no-heads": (KEY_TAGS, LOGITS[:0], QUERY_TAGS, cfg),
            }
            for case, args in bad_args.items():
                yield f"{name}-{path}-{case}", name, args, {}
            if name in BASELINES:
                for v in BAD_SMOOTHING:
                    yield (f"{name}-{path}-smoothing-{v}", name,
                           (KEY_TAGS, LOGITS, QUERY_TAGS, cfg), {"smoothing": v})
            if name == "global-topk":
                for width in (0, 2.5):
                    yield (f"{name}-{path}-pool-width-{width}", name,
                           (KEY_TAGS, LOGITS, QUERY_TAGS, cfg), {"pool_width": width})
        for field, value in (("recent", 4), ("cross_ratio", 1.5), ("smoothing", -1.0)):
            cfg = invalid_config(**{field: value})
            yield f"{name}-config-{field}", name, (KEY_TAGS, LOGITS, QUERY_TAGS, cfg), {}


STEP_CASES = list(step_cases())


@pytest.mark.parametrize("name, args, kwargs", [case[1:] for case in STEP_CASES],
                         ids=[case[0] for case in STEP_CASES])
def test_step_rejects_bad_input(name, args, kwargs):
    with pytest.raises(ValueError):
        STEPS[name](*args, **kwargs)


@pytest.mark.parametrize("name", sorted(STEPS))
@pytest.mark.parametrize("cfg", [PRUNING, NOOP], ids=["prune", "noop"])
def test_step_accepts_the_valid_input(name, cfg):
    """The base input of the cases above passes, so each case fails on its
    one bad value."""
    keep, decision, _ = STEPS[name](KEY_TAGS, LOGITS, QUERY_TAGS, cfg)
    assert keep.size == decision.achieved_occupancy


WEIGHTS = np.full((2, 6), 1 / 6)
SCORES = ImportanceScores(intra=np.linspace(1.0, 2.0, 5), inter=np.linspace(2.0, 1.0, 5))
SELECT_CFG = PruneConfig(budget=4, recent=1, obs_window=2)


def scores_with(value):
    intra = SCORES.intra.copy()
    intra[2] = value
    return ImportanceScores(intra=intra, inter=SCORES.inter)


PUBLIC_CASES = {
    **{f"softmax-logit-{v}": (smoothed_softmax_rows, (matrix_with(v), 1.0))
       for v in NON_FINITE},
    **{f"softmax-smoothing-{v}": (smoothed_softmax_rows, (LOGITS[0], v)) for v in BAD_SMOOTHING},
    "softmax-1d": (smoothed_softmax_rows, (LOGITS[0, 0], 1.0)),
    "softmax-3d": (smoothed_softmax_rows, (LOGITS, 1.0)),
    "softmax-no-columns-at-0": (smoothed_softmax_rows, (np.zeros((2, 0)), 0.0)),
    **{f"importance-weight-{v}": (cross_self_importance, (matrix_with(v), QUERY_TAGS, KEY_TAGS))
       for v in NON_FINITE},
    "importance-key-tag-2": (cross_self_importance, (WEIGHTS, QUERY_TAGS, with_tag(KEY_TAGS))),
    "importance-query-tag-2": (cross_self_importance,
                               (WEIGHTS, with_tag(QUERY_TAGS), KEY_TAGS)),
    "importance-rows": (cross_self_importance, (WEIGHTS, QUERY_TAGS[:1], KEY_TAGS)),
    "importance-cols": (cross_self_importance, (WEIGHTS, QUERY_TAGS, KEY_TAGS[:-1])),
    "importance-1d": (cross_self_importance, (WEIGHTS[0], QUERY_TAGS, KEY_TAGS)),
    **{f"trim-weight-{v}": (trim_observation, (matrix_with(v), 2, 1)) for v in NON_FINITE},
    "trim-1d": (trim_observation, (WEIGHTS[0], 2, 1)),
    "trim-obs-0": (trim_observation, (WEIGHTS, 0, 1)),
    "trim-recent-negative": (trim_observation, (WEIGHTS, 2, -1)),
    "trim-recent-swallows-all": (trim_observation, (WEIGHTS, 2, 6)),
    "head-average-2d": (head_average, (WEIGHTS,)),
    "head-average-no-heads": (head_average, (np.zeros((0, 2, 6)),)),
    "tag-counts-tag-2": (tag_counts, (with_tag(KEY_TAGS),)),
    **{f"select-score-{v}": (cross_self_select, (scores_with(v), SELECT_CFG))
       for v in NON_FINITE},
    "select-no-candidates": (cross_self_select,
                             (ImportanceScores(intra=np.zeros(0), inter=np.zeros(0)),
                              SELECT_CFG)),
    # Finite scores times a finite bias can still overflow to inf, so the
    # selection's own finiteness check is not redundant with its callers'.
    "select-recency-bias-overflow": (cross_self_select,
                                     (SCORES, SELECT_CFG.with_updates(recency_bias=1e308))),
    # Counts must be integers, not floats that numpy would truncate or refuse.
    "js-bins-2.5": (js_divergence, ([0.0], [1.0], 2.5)),
    "kde-grid-points-2.5": (kde, ([0.0, 1.0], None, 2.5)),
    "trim-obs-2.5": (trim_observation, (WEIGHTS, 2.5, 1)),
    "trim-recent-1.5": (trim_observation, (WEIGHTS, 2, 1.5)),
    "topk-k-2.5": (topk_mask, (np.arange(5.0), 2.5)),
    **{f"synth-spec-{name}-2.5": (partial(SynthSpec, **{name: 2.5}), ())
       for name in ("seed", "text_len", "visual_len", "layers", "heads", "head_dim", "steps")},
    **{f"trace-{name}-2.5": (partial(AttentionTrace, **{"layers": 1, "heads": 1, "head_dim": 1,
                                                        name: 2.5}, prefill_tags=[0]), ())
       for name in ("layers", "heads", "head_dim")},
}


@pytest.mark.parametrize("fn, args", PUBLIC_CASES.values(), ids=PUBLIC_CASES.keys())
def test_public_function_rejects_bad_input(fn, args):
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        fn(*args)
