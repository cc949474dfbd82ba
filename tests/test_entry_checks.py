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
from kvprune.diagnostics import js_divergence, kde, modality_weight_samples
from kvprune.policies import (
    accumulated_score_step,
    csp_step,
    full_cache_step,
    global_topk_step,
)
from kvprune.scoring import head_average, smoothed_softmax_rows, trim_observation
from kvprune.selection import cross_self_select, topk_mask
from kvprune.simulator import SynthSpec, SyntheticDecoder, record_trace
from kvprune.traceio import AttentionTrace

STEPS = {
    "csp": csp_step,
    "global-topk": global_topk_step,
    "accum": accumulated_score_step,
    "full": full_cache_step,
}
# The baselines score with the plain softmax, yet they are handed the
# config's n and refuse a bad one as csp does.
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


def invalid_config(base=PRUNING, **fields):
    """A copy of base holding values __post_init__ would have refused."""
    cfg = dataclasses.replace(base)
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
                           (KEY_TAGS, LOGITS, QUERY_TAGS, invalid_config(cfg, smoothing=v)), {})
            if name == "global-topk":
                for width in (0, 2.5):
                    yield (f"{name}-{path}-pool-width-{width}", name,
                           (KEY_TAGS, LOGITS, QUERY_TAGS, invalid_config(cfg, pool_width=width)),
                           {})
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


CONFIG_FIELDS = {"budget": 20, "recent": 4, "obs_window": 4}
TRACE = record_trace(SynthSpec(text_len=8, visual_len=8, steps=2), 4)


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
    # A bias that could overflow a column mass is refused with the config.
    "select-recency-bias-overflow": (
        lambda: cross_self_select(SCORES, SELECT_CFG.with_updates(recency_bias=1e308)), ()),
    # Scores that are no column mass can still overflow under a valid bias,
    # so the public selection keeps its own finiteness check.
    "select-biased-score-overflow": (cross_self_select,
                                     (ImportanceScores(intra=np.full(5, 1e308),
                                                       inter=np.ones(5)),
                                      SELECT_CFG.with_updates(recency_bias=10.0))),
    # Counts must be integers, not floats that numpy would truncate or refuse.
    "js-bins-2.5": (js_divergence, ([0.0], [1.0], 2.5)),
    "kde-grid-points-2.5": (kde, ([0.0, 1.0], None, 2.5)),
    "trim-obs-2.5": (trim_observation, (WEIGHTS, 2.5, 1)),
    "trim-recent-1.5": (trim_observation, (WEIGHTS, 2, 1.5)),
    "topk-k-2.5": (topk_mask, (np.arange(5.0), 2.5)),
    **{f"config-{name}-{value}": (partial(PruneConfig, **{**CONFIG_FIELDS, name: value}), ())
       for name, value in (("budget", 20.0), ("recent", 4.0), ("obs_window", 4.0),
                           ("pool_width", 2.0), ("seed", 0.0))},
    "weight-samples-obs-2.5": (lambda: modality_weight_samples(TRACE, obs_window=2.5), ()),
    "weight-samples-recent-1.5": (lambda: modality_weight_samples(TRACE, recent=1.5), ()),
    **{f"record-trace-obs-{value!r}": (record_trace, (SynthSpec(steps=1), value))
       for value in (2.5, 4.0)},
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


# Each check of a real-valued argument, as (call taking the value, the
# message it refuses with, a value it takes). Each converts the value once,
# so an int past the float range, or a value that is no number, meets the
# range check itself.
REAL_SITES = {
    "config-cross-ratio": (lambda v: PruneConfig(**CONFIG_FIELDS, cross_ratio=v),
                           "cross_ratio must lie in \\[0, 1\\]", 0.5),
    "config-smoothing": (lambda v: PruneConfig(**CONFIG_FIELDS, smoothing=v),
                         "smoothing must be finite and >= 0", 1.0),
    "config-recency-bias": (lambda v: PruneConfig(**CONFIG_FIELDS, recency_bias=v),
                            "recency_bias must be finite and > 0", 1.0),
    **{f"{name}-smoothing": (partial(lambda step, v: step(KEY_TAGS, LOGITS, QUERY_TAGS,
                                                          invalid_config(smoothing=v)),
                                     STEPS[name]),
                             "smoothing must be finite and >= 0", 1.0)
       for name in BASELINES},
    "softmax-smoothing": (lambda v: smoothed_softmax_rows(LOGITS[0], v),
                          "smoothing must be finite and >= 0", 1.0),
    "kde-bandwidth": (lambda v: kde([0.0, 1.0], bandwidth=v),
                      "bandwidth must be finite and positive", 0.5),
    "synth-spec-shift": (lambda v: SynthSpec(shift=v), "shift must be finite", -2.0),
    "synth-spec-spread": (lambda v: SynthSpec(spread=v), "spread must be finite and positive",
                          1.5),
}


@pytest.mark.parametrize("value", [10**400, -(10**400), "1.0"],
                         ids=["int-past-float-max", "negative-int-past-float-max", "str"])
@pytest.mark.parametrize("name", REAL_SITES)
def test_real_check_refuses_with_value_error(name, value):
    """Not OverflowError or TypeError, and with the site's own message."""
    call, message, _ = REAL_SITES[name]
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize("name", REAL_SITES)
def test_real_check_takes_float32(name):
    """A float32 passes each check as its float64 value does, with no cast
    warning (warnings are errors in this suite)."""
    call, _, value = REAL_SITES[name]
    call(np.float32(value))
    call(value)


SPEC_FIELDS = {"text_len": 4, "visual_len": 4, "layers": 1, "heads": 1, "head_dim": 4,
               "steps": 2, "seed": 0}
TRACE_FIELDS = {"layers": 1, "heads": 1, "head_dim": 1}

# Each core.as_count site, as (call taking the count, the count's name, its
# floor, a value it takes).
COUNT_SITES = {
    **{f"config-{name}": (lambda v, name=name: PruneConfig(**{**CONFIG_FIELDS, name: v}),
                          name, least, 5)
       for name, least in (("budget", 1), ("recent", 0), ("obs_window", 1), ("pool_width", 1))},
    **{f"synth-spec-{name}": (lambda v, name=name: SynthSpec(**{**SPEC_FIELDS, name: v}),
                              name, 0 if name in ("steps", "seed") else 1, 3)
       for name in SPEC_FIELDS},
    **{f"trace-{name}": (lambda v, name=name: AttentionTrace(**{**TRACE_FIELDS, name: v},
                                                             prefill_tags=[0]),
                         name, 1, 3)
       for name in TRACE_FIELDS},
    "decoder-slab": (lambda v: SyntheticDecoder(SynthSpec(**SPEC_FIELDS)).slab(v),
                     "obs_window", 1, 3),
    "decoder-steps": (lambda v: list(SyntheticDecoder(SynthSpec(**SPEC_FIELDS)).steps(v)),
                      "obs_window", 1, 3),
    "trim-obs": (lambda v: trim_observation(WEIGHTS, v, 1), "obs_window", 1, 2),
    "trim-recent": (lambda v: trim_observation(WEIGHTS, 2, v), "recent", 0, 1),
    "topk-k": (lambda v: topk_mask(np.arange(5.0), v), "k", 0, 2),
    "kde-grid-points": (lambda v: kde([0.0, 1.0], grid_points=v), "grid_points", 2, 16),
    "js-bins": (lambda v: js_divergence([0.0, 0.5], [1.0], v), "bins", 2, 4),
    "weight-samples-obs": (lambda v: modality_weight_samples(TRACE, obs_window=v),
                           "obs_window", 1, 2),
    "weight-samples-recent": (lambda v: modality_weight_samples(TRACE, recent=v),
                              "recent", 0, 1),
}


def canonical(result):
    """A comparable form of a result that keeps every number's type and
    every array's dtype, shape and bytes."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if dataclasses.is_dataclass(result):
        return canonical(dataclasses.astuple(result))
    if isinstance(result, (list, tuple)):
        return tuple(canonical(item) for item in result)
    return type(result), result


@pytest.mark.parametrize("form", [np.uint8, np.int64], ids=["uint8", "int64"])
@pytest.mark.parametrize("site", COUNT_SITES)
def test_count_forms_act_as_ints(site, form):
    """A numpy integer count gives what the int gives, down to the type of
    every value a result stores: each site keeps its count as a Python int."""
    call, _, _, value = COUNT_SITES[site]
    assert canonical(call(form(value))) == canonical(call(value))


@pytest.mark.parametrize("site", COUNT_SITES)
def test_count_refusals_name_the_argument(site):
    """An integral float, and an integer below the floor, are refused with
    the one count message."""
    call, name, least, _ = COUNT_SITES[site]
    for bad in (2.0, least - 1):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= {least}, "
                                             rf"got {bad!r}$"):
            call(bad)
