"""Tests for the four eviction policies and their shared step contract."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kvprune import policies
from kvprune.core import PruneConfig, TEXT, VISUAL
from kvprune.decompose import _decompose, cross_self_importance
from kvprune.policies import (
    POLICIES,
    accumulated_score_step,
    csp_step,
    full_cache_step,
    global_topk_step,
    policy_step,
)
from kvprune.selection import cross_self_select
from kvprune.simulator import SynthSpec, run_decode

import oracles


def tags_of(tags):
    return np.asarray(tags, dtype=np.uint8)


WORKED_LOGITS = np.log(
    np.array([[[0.5, 0.2, 0.3], [0.1, 0.6, 0.3]]])
)
# Pad with two strongly negative columns so the recent window exists but
# carries negligible probability mass.
WORKED_LOGITS = np.concatenate(
    [WORKED_LOGITS, np.full((1, 2, 2), -700.0)], axis=2
)
WORKED_CFG = PruneConfig(budget=5, recent=2, obs_window=2, cross_ratio=0.5, smoothing=0.0)
WORKED_TAGS = [TEXT, VISUAL, TEXT, TEXT, TEXT]


class TestCspStep:
    def test_below_budget_is_identity(self):
        cfg = PruneConfig(budget=10, recent=2, obs_window=2)
        keep, decision, state = csp_step(tags_of([0, 1, 0]), np.zeros((1, 1, 3)), [TEXT], cfg)
        np.testing.assert_array_equal(keep, [0, 1, 2])
        assert state is None
        assert not decision.pruned
        assert decision.achieved_occupancy == 3
        assert keep[: keep.size - cfg.recent].size == 1
        assert decision.per_modality_retained == (1, 0)

    def test_worked_example(self):
        """Length-5 cache at budget 5: trimming drops the two recent
        columns, decomposition gives intra [.5,.6,.3] / inter [.1,.2,.3],
        the (1, 2) split intersects to key 1, and the recent pair rides
        along."""
        keep, decision, _ = csp_step(tags_of(WORKED_TAGS), WORKED_LOGITS, [TEXT, VISUAL],
                                     WORKED_CFG)
        np.testing.assert_array_equal(keep[: keep.size - WORKED_CFG.recent], [1])
        assert decision.ks_used == (1, 2)
        assert decision.per_modality_retained == (0, 1)
        assert decision.achieved_occupancy == 3
        np.testing.assert_array_equal(keep, [1, 3, 4])

    def test_generous_budget_matches_full_policy(self):
        rng = np.random.default_rng(42)
        tags = tags_of(rng.integers(0, 2, size=12))
        logits = rng.standard_normal((2, 3, 12))
        qt = rng.integers(0, 2, size=3)
        cfg = PruneConfig(budget=13, recent=2, obs_window=3)
        keep, decision, _ = csp_step(tags, logits, qt, cfg)
        full_keep, full_decision, _ = full_cache_step(tags, logits, qt, cfg)
        np.testing.assert_array_equal(keep, full_keep)
        assert decision.pruned == full_decision.pruned == False  # noqa: E712

    def test_determinism(self):
        rng = np.random.default_rng(7)
        tags = tags_of(rng.integers(0, 2, size=20))
        logits = rng.standard_normal((3, 4, 20))
        qt = rng.integers(0, 2, size=4)
        cfg = PruneConfig(budget=12, recent=4, obs_window=4, widen_to_budget=True)
        a_keep, a_dec, _ = csp_step(tags, logits, qt, cfg)
        b_keep, b_dec, _ = csp_step(tags.copy(), logits.copy(), qt, cfg)
        assert a_dec == b_dec
        np.testing.assert_array_equal(a_keep, b_keep)

    def test_inputs_untouched(self):
        rng = np.random.default_rng(3)
        tags = tags_of(rng.integers(0, 2, size=12))
        logits = rng.standard_normal((2, 3, 12))
        tags_before, logits_before = tags.copy(), logits.copy()
        csp_step(tags, logits, [TEXT, VISUAL, TEXT], PruneConfig(budget=8, recent=2,
                                                                  obs_window=3))
        np.testing.assert_array_equal(tags, tags_before)
        np.testing.assert_array_equal(logits, logits_before)

    def test_logits_key_count_mismatch(self):
        cfg = PruneConfig(budget=3, recent=1, obs_window=1)
        with pytest.raises(ValueError, match="cache holds"):
            csp_step(tags_of([0, 1, 0]), np.zeros((1, 1, 4)), [TEXT], cfg)

    def test_query_tag_count_mismatch(self):
        cfg = PruneConfig(budget=3, recent=1, obs_window=1)
        with pytest.raises(ValueError, match="query tags"):
            csp_step(tags_of([0, 1, 0]), np.zeros((1, 2, 3)), [TEXT], cfg)


class TestKeepPositions:
    """keep is the retained candidates in order, then the recent window."""

    def test_keeps_mask_then_recent(self):
        keep, _, _ = csp_step(tags_of(WORKED_TAGS), WORKED_LOGITS, [TEXT, VISUAL], WORKED_CFG)
        np.testing.assert_array_equal(keep[: keep.size - WORKED_CFG.recent], [1])
        np.testing.assert_array_equal(keep, [1, 3, 4])

    def test_empty_mask_keeps_only_recent(self):
        """Pool 2 split (1, 1): the intra ranking picks text key 0 and the
        inter ranking visual key 1, so the intersection is empty."""
        logits = np.full((1, 2, 5), -700.0)
        logits[0, 0, 0] = 10.0  # text query: most mass on text key 0 (intra)
        logits[0, 0, 1] = 9.0   # and the rest on visual key 1 (inter)
        logits[0, 1, 3] = 10.0  # visual query: all mass on the recent window
        tags = tags_of([TEXT, VISUAL, VISUAL, TEXT, TEXT])
        cfg = PruneConfig(budget=4, recent=2, obs_window=2, cross_ratio=0.5, smoothing=0.0)
        keep, decision, _ = csp_step(tags, logits, [TEXT, VISUAL], cfg)
        assert decision.pruned and keep[: keep.size - cfg.recent].size == 0
        np.testing.assert_array_equal(keep, [3, 4])

    def test_full_mask_keeps_everything(self):
        """At length == budget with ratio 0 the intra ranking takes the whole
        pool, which is every candidate."""
        rng = np.random.default_rng(1)
        cfg = PruneConfig(budget=5, recent=2, obs_window=2, cross_ratio=0.0)
        keep, decision, _ = csp_step(tags_of([0, 1, 0, 1, 0]), rng.standard_normal((1, 2, 5)),
                                     [TEXT, VISUAL], cfg)
        assert decision.pruned and keep[: keep.size - cfg.recent].size == 3
        np.testing.assert_array_equal(keep, np.arange(5))

    def test_budget_respected_end_to_end(self):
        """Scoring real weights, selecting, and keeping lands at or under
        the budget whenever widening is on and candidates suffice."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            length = int(rng.integers(6, 40))
            budget = int(rng.integers(4, length + 4))
            recent = int(rng.integers(1, min(budget, length)))
            cfg = PruneConfig(
                budget=budget,
                recent=recent,
                obs_window=4,
                cross_ratio=float(rng.random()),
                widen_to_budget=True,
            )
            weights = rng.random((3, length - recent))
            tags = rng.integers(0, 2, size=length)
            scores = cross_self_importance(
                weights, rng.integers(0, 2, size=3), tags[: length - recent]
            )
            mask = cross_self_select(scores, cfg)
            rng.random((2, length, 2))  # keep the random stream, and so the 50 cases, fixed
            keep = np.concatenate([mask, np.arange(length - recent, length)])
            assert keep.size <= max(budget, recent + 0)
            # The trailing recent block always survives verbatim.
            np.testing.assert_array_equal(keep[-recent:], np.arange(length - recent, length))

    @pytest.mark.parametrize("name, kwargs", [
        ("csp", {}), ("global-topk", {"pool_width": 3}), ("accum", {}),
    ])
    def test_every_pruning_policy_keeps_mask_then_recent(self, name, kwargs):
        rng = np.random.default_rng(5)
        tags = tags_of(rng.integers(0, 2, size=16))
        cfg = PruneConfig(budget=10, recent=3, obs_window=4, **kwargs)
        keep, decision, _ = policy_step(name)(
            tags, rng.standard_normal((2, 4, 16)), rng.integers(0, 2, size=4), cfg
        )
        assert decision.pruned
        assert keep.size == decision.achieved_occupancy <= cfg.budget
        chosen = keep[: keep.size - cfg.recent]
        assert np.all(np.diff(chosen) > 0) and np.all((chosen >= 0) & (chosen < 13))
        np.testing.assert_array_equal(keep[-3:], [13, 14, 15])


@st.composite
def step_cases(draw):
    """A cache, its logits and a config, pruning or not; arrays come from a
    seeded generator to keep examples small."""
    length = draw(st.integers(1, 60))
    budget = draw(st.integers(2, 70))
    rows = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cfg = PruneConfig(
        budget=budget,
        recent=draw(st.integers(0, budget - 1)),
        obs_window=draw(st.integers(1, 8)),
        cross_ratio=draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)),
        smoothing=draw(st.sampled_from([0.0, 1.0])),
    )
    key_tags = tags_of(rng.integers(0, 2, length))
    logits = rng.normal(0.0, 2.0, size=(draw(st.integers(1, 3)), rows, length))
    return key_tags, logits, tags_of(rng.integers(0, 2, rows)), cfg


class TestKeepProperties:
    """Every step's keep is ascending kept candidates, then the recent
    window, and its decision agrees with keep."""

    @pytest.mark.parametrize("widen", [False, True])
    @pytest.mark.parametrize("name", list(POLICIES))
    @settings(max_examples=40)
    @given(case=step_cases(), pool_width=st.integers(1, 3))
    def test_keep_and_decision_invariants(self, name, widen, case, pool_width):
        key_tags, logits, query_tags, cfg = case
        cfg = cfg.with_updates(widen_to_budget=widen, pool_width=pool_width)
        keep, decision, _ = policy_step(name)(key_tags, logits, query_tags, cfg)

        length = key_tags.size
        cand = max(length - cfg.recent, 0)
        chosen = keep[: max(keep.size - cfg.recent, 0)]
        assert np.all(np.diff(chosen) > 0)
        assert np.all((chosen >= 0) & (chosen < cand))
        np.testing.assert_array_equal(keep[chosen.size :], np.arange(cand, length))
        assert decision.pruned == (name != "full" and length >= cfg.budget)
        assert decision.achieved_occupancy == keep.size
        text = int(np.count_nonzero(key_tags[chosen] == TEXT))
        visual = int(np.count_nonzero(key_tags[chosen] == VISUAL))
        assert decision.per_modality_retained == (text, visual)


class TestKernels:
    """The kernel run_decode calls for a policy gives, on any input its
    public step accepts and a scorer of the checked logits, the step's
    keep, ks_used, pruned flag and state: keep is None exactly when the
    step did not prune, and the step then keeps every position."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", list(POLICIES))
    @settings(max_examples=40)
    @given(case=step_cases(), widen=st.booleans(), pool_width=st.integers(1, 4),
           carried=st.integers(-1, 60))
    def test_kernel_matches_step(self, name, dtype, case, widen, pool_width, carried):
        key_tags, logits, query_tags, cfg = case
        cfg = cfg.with_updates(widen_to_budget=widen, pool_width=pool_width)
        logits = logits.astype(dtype)
        # accum carries the accumulator of an earlier, shorter cache; -1
        # starts it empty.
        state = None
        if name == "accum" and carried >= 0:
            state = np.random.default_rng(carried).random(min(carried, key_tags.size)) * 4
        kernel = getattr(policies, POLICIES[name].kernel)

        keep, decision, after = policy_step(name)(key_tags, logits, query_tags, cfg, state)
        window = query_tags[query_tags.size - min(cfg.obs_window, query_tags.size) :]
        mass = policies._scorer(logits, policies._selector(window, logits.shape[0]),
                                POLICIES[name].smoothing(cfg))
        kernel_keep, ks, kernel_after = kernel(key_tags, mass, cfg, state)
        assert (kernel_keep is not None) == decision.pruned
        if kernel_keep is None:
            kernel_keep = np.arange(key_tags.size)
        np.testing.assert_array_equal(kernel_keep, keep)
        assert ks == decision.ks_used
        if after is None:
            assert kernel_after is None
        else:
            np.testing.assert_array_equal(kernel_after, after)

    def test_accum_kernel_refuses_a_shrunk_cache(self):
        """No input check sees a state longer than the cache, so the kernel
        itself refuses it."""
        cfg = PruneConfig(budget=4, recent=1, obs_window=1)
        mass = policies._scorer(np.zeros((1, 1, 2)), policies._selector(tags_of([0]), 1), 0.0)
        with pytest.raises(ValueError, match="the cache shrank"):
            policies._accumulated_score_step(tags_of([0, 1]), mass, cfg, np.zeros(3))


class TestSelector:
    """The query selector writes both rows into one array; tests/oracles.py
    stacks and tiles them. Both give the same float64 bits."""

    @settings(max_examples=200)
    @given(window=st.lists(st.integers(0, 1), max_size=40), heads=st.integers(1, 8))
    def test_matches_the_tiled_oracle(self, window, heads):
        window_tags = tags_of(window)
        got = policies._selector(window_tags, heads)
        want = oracles.query_selector(window_tags, heads)
        assert got.dtype == want.dtype == np.float64
        assert got.shape == want.shape == (2, heads * len(window))
        assert got.tobytes() == want.tobytes()


@st.composite
def mass_cases(draw):
    """Logits of a cache, its key and query tags, an observation window
    below, at or above the row count, a smoothing and the retained columns,
    all of them or a gathered subset."""
    heads, rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 8)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.normal(0.0, 2.0, size=(heads, rows, cols))
    if draw(st.booleans()):
        logits = logits.astype(np.float32)
    ids = None
    if draw(st.booleans()):
        ids = np.flatnonzero(rng.random(cols) < 0.6)
        if ids.size == 0:
            ids = np.array([cols - 1])
    return (logits, tags_of(rng.integers(0, 2, cols)), tags_of(rng.integers(0, 2, rows)),
            draw(st.integers(1, 10)), draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])), ids)


class TestMass:
    """The scorer every kernel reads, the (2, cols) column mass of the
    observation window, against the oracles' plain-loop head average and
    decomposition."""

    @settings(max_examples=200)
    @given(case=mass_cases())
    def test_matches_oracle(self, case):
        logits, key_tags, query_tags, obs_window, smoothing, ids = case
        heads, rows, cols = logits.shape
        window = min(obs_window, rows)
        window_tags = query_tags[rows - window :]
        mass = policies._scorer(logits, policies._selector(window_tags, heads), smoothing, ids)()

        retained = list(range(cols)) if ids is None else ids.tolist()
        averaged = oracles._head_average_over(logits.astype(np.float64).tolist(), retained,
                                              smoothing)
        kept_tags = key_tags[retained]
        intra, inter = oracles.cross_self_sums(averaged[rows - window :], window_tags.tolist(),
                                               kept_tags.tolist())
        assert mass.shape == (2, len(retained)) and mass.dtype == np.float64
        assert not mass.flags.writeable
        scores = _decompose(mass, kept_tags)
        np.testing.assert_allclose(scores.intra, intra, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(scores.inter, inter, rtol=1e-12, atol=0.0)
        # A modality with no query in the window contributes exactly 0.
        for row, tag in ((0, TEXT), (1, VISUAL)):
            if not np.any(window_tags == tag):
                assert np.all(mass[row] == 0.0)

    def test_text_only_window_has_no_visual_mass(self):
        """The premise of tests/test_simulator.py::TestTieRegime: with only
        text queries in the window, row 1 is exactly 0.0, so every visual
        key's intra and every text key's inter score is exactly 0.0."""
        logits = np.random.default_rng(5).normal(0.0, 3.0, size=(2, 6, 9)).astype(np.float32)
        query_tags = tags_of([VISUAL, VISUAL, TEXT, TEXT, TEXT, TEXT])
        key_tags = tags_of([VISUAL, TEXT] * 4 + [TEXT])
        # A window of the last 4 rows, all text.
        mass = policies._scorer(logits, policies._selector(query_tags[2:], 2), 1.0)()
        assert np.all(mass[0] > 0.0)
        assert mass[1].tolist() == [0.0] * 9
        scores = _decompose(mass, key_tags)
        np.testing.assert_array_equal(scores.intra == 0.0, key_tags == VISUAL)
        np.testing.assert_array_equal(scores.inter == 0.0, key_tags == TEXT)


class TestGlobalTopkStep:
    def test_uniform_scores_keep_leading_pool(self):
        """With exactly tied columns the stable ranking keeps the earliest
        candidates."""
        logits = np.zeros((1, 2, 6))
        cfg = PruneConfig(budget=4, recent=2, obs_window=2)
        keep, _, _ = global_topk_step(np.zeros(6, dtype=np.uint8), logits, [TEXT, TEXT], cfg)
        np.testing.assert_array_equal(keep[: keep.size - cfg.recent], [0, 1])
        np.testing.assert_array_equal(keep, [0, 1, 4, 5])

    def test_ranks_by_column_sum(self):
        """Candidate sums [3's worth, 1's, 2's] keep keys 0 and 2."""
        logits = np.full((1, 3, 5), -700.0)
        logits[0, 0, 0] = logits[0, 1, 0] = 10.0  # two queries hit key 0
        logits[0, 2, 2] = 10.0                    # one hits key 2
        cfg = PruneConfig(budget=4, recent=2, obs_window=3)
        keep, _, _ = global_topk_step(np.zeros(5, dtype=np.uint8), logits, [TEXT] * 3, cfg)
        np.testing.assert_array_equal(keep[: keep.size - cfg.recent], [0, 2])

    def test_pooling_rescues_neighbors(self):
        """Width-3 max-pooling lifts the neighbors of a spike above a distant
        middling key."""
        tags = np.zeros(8, dtype=np.uint8)
        logits = np.full((1, 1, 8), -700.0)
        logits[0, 0, 0] = 10.0   # spike at candidate 0
        logits[0, 0, 4] = 5.0    # lone medium key far away
        cfg = PruneConfig(budget=4, recent=2, obs_window=1)
        plain = global_topk_step(tags, logits, [TEXT], cfg)[0]
        pooled = global_topk_step(tags, logits, [TEXT], cfg.with_updates(pool_width=3))[0]
        assert 4 in set(plain[: plain.size - cfg.recent])
        np.testing.assert_array_equal(pooled[: pooled.size - cfg.recent], [0, 1])

    def test_wide_pool_clamps_its_width(self):
        """From width 2 * cand - 1 on, every window spans every candidate:
        width 2e6 over 100 candidates gives the width-199 array, without
        padding the candidates to 2e6 floats."""
        importance = np.random.default_rng(0).standard_normal(100)
        tracemalloc.start()
        try:
            pooled = policies._pooled(importance, 2 * 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(pooled, policies._pooled(importance, 199))
        assert pooled.tolist() == oracles.max_pool_same(importance.tolist(), 2 * 10**6)
        assert peak < 2**20

    def test_below_budget_noop(self):
        cfg = PruneConfig(budget=5, recent=1, obs_window=1)
        keep, decision, state = global_topk_step(tags_of([0, 1]), np.zeros((1, 1, 2)),
                                                 [TEXT], cfg)
        np.testing.assert_array_equal(keep, [0, 1])
        assert state is None and not decision.pruned

    def test_bad_pool_width(self):
        """pool_width is a config field: PruneConfig refuses a width below
        1, and the step refuses a config that holds one anyway."""
        with pytest.raises(ValueError, match="pool_width must be an integer >= 1, got 0"):
            PruneConfig(budget=4, recent=2, obs_window=1, pool_width=0)
        cfg = PruneConfig(budget=4, recent=2, obs_window=1)
        object.__setattr__(cfg, "pool_width", 0)
        with pytest.raises(ValueError, match="pool_width must be an integer >= 1, got 0"):
            global_topk_step(np.zeros(5, dtype=np.uint8), np.zeros((1, 1, 5)), [TEXT], cfg)


class TestAccumulatedScoreStep:
    def test_single_step_matches_global_topk(self):
        """From a zero accumulator, one step ranks exactly like the plain
        column-sum policy."""
        rng = np.random.default_rng(42)
        tags = tags_of(rng.integers(0, 2, size=10))
        logits = rng.standard_normal((2, 3, 10))
        qt = rng.integers(0, 2, size=3)
        cfg = PruneConfig(budget=7, recent=2, obs_window=3)
        g_keep, g_decision, _ = global_topk_step(tags, logits, qt, cfg)
        a_keep, a_decision, _ = accumulated_score_step(tags, logits, qt, cfg, np.zeros(10))
        assert a_decision == g_decision
        np.testing.assert_array_equal(a_keep, g_keep)

    def test_history_changes_the_ranking(self):
        """A key that was hot in step one survives step two even though the
        fresh weights alone would evict it."""
        cfg = PruneConfig(budget=3, recent=1, obs_window=1)
        # Accumulated history strongly favors key 0; fresh weights favor key 2.
        running = np.array([5.0, 0.0, 0.0, 0.0])
        logits = np.full((1, 1, 4), -700.0)
        logits[0, 0, 2] = 10.0
        keep, decision, new_running = accumulated_score_step(
            np.zeros(4, dtype=np.uint8), logits, [TEXT], cfg, running
        )
        np.testing.assert_array_equal(keep[: keep.size - cfg.recent], [0, 2])
        np.testing.assert_array_equal(keep, [0, 2, 3])
        # Survivor accumulators travel with their tokens: [key0, key2, recent].
        assert new_running.shape == (3,)
        np.testing.assert_allclose(new_running[0], 5.0)

    def test_two_step_hand_example(self):
        """Accumulators add across steps: sums [1, 0, 0, 0] then
        [0, 0.5, 0.5, 0] rank key 0 first, keys 1 and 2 tied next."""
        tags = np.zeros(4, dtype=np.uint8)
        cfg = PruneConfig(budget=5, recent=1, obs_window=1)  # no prune yet
        step1 = np.full((1, 1, 4), -700.0)
        step1[0, 0, 0] = 10.0
        _, _, running = accumulated_score_step(tags, step1, [TEXT], cfg, np.zeros(4))
        np.testing.assert_allclose(running, [1.0, 0.0, 0.0, 0.0], atol=1e-4)
        step2 = np.full((1, 1, 4), -700.0)
        step2[0, 0, 1] = step2[0, 0, 2] = 10.0
        cfg2 = PruneConfig(budget=4, recent=1, obs_window=1)
        keep, _, _ = accumulated_score_step(tags, step2, [TEXT], cfg2, running)
        np.testing.assert_array_equal(keep[: keep.size - cfg2.recent], [0, 1, 2])

    def test_below_budget_still_accumulates(self):
        cfg = PruneConfig(budget=10, recent=1, obs_window=1)
        _, decision, running = accumulated_score_step(
            np.zeros(3, dtype=np.uint8), np.zeros((1, 1, 3)), [TEXT], cfg, np.zeros(3)
        )
        assert not decision.pruned
        np.testing.assert_allclose(running, [1 / 3] * 3)

    def test_accumulator_shape_guard(self):
        cfg = PruneConfig(budget=3, recent=1, obs_window=1)
        with pytest.raises(ValueError, match="accumulator"):
            accumulated_score_step(np.zeros(3, dtype=np.uint8), np.zeros((1, 1, 3)), [TEXT],
                                   cfg, np.zeros(5))


class TestPolicyObjects:
    """Policies by registry name: the step lookup, the replay smoothing
    rule, and the state only accum carries between steps."""

    def test_accum_policy_pads_new_tokens(self):
        """The accumulator starts empty, grows with the cache (new tokens
        enter at zero) and keeps survivor totals across prunes."""
        cfg = PruneConfig(budget=4, recent=1, obs_window=1)
        zeros = np.zeros(5, dtype=np.uint8)
        _, _, state = accumulated_score_step(zeros[:3], np.zeros((1, 1, 3)), [TEXT], cfg)
        np.testing.assert_allclose(state, [1 / 3] * 3)
        keep, decision, state = accumulated_score_step(zeros, np.zeros((1, 1, 5)), [TEXT], cfg,
                                                       state)
        assert decision.pruned
        # Keys 0-2 lead with 1/3 + 1/5; key 3 (0 + 1/5) is evicted.
        np.testing.assert_array_equal(keep[: keep.size - cfg.recent], [0, 1, 2])
        np.testing.assert_allclose(state, [1 / 3 + 1 / 5] * 3 + [1 / 5])

    def test_accum_policy_rejects_external_shrink(self):
        cfg = PruneConfig(budget=10, recent=1, obs_window=1)
        _, _, state = accumulated_score_step(np.zeros(4, dtype=np.uint8), np.zeros((1, 1, 4)),
                                             [TEXT], cfg)
        with pytest.raises(ValueError, match="shrank"):
            accumulated_score_step(np.zeros(2, dtype=np.uint8), np.zeros((1, 1, 2)), [TEXT],
                                   cfg, state)

    def test_full_policy_never_evicts(self):
        cfg = PruneConfig(budget=2, recent=1, obs_window=1)
        keep, decision, state = full_cache_step(np.zeros(9, dtype=np.uint8),
                                                np.zeros((1, 1, 9)), [TEXT], cfg)
        np.testing.assert_array_equal(keep, np.arange(9))
        assert state is None
        assert not decision.pruned

    def test_replay_smoothing_rules(self):
        """csp replays with cfg.smoothing; the baselines and the full cache
        with the plain softmax, whatever cfg.smoothing is. A run that keeps
        every key reconstructs exactly just when it replays with 0."""
        spec = SynthSpec(text_len=4, visual_len=4, layers=1, heads=2, head_dim=4, steps=2)
        for n in (0.0, 2.5):
            cfg = PruneConfig(budget=4, recent=1, obs_window=1, smoothing=n)
            keep_all = cfg.with_updates(budget=spec.final_len + 1)
            for name, width, smoothing in [
                ("csp", 1, n),
                ("global-topk", 1, 0.0),
                ("global-topk", 3, 0.0),
                ("accum", 1, 0.0),
                ("full", 1, 0.0),
            ]:
                assert POLICIES[name].smoothing(cfg) == smoothing
                run = keep_all.with_updates(pool_width=width)
                errors = run_decode(spec, name, run).recon_error
                assert (max(errors) == 0.0) == (smoothing == 0.0), name

    @pytest.mark.parametrize("name", list(POLICIES))
    def test_zero_heads_refused(self, name):
        """A step needs at least one head, on the no-op path as well as
        the pruning one."""
        for budget in (2, 8):
            cfg = PruneConfig(budget=budget, recent=1, obs_window=1)
            with pytest.raises(ValueError, match="need at least one head"):
                policy_step(name)(tags_of([0, 1, 0]), np.zeros((0, 1, 3)), [TEXT], cfg)

    @pytest.mark.parametrize("name", list(POLICIES))
    def test_noop_decision(self, name):
        """Below budget every policy keeps everything, and its decision
        records no split: ks_used is (0, 0)."""
        cfg = PruneConfig(budget=8, recent=1, obs_window=1)
        _, decision, _ = policy_step(name)(tags_of([0, 1, 1, 0]), np.zeros((2, 1, 4)), [TEXT],
                                           cfg)
        assert decision == policies.PolicyDecision(achieved_occupancy=4,
                                                   per_modality_retained=(1, 2),
                                                   ks_used=(0, 0), pruned=False)

    @pytest.mark.parametrize("name", ["global-topk", "accum"])
    def test_baselines_take_no_smoothing(self, name):
        """A baseline scores with the plain softmax and has no smoothing
        keyword: its step and run_decode refuse it, whatever its value, as
        any unknown keyword."""
        cfg = PruneConfig(budget=4, recent=1, obs_window=2)
        spec = SynthSpec(text_len=4, visual_len=4, layers=1, heads=1, head_dim=4, steps=1)
        for value in (0.0, 1.0, -1.0, np.inf):
            with pytest.raises(TypeError, match="unexpected keyword argument 'smoothing'"):
                policy_step(name)(tags_of([0, 1, 0, 1, 0, 0]), np.zeros((2, 2, 6)),
                                  [TEXT, VISUAL], cfg, smoothing=value)
            with pytest.raises(TypeError, match="unexpected keyword argument 'smoothing'"):
                run_decode(spec, name, cfg, smoothing=value)

    def test_policy_step_registry(self):
        """A row is a label, a kernel name and a smoothing rule; each
        exported step is policy_step of its name."""
        steps = {"csp": csp_step, "global-topk": global_topk_step,
                 "accum": accumulated_score_step, "full": full_cache_step}
        kernels = {"csp": "_csp_step", "global-topk": "_global_topk_step",
                   "accum": "_accumulated_score_step", "full": "_full_cache_step"}
        assert policies.Policy._fields == ("label", "kernel", "smoothing")
        rng = np.random.default_rng(3)
        args = (tags_of(rng.integers(0, 2, 12)), rng.standard_normal((2, 3, 12)),
                tags_of(rng.integers(0, 2, 3)), PruneConfig(budget=8, recent=2, obs_window=2))
        for name, policy in POLICIES.items():
            assert policy.kernel == kernels[name]
            assert callable(getattr(policies, policy.kernel))
            built, exported = policy_step(name)(*args), steps[name](*args)
            np.testing.assert_array_equal(built[0], exported[0])
            assert built[1] == exported[1]

    def test_policy_step_resolved_at_call_time(self, monkeypatch):
        """A kernel rebound after the step was built is the one it runs."""
        calls = []
        kernel = policies._csp_step

        def wrapped(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(policies, "_csp_step", wrapped)
        keep, _, _ = csp_step(tags_of(WORKED_TAGS), WORKED_LOGITS, [TEXT, VISUAL], WORKED_CFG)
        assert len(calls) == 1
        np.testing.assert_array_equal(keep, [1, 3, 4])

    def test_steps_take_no_options(self):
        """Every knob is a config field, so a step takes nothing past its
        state: an extra argument, or a keyword such as pool_width, is a
        TypeError that names it."""
        cfg = PruneConfig(budget=4, recent=1, obs_window=1)
        args = (tags_of([0, 1, 0]), np.zeros((1, 1, 3)), [TEXT], cfg)
        with pytest.raises(TypeError, match="positional"):
            global_topk_step(*args, None, 3)
        for name in POLICIES:
            for keyword in ("pool_width", "width"):
                with pytest.raises(TypeError,
                                   match=f"unexpected keyword argument '{keyword}'"):
                    policy_step(name)(*args, **{keyword: 3})

    @pytest.mark.parametrize("name", list(POLICIES))
    def test_float32_logits_match_float64(self, name):
        """A step on float32 logits, as a slab or trace holds them, decides
        exactly as on their float64 copy."""
        rng = np.random.default_rng(11)
        tags = tags_of(rng.integers(0, 2, size=20))
        logits = (rng.standard_normal((3, 4, 20)) * 4).astype(np.float32)
        qt = rng.integers(0, 2, size=4)
        cfg = PruneConfig(budget=12, recent=3, obs_window=4, smoothing=0.0)
        state = np.zeros(20) if name == "accum" else None
        narrow = policy_step(name)(tags, logits, qt, cfg, state)
        wide = policy_step(name)(tags, logits.astype(np.float64), qt, cfg, state)
        np.testing.assert_array_equal(narrow[0], wide[0])
        assert narrow[1] == wide[1]
        if name == "accum":
            np.testing.assert_array_equal(narrow[2], wide[2])

    def test_policy_step_unknown_name(self):
        with pytest.raises(ValueError, match="unknown policy 'h2o'; choices: csp, global-topk"):
            policy_step("h2o")
        spec = SynthSpec(text_len=2, visual_len=2, layers=1, heads=1, head_dim=2, steps=1)
        with pytest.raises(ValueError, match="unknown policy"):
            run_decode(spec, "h2o", PruneConfig(budget=4, recent=1, obs_window=1))

    def test_baseline_labels_hedge(self):
        assert "-like" in POLICIES["global-topk"].label
        assert "-like" in POLICIES["accum"].label
        assert set(POLICIES) == {"csp", "global-topk", "accum", "full"}
        assert all(policy.label.startswith(name + " ") for name, policy in POLICIES.items())
