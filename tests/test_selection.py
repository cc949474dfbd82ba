"""Tests for top-k selection, budget splitting, and cross-self selection."""

import bisect
import types

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from kvprune import selection
from kvprune.core import PruneConfig
from kvprune.decompose import ImportanceScores
from kvprune.selection import (
    _cross_self_select,
    _split,
    _topk_mask,
    _widening_stop,
    budget_to_k,
    cross_self_select,
    topk_mask,
)

import oracles


def scores_from(intra, inter):
    return ImportanceScores(
        intra=np.asarray(intra, dtype=np.float64), inter=np.asarray(inter, dtype=np.float64)
    )


class TestTopkMask:
    def test_picks_largest(self):
        mask = topk_mask([0.5, 0.1, 0.4], 2)
        np.testing.assert_array_equal(mask, [0, 2])

    def test_sorted_and_typed(self):
        """Positions come back ascending and int64, not in rank order."""
        mask = topk_mask([0.1, 0.5, 0.2, 0.9, 0.4], 3)
        np.testing.assert_array_equal(mask, [1, 3, 4])
        assert mask.dtype == np.int64

    def test_k_zero_empty(self):
        assert len(topk_mask([1.0, 2.0], 0)) == 0

    def test_k_beyond_length_keeps_all(self):
        np.testing.assert_array_equal(topk_mask([1.0, 2.0], 5), [0, 1])

    def test_ties_break_to_smaller_index(self):
        np.testing.assert_array_equal(topk_mask([1.0, 1.0, 1.0], 2), [0, 1])

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            size = int(rng.integers(1, 20))
            # Coarse quantization forces frequent ties.
            scores = np.round(rng.random(size) * 4) / 4
            k = int(rng.integers(0, size + 2))
            got = topk_mask(scores, k)
            expected = oracles.topk_indices(list(scores), k)
            np.testing.assert_array_equal(got, expected)

    def test_scale_invariance(self):
        rng = np.random.default_rng(42)
        scores = rng.random(12)
        a = topk_mask(scores, 5)
        b = topk_mask(scores * 37.0, 5)
        np.testing.assert_array_equal(a, b)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k must"):
            topk_mask([1.0], -1)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            topk_mask([np.nan], 1)


class TestBudgetToK:
    def test_even_split(self):
        cfg = PruneConfig(budget=88, recent=8, obs_window=16, cross_ratio=0.5)
        assert budget_to_k(cfg, 200) == (40, 40)

    def test_skewed_split_rounds_half_up(self):
        cfg = PruneConfig(budget=88, recent=8, obs_window=16, cross_ratio=0.9)
        # pool 80, inter share 72, intra the remaining 8
        assert budget_to_k(cfg, 200) == (8, 72)

    def test_clamped_to_candidates(self):
        cfg = PruneConfig(budget=88, recent=8, obs_window=16, cross_ratio=0.5)
        assert budget_to_k(cfg, 10) == (10, 10)

    def test_minimal_pool_of_one(self):
        cfg = PruneConfig(budget=9, recent=8, obs_window=4, cross_ratio=0.5)
        # pool of 1; the half rounds up, so inter takes it
        assert budget_to_k(cfg, 10) == (0, 1)

    def test_matches_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            budget = int(rng.integers(1, 60))
            recent = int(rng.integers(0, budget))
            ratio = float(rng.random())
            cand = int(rng.integers(0, 80))
            cfg = PruneConfig(budget=budget, recent=recent, obs_window=4, cross_ratio=ratio)
            assert budget_to_k(cfg, cand) == oracles.split_pool(budget, recent, ratio, cand)

    def test_negative_candidates_rejected(self):
        cfg = PruneConfig(budget=8, recent=2, obs_window=4)
        with pytest.raises(ValueError, match="candidate_count"):
            budget_to_k(cfg, -1)


class TestCrossSelfSelect:
    def test_worked_example(self):
        """intra [.5,.6,.3] / inter [.1,.2,.3] with k=(1,2): the intra mask
        is {1}, the inter mask {1,2}, so only key 1 survives."""
        scores = scores_from([0.5, 0.6, 0.3], [0.1, 0.2, 0.3])
        cfg = PruneConfig(budget=5, recent=2, obs_window=2, cross_ratio=0.5)
        assert budget_to_k(cfg, 3) == (1, 2)
        mask = cross_self_select(scores, cfg)
        np.testing.assert_array_equal(mask, [1])

    def test_ratio_zero_is_pure_intra(self):
        scores = scores_from([0.9, 0.1, 0.5], [0.1, 0.9, 0.5])
        cfg = PruneConfig(budget=4, recent=2, obs_window=2, cross_ratio=0.0)
        mask = cross_self_select(scores, cfg)
        np.testing.assert_array_equal(mask, [0, 2])

    def test_ratio_one_is_pure_inter(self):
        scores = scores_from([0.9, 0.1, 0.5], [0.1, 0.9, 0.5])
        cfg = PruneConfig(budget=4, recent=2, obs_window=2, cross_ratio=1.0)
        mask = cross_self_select(scores, cfg)
        np.testing.assert_array_equal(mask, [1, 2])

    def test_identical_rankings_fill_the_smaller_k(self):
        scores = scores_from([0.9, 0.8, 0.7, 0.1], [0.9, 0.8, 0.7, 0.1])
        cfg = PruneConfig(budget=5, recent=2, obs_window=2, cross_ratio=0.5)
        mask = cross_self_select(scores, cfg)
        # ks are (1, 2); identical rankings make the intersection the top 1.
        np.testing.assert_array_equal(mask, [0])

    def test_widen_reaches_pool(self):
        """Disagreeing rankings underfill without widening and fill the
        pool with it."""
        rng = np.random.default_rng(42)
        intra = rng.random(30)
        inter = rng.random(30)
        scores = scores_from(intra, inter)
        cfg = PruneConfig(budget=20, recent=4, obs_window=4, cross_ratio=0.5)
        plain = cross_self_select(scores, cfg)
        widened = cross_self_select(scores, cfg.with_updates(widen_to_budget=True))
        assert len(plain) <= 16
        assert len(widened) == 16
        assert set(plain) <= set(widened)

    def test_matches_oracle_with_and_without_widening(self):
        def check(intra, inter, budget, recent, ratio, obs, bias, widen):
            cfg = PruneConfig(
                budget=budget,
                recent=recent,
                obs_window=obs,
                cross_ratio=ratio,
                recency_bias=bias,
                widen_to_budget=widen,
            )
            got = cross_self_select(scores_from(intra, inter), cfg)
            expected = oracles.select_retained(
                list(intra), list(inter), budget, recent, ratio, obs,
                recency_bias=bias, widen=widen,
            )
            np.testing.assert_array_equal(got, expected)

        rng = np.random.default_rng(42)
        for trial in range(200):
            cand = int(rng.integers(1, 25))
            intra = rng.random(cand)
            inter = rng.random(cand)
            budget = int(rng.integers(2, 30))
            recent = int(rng.integers(0, budget))
            ratio = float(rng.random())
            widen = bool(trial % 2)
            bias = float(rng.choice([1.0, 2.0]))
            obs = int(rng.integers(1, 8))
            check(intra, inter, budget, recent, ratio, obs, bias, widen)

        # Larger candidate sets, tied integer scores and extreme ratios, so
        # the widening search takes both its doubling and bisection steps.
        # The oracle re-sorts once per widening round, and extreme ratios
        # widen for up to cand / 0.01 rounds, so they get fewer candidates.
        for trial in range(100):
            ratio = (0.0, 1.0, 0.01, 0.99, float(rng.random()))[trial % 5]
            cand = int(rng.integers(1, 60 if ratio in (0.01, 0.99) else 300))
            if trial % 2:
                intra = rng.integers(0, 4, cand).astype(np.float64)
                inter = rng.integers(0, 4, cand).astype(np.float64)
            else:
                intra = rng.random(cand)
                inter = rng.random(cand)
            budget = int(rng.integers(2, cand + 60))
            recent = int(rng.integers(0, budget))
            bias = float(rng.choice([0.5, 1.0, 2.0]))
            obs = int(rng.integers(1, 40))
            check(intra, inter, budget, recent, ratio, obs, bias, trial % 3 != 0)

    def test_intersection_subset_property(self):
        """Without widening, the result is contained in both top-k masks and
        no larger than the smaller k."""
        rng = np.random.default_rng(42)
        for _ in range(100):
            cand = int(rng.integers(1, 20))
            intra = rng.random(cand)
            inter = rng.random(cand)
            budget = int(rng.integers(2, 24))
            recent = int(rng.integers(0, budget))
            cfg = PruneConfig(budget=budget, recent=recent, obs_window=4, cross_ratio=0.5)
            k_intra, k_inter = budget_to_k(cfg, cand)
            eff_intra = cand if k_intra == 0 else k_intra
            eff_inter = cand if k_inter == 0 else k_inter
            mask = cross_self_select(scores_from(intra, inter), cfg)
            assert len(mask) <= min(eff_intra, eff_inter)
            assert set(mask) <= set(topk_mask(intra, eff_intra))
            assert set(mask) <= set(topk_mask(inter, eff_inter))

    def test_recency_bias_promotes_window_keys(self):
        """A strong multiplier on the trailing observation window pulls an
        otherwise losing key into the mask."""
        intra = np.array([0.5, 0.4, 0.1, 0.2])
        inter = np.array([0.5, 0.4, 0.1, 0.2])
        cfg = PruneConfig(budget=4, recent=2, obs_window=2, cross_ratio=0.5)
        base = cross_self_select(scores_from(intra, inter), cfg)
        boosted = cross_self_select(
            scores_from(intra, inter), cfg.with_updates(recency_bias=10.0)
        )
        assert 3 not in set(base)
        assert 3 in set(boosted)

    def test_no_candidates_rejected(self):
        cfg = PruneConfig(budget=4, recent=2, obs_window=2)
        empty = scores_from(np.zeros(0), np.zeros(0))
        with pytest.raises(ValueError, match="no candidates"):
            cross_self_select(empty, cfg)


@st.composite
def selection_cases(draw):
    """Candidate scores and a csp config; scores are tied small integers
    or uniform floats, drawn from a seeded generator to keep examples small."""
    cand = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        intra = rng.integers(0, 4, cand).astype(np.float64)
        inter = rng.integers(0, 4, cand).astype(np.float64)
    else:
        intra, inter = rng.random(cand), rng.random(cand)
    budget = draw(st.integers(2, cand + 60))
    cfg = PruneConfig(
        budget=budget,
        recent=draw(st.integers(0, budget - 1)),
        obs_window=draw(st.integers(1, 40)),
        cross_ratio=draw(st.sampled_from([0.0, 0.01, 0.5, 0.99, 1.0]) | st.floats(0.0, 1.0)),
        recency_bias=draw(st.sampled_from([0.5, 1.0, 2.0])),
        widen_to_budget=draw(st.booleans()),
    )
    return scores_from(intra, inter), cfg


class TestCrossSelfSelectProperties:
    @given(selection_cases())
    def test_mask_stays_inside_candidates(self, case):
        scores, cfg = case
        mask = cross_self_select(scores, cfg)
        assert mask.dtype == np.int64
        assert np.all(np.diff(mask) > 0)
        assert np.all((mask >= 0) & (mask < len(scores)))

    @given(selection_cases())
    def test_widening_reaches_target(self, case):
        scores, cfg = case
        mask = cross_self_select(scores, cfg.with_updates(widen_to_budget=True))
        assert len(mask) >= min(cfg.budget - cfg.recent, len(scores))

    @given(selection_cases())
    def test_widened_contains_unwidened(self, case):
        scores, cfg = case
        plain = cross_self_select(scores, cfg.with_updates(widen_to_budget=False))
        widened = cross_self_select(scores, cfg.with_updates(widen_to_budget=True))
        assert set(plain) <= set(widened)

    @given(selection_cases(), st.sampled_from([0.0, 1.0]))
    def test_ratio_extremes_are_single_ranking_topk(self, case, ratio):
        scores, cfg = case
        cfg = cfg.with_updates(cross_ratio=ratio)
        ranked = scores.intra if ratio == 0.0 else scores.inter
        biased = oracles.biased(list(ranked), cfg.obs_window, cfg.recency_bias)
        expected = topk_mask(np.array(biased), cfg.budget - cfg.recent)
        np.testing.assert_array_equal(cross_self_select(scores, cfg), expected)



EXTREME_RATIOS = st.sampled_from([0.0, 1.0, 1e-9, 1 - 1e-9, 0.5]) | st.floats(0.0, 1.0)


class TestKernels:
    """The unchecked kernels the policies call give what their checked
    public forms give on finite scores."""

    @given(selection_cases(), st.integers(0, 320))
    def test_topk_kernel_equals_public_form(self, case, k):
        scores, _ = case
        for ranked in (scores.intra, scores.inter):
            np.testing.assert_array_equal(_topk_mask(ranked, k), topk_mask(ranked, k))

    @given(selection_cases(), EXTREME_RATIOS, st.booleans())
    def test_select_kernel_equals_public_form(self, case, ratio, widen):
        scores, cfg = case
        cfg = cfg.with_updates(cross_ratio=ratio, widen_to_budget=widen)
        np.testing.assert_array_equal(_cross_self_select(scores, cfg),
                                      cross_self_select(scores, cfg))

    @given(selection_cases(), st.sampled_from([1e-9, 1 - 1e-9]))
    def test_widening_matches_oracle_at_extreme_ratios(self, case, ratio):
        """The bracketed search stops at the t of the one-unit-at-a-time
        oracle."""
        scores, cfg = case
        cfg = cfg.with_updates(cross_ratio=ratio, widen_to_budget=True)
        expected = oracles.select_retained(
            list(scores.intra), list(scores.inter), cfg.budget, cfg.recent, ratio,
            cfg.obs_window, recency_bias=cfg.recency_bias, widen=True,
        )
        np.testing.assert_array_equal(_cross_self_select(scores, cfg), expected)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_public_forms_refuse_non_finite_scores(self, value):
        scores = np.linspace(0.0, 1.0, 6)
        scores[2] = value
        cfg = PruneConfig(budget=5, recent=1, obs_window=2, widen_to_budget=True)
        with pytest.raises(ValueError, match="scores must be finite"):
            topk_mask(scores, 3)
        for bad in (scores_from(scores, np.ones(6)), scores_from(np.ones(6), scores)):
            with pytest.raises(ValueError, match="scores must be finite"):
                cross_self_select(bad, cfg)

    @given(st.integers(1, 2000), st.integers(1, 3000), EXTREME_RATIOS)
    def test_every_constrained_side_is_full_at_the_stop(self, cand, pool, ratio):
        """The widening search takes the predicate as true at the stop
        without probing it: there both sides of a split with nonzero
        nominal shares select every candidate."""
        assume(min(_split(pool, ratio)) > 0)
        stop = _widening_stop(cand, pool, ratio)
        assert pool <= stop <= 2 * (cand + 1) * pool + 1
        assert min(_split(stop, ratio)) >= cand

    def test_widening_probes_are_pinned(self, monkeypatch):
        """The search's cost. Over a seeded batch of widened selections the
        pool sizes the bisection counts at are pinned: a bracket wider or
        narrower than `_widening_stop`'s selects the same candidates but
        probes other pool sizes."""
        probes = []

        def recording(a, x, *, key):
            return bisect.bisect_left(a, x, key=lambda t: probes.append(t) or key(t))

        monkeypatch.setattr(selection, "bisect", types.SimpleNamespace(bisect_left=recording))
        rng = np.random.default_rng(7)
        for trial in range(200):
            cand = int(rng.integers(1, 300))
            budget = int(rng.integers(2, cand + 60))
            cfg = PruneConfig(budget=budget, recent=int(rng.integers(0, budget)), obs_window=4,
                              cross_ratio=(0.01, 0.3, 0.5, 0.99, float(rng.random()))[trial % 5],
                              widen_to_budget=True)
            _cross_self_select(scores_from(rng.random(cand), rng.random(cand)), cfg)
        assert (len(probes), sum(probes)) == (1399, 4603391)
