"""Tests for tag handling and config validation."""

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kvprune.core import (
    TEXT,
    VISUAL,
    ModalityTag,
    PruneConfig,
    as_tags,
    tag_counts,
    validate_config,
)

import oracles

# The same tag sequence in each form the helpers accept.
TAG_SEQUENCES = st.one_of(
    st.lists(st.integers(0, 1), max_size=40).map(lambda xs: np.array(xs, dtype=np.uint8)),
    st.lists(st.integers(0, 1), max_size=40),
    st.lists(st.sampled_from(list(ModalityTag)), max_size=40),
)


class TestTags:
    def test_enum_values_are_byte_codes(self):
        assert int(ModalityTag.TEXT) == 0
        assert int(ModalityTag.VISUAL) == 1

    def test_as_tags_accepts_mixed_input(self):
        tags = as_tags([TEXT, 1, 0, ModalityTag.VISUAL])
        assert tags.dtype == np.uint8
        np.testing.assert_array_equal(tags, [0, 1, 0, 1])

    def test_as_tags_rejects_other_values(self):
        with pytest.raises(ValueError, match="0 .* or 1"):
            as_tags([0, 1, 2])

    def test_tag_counts(self):
        assert tag_counts([0, 1, 1, 0, 1]) == (2, 3)
        assert tag_counts([]) == (0, 0)


class TestTagProperties:
    @given(TAG_SEQUENCES)
    def test_helpers_match_a_loop(self, seq):
        text, visual = oracles.tag_positions(seq)
        tags = as_tags(seq)
        assert tags.dtype == np.uint8
        assert tags.tolist() == [int(tag) for tag in seq]
        counts = tag_counts(seq)
        assert counts == (len(text), len(visual))
        assert all(type(count) is int for count in counts)

    @given(
        st.lists(st.integers(0, 255), min_size=1, max_size=40).filter(
            lambda xs: max(xs) > 1
        ),
        st.booleans(),
    )
    def test_values_above_visual_raise(self, values, as_array):
        """Every helper rejects 2-255 with the message naming the first one."""
        seq = np.array(values, dtype=np.uint8) if as_array else values
        bad = next(value for value in values if value > 1)
        message = re.escape(f"modality tags must be 0 (text) or 1 (visual), got {bad}")
        for helper in (as_tags, tag_counts):
            with pytest.raises(ValueError, match=f"^{message}$"):
                helper(seq)


class TestPruneConfig:
    def test_defaults_are_valid(self):
        cfg = PruneConfig(budget=100, recent=20, obs_window=32)
        assert cfg.cross_ratio == 0.5
        assert cfg.smoothing == 1.0
        assert cfg.widen_to_budget is False
        assert cfg.pool_width == 1
        assert validate_config(cfg) is cfg

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"budget": 0}, "budget"),
            ({"budget": -3}, "budget"),
            ({"recent": -1}, "recent"),
            ({"recent": 100}, "recent"),
            ({"recent": 150}, "recent"),
            ({"obs_window": 0}, "obs_window"),
            ({"cross_ratio": -0.1}, "cross_ratio"),
            ({"cross_ratio": 1.5}, "cross_ratio"),
            ({"smoothing": -1.0}, "smoothing"),
            ({"recency_bias": 0.0}, "recency_bias"),
            ({"smoothing": float("inf")}, "smoothing"),
            ({"recency_bias": float("inf")}, "recency_bias"),
            ({"cross_ratio": "0.5"}, "cross_ratio"),
            ({"cross_ratio": None}, "cross_ratio"),
            ({"widen_to_budget": "no"}, "widen_to_budget"),
            ({"widen_to_budget": 1}, "widen_to_budget"),
            ({"widen_to_budget": None}, "widen_to_budget"),
            ({"pool_width": 0}, "pool_width"),
            ({"pool_width": -1}, "pool_width"),
            ({"pool_width": 1.5}, "pool_width"),
        ],
    )
    def test_invalid_fields_name_the_culprit(self, kwargs, field):
        """Every field meets one rule: a value of the wrong type is refused
        like one out of range, with a ValueError naming the field."""
        base = dict(budget=100, recent=20, obs_window=32)
        base.update(kwargs)
        with pytest.raises(ValueError, match=field):
            PruneConfig(**base)

    def test_numpy_values_are_stored_as_python_values(self):
        """A numpy bool is a bool and a numpy integer a count; the config
        keeps them as a Python bool and int."""
        cfg = PruneConfig(budget=100, recent=20, obs_window=32, widen_to_budget=np.True_,
                          pool_width=np.uint8(3))
        assert cfg.widen_to_budget is True
        assert type(cfg.pool_width) is int and cfg.pool_width == 3
        assert PruneConfig(budget=100, recent=20, obs_window=32,
                           widen_to_budget=np.False_).widen_to_budget is False

    def test_with_updates_revalidates(self):
        cfg = PruneConfig(budget=100, recent=20, obs_window=32)
        bigger = cfg.with_updates(budget=200)
        assert bigger.budget == 200
        assert cfg.budget == 100
        with pytest.raises(ValueError, match="recent"):
            cfg.with_updates(recent=100)

    def test_recent_may_be_zero(self):
        cfg = PruneConfig(budget=10, recent=0, obs_window=4)
        assert cfg.recent == 0
