"""Tests for the same/cross modality split of attention column sums."""

import numpy as np
import pytest

from kvprune.core import TEXT, VISUAL
from kvprune.decompose import ImportanceScores, cross_self_importance

import oracles


WEIGHTS = np.array([
    [0.5, 0.2, 0.3],
    [0.1, 0.6, 0.3],
])
QUERY_TAGS = [TEXT, VISUAL]
KEY_TAGS = [TEXT, VISUAL, TEXT]


class TestCrossSelfImportance:
    def test_worked_example(self):
        """Two queries (one per modality) over three keys, by hand.

        Key 0 is text: its text query gives 0.5 intra, its visual query 0.1
        inter. Key 1 is visual: 0.6 intra, 0.2 inter. Key 2 is text: 0.3
        intra, 0.3 inter.
        """
        scores = cross_self_importance(WEIGHTS, QUERY_TAGS, KEY_TAGS)
        np.testing.assert_allclose(scores.intra, [0.5, 0.6, 0.3])
        np.testing.assert_allclose(scores.inter, [0.1, 0.2, 0.3])

    def test_conservation(self):
        """intra + inter reproduces the plain column sums exactly."""
        rng = np.random.default_rng(42)
        for _ in range(100):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 13))
            weights = rng.random((rows, cols))
            qt = rng.integers(0, 2, size=rows)
            kt = rng.integers(0, 2, size=cols)
            scores = cross_self_importance(weights, qt, kt)
            np.testing.assert_allclose(scores.total, weights.sum(axis=0), atol=1e-9)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 9))
            weights = rng.random((rows, cols))
            qt = rng.integers(0, 2, size=rows)
            kt = rng.integers(0, 2, size=cols)
            intra, inter = oracles.cross_self_sums(weights, qt, kt)
            scores = cross_self_importance(weights, qt, kt)
            np.testing.assert_allclose(scores.intra, intra, atol=1e-12)
            np.testing.assert_allclose(scores.inter, inter, atol=1e-12)

    def test_key_permutation_equivariance(self):
        """Permuting keys permutes the scores the same way."""
        rng = np.random.default_rng(42)
        weights = rng.random((4, 6))
        qt = rng.integers(0, 2, size=4)
        kt = rng.integers(0, 2, size=6)
        perm = rng.permutation(6)
        base = cross_self_importance(weights, qt, kt)
        shuffled = cross_self_importance(weights[:, perm], qt, kt[perm])
        np.testing.assert_allclose(shuffled.intra, base.intra[perm])
        np.testing.assert_allclose(shuffled.inter, base.inter[perm])

    def test_single_modality_queries(self):
        """All-text queries put everything in intra for text keys and in
        inter for visual keys."""
        rng = np.random.default_rng(42)
        weights = rng.random((3, 4))
        kt = np.array([0, 1, 0, 1], dtype=np.uint8)
        scores = cross_self_importance(weights, [TEXT] * 3, kt)
        sums = weights.sum(axis=0)
        np.testing.assert_allclose(scores.intra, np.where(kt == 0, sums, 0.0))
        np.testing.assert_allclose(scores.inter, np.where(kt == 0, 0.0, sums))

    def test_uniform_matrix_splits_by_query_counts(self):
        weights = np.full((4, 2), 0.25)
        scores = cross_self_importance(weights, [TEXT, TEXT, TEXT, VISUAL], [TEXT, VISUAL])
        np.testing.assert_allclose(scores.intra, [0.75, 0.25])
        np.testing.assert_allclose(scores.inter, [0.25, 0.75])

    def test_total_property(self):
        scores = cross_self_importance(WEIGHTS, QUERY_TAGS, KEY_TAGS)
        np.testing.assert_allclose(scores.total, [0.6, 0.8, 0.6])
        assert len(scores) == 3

    def test_row_tag_mismatch(self):
        with pytest.raises(ValueError, match="query tags"):
            cross_self_importance(WEIGHTS, [TEXT], KEY_TAGS)

    def test_col_tag_mismatch(self):
        with pytest.raises(ValueError, match="key tags"):
            cross_self_importance(WEIGHTS, QUERY_TAGS, [TEXT, VISUAL])

    def test_shape_guard_on_scores(self):
        with pytest.raises(ValueError, match="disagree"):
            ImportanceScores(intra=np.zeros(3), inter=np.zeros(2))
