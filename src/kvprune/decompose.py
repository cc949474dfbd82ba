"""Modality decomposition of attention weights.

A key's importance is usually its attention column sum. Here the sum is
split by whether the querying token shares the key's modality: same-modality
mass (intra) and opposite-modality mass (inter). The two parts are exact,
meaning intra + inter reproduces the plain column sums, so nothing is lost
by decomposing; it only makes the two signals separately rankable.

Only two sums per key enter the split: the column mass from text queries
and from visual queries. `_decompose` splits that (2, cols) mass by key
tag; `cross_self_importance` sums a weight matrix into it, and the csp
policy scores it directly, so both go through the one split. The
diagnostics pool single weights by the same pairing rule, through a
same-modality mask over (query, key).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TEXT_CODE, as_tags
from .scoring import _as_matrix


@dataclass(frozen=True)
class ImportanceScores:
    """Per-key importance, split by query/key modality agreement."""

    intra: np.ndarray
    inter: np.ndarray

    def __post_init__(self):
        if self.intra.shape != self.inter.shape:
            raise ValueError(f"score shapes disagree: {self.intra.shape}, {self.inter.shape}")

    @property
    def total(self) -> np.ndarray:
        """Plain column-sum importance (decomposition collapsed)."""
        return self.intra + self.inter

    def __len__(self) -> int:
        return int(self.intra.shape[0])


def cross_self_importance(weights, query_tags, key_tags) -> ImportanceScores:
    """Split column sums into same-modality and cross-modality parts.

    For key j:

        intra[j] = sum of weights[i, j] over queries i with tag(i) == tag(j)
        inter[j] = sum of weights[i, j] over queries i with tag(i) != tag(j)

    Works for arbitrary interleavings; block-contiguous layouts are just the
    special case where the sums are contiguous slices.
    """
    weights = _as_matrix(weights, "weights")
    query_tags = as_tags(query_tags)
    key_tags = as_tags(key_tags)
    if query_tags.shape[0] != weights.shape[0]:
        raise ValueError(
            f"{query_tags.shape[0]} query tags for {weights.shape[0]} weight rows"
        )
    if key_tags.shape[0] != weights.shape[1]:
        raise ValueError(
            f"{key_tags.shape[0]} key tags for {weights.shape[1]} weight columns"
        )
    text_rows = query_tags == TEXT_CODE
    mass = np.stack([weights[text_rows].sum(axis=0), weights[~text_rows].sum(axis=0)])
    return _decompose(mass, key_tags)


def _decompose(mass: np.ndarray, key_tags: np.ndarray) -> ImportanceScores:
    """The ImportanceScores of a (2, cols) column mass, unchecked: row 0
    is the mass from text queries and row 1 from visual ones, and each key
    takes its own modality's row as intra and the other as inter. key_tags
    are uint8 tags, one per column."""
    from_text, from_visual = mass
    key_is_text = key_tags == TEXT_CODE
    intra = np.where(key_is_text, from_text, from_visual)
    inter = np.where(key_is_text, from_visual, from_text)
    return ImportanceScores(intra=intra, inter=inter)
