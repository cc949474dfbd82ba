"""Attention scoring primitives.

Logits -> weights -> a trimmed observation block, with an optional additive
constant in the softmax denominator. The smoothed form exists because pruning
removes denominator mass: dropping tokens from a softmax renormalizes the
survivors upward and sharpens the distribution, while an additive constant
can stand in for the evicted mass and keep the kept weights near their
original values.

All matrices here are float64 ndarrays; rows are queries, columns are keys.
Each public function checks its input. The smoothed softmax then calls an
unchecked kernel of the same name with a leading underscore, which the
simulator and diagnostics call directly, on stacks of matrices too, on
input they checked once. The policies never build a weight matrix: their
column-mass scorer takes the smoothed softmax's shifted exponentials and
denominators from `_shifted_exp`, the one copy of that arithmetic. It
casts float32 or float64 logits to float64 once and then shifts,
exponentiates and sums in place in that one dtype, skipping the smoothing
term and its clamp of the shift at smoothing 0, where both are
identities. So the scorer, the softmax, the simulator's reconstruction
error and full outputs and the diagnostics all get the same bits from
float32 logits as from their float64 copy.
"""

from __future__ import annotations

import numpy as np

from .core import as_count, as_real


def _as_matrix(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {x.shape}")
    if x.size and not np.isfinite(x).all():
        raise ValueError(f"{name} must contain finite entries only")
    return x


def softmax_rows(logits) -> np.ndarray:
    """Row-wise softmax with max-shift stabilization.

    Every row of the result is a probability vector; translating a row by a
    constant leaves its output unchanged. A matrix with zero columns gives
    an empty (rows, 0) result. Otherwise this is the smoothed softmax with
    smoothing 0, bit for bit.
    """
    logits = _as_matrix(logits, "logits")
    if logits.shape[1] == 0:
        return logits.copy()
    return _smoothed_softmax_rows(logits, 0.0)


def smoothed_softmax_rows(logits, smoothing: float) -> np.ndarray:
    """Row-wise softmax with an additive denominator term.

    For row O, entry i becomes

        exp(O_i) / (smoothing + sum_j exp(O_j))

    The sum runs over every column, so a caller applies the paper's kept set
    S by slicing its columns first (`logits[:, kept]`). smoothing = 0
    reproduces softmax_rows. Row sums are < 1 whenever smoothing > 0, and
    setting smoothing to the dropped exponential mass reproduces the full
    softmax on the kept columns.

    smoothing is a finite non-negative constant on the raw logit scale. A
    matrix with zero columns (an empty kept set) is an error when
    smoothing == 0, since the weights are undefined, and gives an empty
    (rows, 0) result otherwise.
    """
    logits = _as_matrix(logits, "logits")
    if not 0.0 <= as_real(smoothing) < np.inf:
        raise ValueError(f"smoothing must be finite and >= 0, got {smoothing}")
    return _smoothed_softmax_rows(logits, smoothing)


def _smoothed_softmax_rows(logits: np.ndarray, smoothing: float) -> np.ndarray:
    """smoothed_softmax_rows along the last axis of finite float32 or
    float64 logits of any rank and a valid smoothing, unchecked. The result
    is float64, and the same bits for a float32 array as for its float64
    copy, and for a stack of matrices as for each matrix on its own. A -inf
    entry gets weight exactly 0, so -inf masks a column out of its row,
    provided the row keeps a finite entry or smoothing > 0 (else the row
    is NaN)."""
    expd, denom = _shifted_exp(logits, smoothing)
    expd /= denom[..., None]
    return expd


def _shifted_exp(logits: np.ndarray, smoothing: float) -> tuple[np.ndarray, np.ndarray]:
    """(expd, denom) of the smoothed softmax along the last axis of finite
    float32 or float64 logits, unchecked: each row's weights are expd /
    denom. expd is a new float64 array of the logits' shape and memory
    order; denom has one entry per row. With no columns there are no
    weights, which is an error at smoothing 0."""
    if logits.shape[-1] == 0:
        if smoothing == 0.0:
            raise ValueError("no columns and smoothing is 0; weights are undefined")
        return np.zeros(logits.shape), np.ones(logits.shape[:-1])

    # One cast, then every step in place in float64: the row max of the
    # copy is the float32 row max, and subtracting a float64 shift from
    # float32 logits would cast them to float64 anyway. The copy keeps the
    # logits' memory order, so the row sums add in the same order too.
    expd = logits.astype(np.float64)
    # Shift each row by max(row max, ln smoothing) so that neither the
    # exponentials nor the smoothing term can overflow. At smoothing 0 the
    # term is exp(-inf) = 0 and the shift the row max, so both are skipped.
    shift = expd.max(axis=-1)
    if smoothing > 0.0:
        # A float64 log of any smoothing type: np.log would take a float32
        # smoothing's log in float32, and has no loop for an int past int64.
        log_smoothing = np.log(float(smoothing))
        np.maximum(shift, log_smoothing, out=shift)
    expd -= shift[..., None]
    np.exp(expd, out=expd)
    denom = expd.sum(axis=-1)
    if smoothing > 0.0:
        # exp(ln n - shift) instead of n * exp(-shift): the latter is 0 * inf
        # (NaN) when the row max is strongly negative.
        denom += np.exp(log_smoothing - shift)
    return expd, denom


def head_average(weights) -> np.ndarray:
    """Mean over the head axis of a (heads, rows, cols) stack."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 3:
        raise ValueError(f"expected (heads, rows, cols), got shape {weights.shape}")
    if weights.shape[0] < 1:
        raise ValueError("need at least one head")
    return weights.mean(axis=0)


def trim_observation(weights, obs_window: int, recent: int) -> np.ndarray:
    """Trailing obs_window rows x leading (cols - recent) columns.

    This is the scoring view: only the newest queries vote, and the recent
    keys are never candidates so their columns are dropped. obs_window
    larger than the row count keeps every row.
    """
    weights = _as_matrix(weights, "weights")
    rows, cols = weights.shape
    obs_window = as_count(obs_window, "obs_window", 1)
    recent = as_count(recent, "recent")
    if recent >= cols:
        raise ValueError(f"recent window ({recent}) swallows every key column ({cols})")
    return weights[rows - min(obs_window, rows) :, : cols - recent]
