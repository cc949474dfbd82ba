"""Tests for softmax variants, head averaging, and trimming."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kvprune.scoring import (
    _shifted_exp,
    _smoothed_softmax_rows,
    head_average,
    smoothed_softmax_rows,
    softmax_rows,
    trim_observation,
)

import oracles


class TestSoftmaxRows:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_analytic_two_point(self):
        out = softmax_rows(np.array([[np.log(2.0), 0.0]]))
        np.testing.assert_allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)

    def test_high_precision_oracle(self):
        out = softmax_rows(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(
            out[0], [0.09003057, 0.24472847, 0.66524096], atol=1e-8
        )
        np.testing.assert_allclose(out[0], oracles.mp_softmax([1.0, 2.0, 3.0]), atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(42)
        logits = rng.normal(0, 5, size=(100, 17))
        out = softmax_rows(logits)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert (out >= 0).all() and (out <= 1).all()

    def test_translation_invariance(self):
        rng = np.random.default_rng(42)
        logits = rng.normal(0, 3, size=(20, 9))
        shifted = logits + rng.normal(0, 10, size=(20, 1))
        np.testing.assert_allclose(softmax_rows(logits), softmax_rows(shifted), atol=1e-12)

    def test_huge_logits_do_not_overflow(self):
        out = softmax_rows(np.array([[1000.0, 999.0], [-1000.0, -1000.0]]))
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[1], [0.5, 0.5])

    def test_empty_row_returns_empty(self):
        out = softmax_rows(np.zeros((3, 0)))
        assert out.shape == (3, 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            softmax_rows(np.array([[0.0, np.inf]]))


class TestSmoothedSoftmax:
    def test_single_kept_half(self):
        out = smoothed_softmax_rows(np.array([[0.0]]), smoothing=1.0)
        np.testing.assert_allclose(out, [[0.5]])

    def test_zero_smoothing_is_softmax(self):
        out = smoothed_softmax_rows(np.array([[0.0, 0.0]]), smoothing=0.0)
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_two_kept_smoothing_two(self):
        out = smoothed_softmax_rows(np.array([[0.0, 0.0]]), smoothing=2.0)
        np.testing.assert_allclose(out, [[0.25, 0.25]])

    def test_matches_arbitrary_precision_oracle(self):
        """Slicing the kept columns first gives the oracle's weights on them."""
        rng = np.random.default_rng(42)
        for _ in range(200):
            cols = rng.integers(1, 12)
            logits = rng.normal(0, 4, size=cols)
            n = float(rng.uniform(0, 5))
            kept = np.flatnonzero(rng.random(cols) < 0.7)
            if kept.size == 0:
                kept = np.array([0])
            out = smoothed_softmax_rows(logits[None, kept], n)[0]
            expected = oracles.mp_softmax(list(logits), n, kept=list(kept))
            for rank, j in enumerate(kept):
                assert abs(out[rank] - expected[j]) < 1e-12

    def test_row_sums_below_one_with_smoothing(self):
        rng = np.random.default_rng(42)
        logits = rng.normal(0, 3, size=(50, 8))
        out = smoothed_softmax_rows(logits, smoothing=1.0)
        assert (out.sum(axis=1) < 1.0).all()

    def test_monotone_in_smoothing(self):
        """Every weight shrinks (weakly) as the denominator constant grows."""
        rng = np.random.default_rng(42)
        logits = rng.normal(0, 3, size=(10, 6))
        previous = smoothed_softmax_rows(logits, smoothing=0.0)
        for n in (0.5, 1.0, 2.0, 10.0):
            current = smoothed_softmax_rows(logits, smoothing=n)
            assert (current <= previous + 1e-15).all()
            previous = current

    def test_stabilized_against_huge_logits_and_huge_n(self):
        logits = np.array([[800.0, 799.0], [-800.0, -801.0]])
        out = smoothed_softmax_rows(logits, smoothing=1e300)
        assert np.isfinite(out).all()
        out = smoothed_softmax_rows(logits, smoothing=0.0)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_empty_kept_zero_smoothing_is_error(self):
        """A caller that slices away every column leaves no weights to define."""
        with pytest.raises(ValueError, match="weights are undefined"):
            smoothed_softmax_rows(np.zeros((1, 0)), 0.0)

    def test_zero_columns_positive_smoothing_is_empty(self):
        out = smoothed_softmax_rows(np.zeros((2, 0)), 1.0)
        assert out.shape == (2, 0)

    def test_negative_smoothing_rejected(self):
        with pytest.raises(ValueError, match="smoothing"):
            smoothed_softmax_rows(np.zeros((1, 2)), -0.5)

    def test_infinite_smoothing_rejected(self):
        with pytest.raises(ValueError, match="smoothing"):
            smoothed_softmax_rows(np.zeros((1, 2)), np.inf)


@st.composite
def softmax_cases(draw):
    """(logits, kept): a logit matrix and a nonempty sorted column subset."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 10))
    logits = rng.normal(0.0, draw(st.sampled_from([1.0, 10.0, 300.0])), size=(rows, cols))
    chosen = rng.random(cols) < 0.5
    chosen[rng.integers(0, cols)] = True
    return logits, np.flatnonzero(chosen)


smoothings = st.floats(0.0, 1e300)


class TestSmoothedSoftmaxProperties:
    @given(softmax_cases(), smoothings)
    def test_row_sums_at_most_one(self, case, smoothing):
        logits, kept = case
        out = smoothed_softmax_rows(logits[:, kept], smoothing)
        assert (out.sum(axis=1) <= 1.0 + 1e-12).all()

    @given(softmax_cases(), smoothings, smoothings)
    def test_non_increasing_in_smoothing(self, case, a, b):
        logits, kept = case
        low = smoothed_softmax_rows(logits[:, kept], min(a, b))
        high = smoothed_softmax_rows(logits[:, kept], max(a, b))
        assert (high <= low * (1.0 + 1e-12)).all()

    @given(softmax_cases())
    def test_zero_smoothing_keeping_all_is_softmax(self, case):
        logits, _ = case
        np.testing.assert_array_equal(smoothed_softmax_rows(logits, 0.0), softmax_rows(logits))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 10),
           st.floats(0.0, 700.0), st.sampled_from([np.float32, np.float64]))
    def test_softmax_rows_is_shift_exp_normalise(self, seed, rows, cols, scale, dtype):
        """softmax_rows, which runs the smoothed kernel at smoothing 0,
        gives the bits of the plain max-shift, exponentiate, normalise
        formula on the float64 copy of its float32 or float64 input, at
        logit scales up to 700."""
        rng = np.random.default_rng(seed)
        logits = rng.normal(0.0, scale, size=(rows, cols)).astype(dtype)
        wide = logits.astype(np.float64)
        expd = np.exp(wide - wide.max(axis=1, keepdims=True))
        np.testing.assert_array_equal(softmax_rows(logits), expd / expd.sum(axis=1, keepdims=True))

    @given(softmax_cases(), st.one_of(st.just(0.0), smoothings))
    def test_float32_input_gives_the_float64_bits(self, case, smoothing):
        """The kernel takes float32 logits as gathered from a slab or trace
        and computes in float64, so it returns the bits the checked form
        returns for their float64 copy; at smoothing 0 too, where the
        -inf shift bound would otherwise leave the arithmetic in float32."""
        logits, kept = case
        narrow = logits[:, kept].astype(np.float32)
        out = _smoothed_softmax_rows(narrow, smoothing)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, smoothed_softmax_rows(narrow.astype(np.float64),
                                                                 smoothing))


class TestShiftedExp:
    """The scorer's one-dtype arithmetic gives the bits, the memory order
    and the row sums of the earlier mixed-dtype arithmetic
    (oracles.shifted_exp_mixed)."""

    @pytest.mark.parametrize("smoothing", [0.0, 1.0, 0.3])
    @pytest.mark.parametrize("layout", ["contiguous", "gathered"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pads", [False, True], ids=["finite", "pads"])
    def test_bitwise_equal_to_mixed_dtype_reference(self, smoothing, layout, dtype, pads):
        rng = np.random.default_rng(11)
        slab = (rng.standard_normal((4, 24, 90)) * 8.0).astype(dtype)
        if pads:
            # -inf pads, as the reconstruction error lays them out; every
            # row keeps a finite entry.
            slab[..., 1:][rng.random(slab[..., 1:].shape) < 0.3] = -np.inf
        ids = np.sort(rng.choice(90, 57, replace=False))
        logits = slab if layout == "contiguous" else slab[:, 5:, ids]
        got, got_denom = _shifted_exp(logits, smoothing)
        want, want_denom = oracles.shifted_exp_mixed(logits, smoothing)
        assert got.dtype == got_denom.dtype == np.float64
        assert got.strides == want.strides
        assert got.tobytes() == want.tobytes()
        assert got_denom.tobytes() == want_denom.tobytes()


class TestSharpening:
    def test_subset_softmax_never_smaller(self):
        """Dropping tokens concentrates the remaining mass: the denominator
        shrinks while the kept numerators stay put."""
        rng = np.random.default_rng(42)
        for _ in range(300):
            cols = rng.integers(2, 16)
            logits = rng.normal(0, 4, size=cols)
            kept = np.flatnonzero(rng.random(cols) < 0.6)
            if kept.size == 0 or kept.size == cols:
                continue
            full = softmax_rows(logits[None, :])[0]
            subset = softmax_rows(logits[None, kept])[0]
            pruned_mass = full.sum() - full[kept].sum()
            for rank, j in enumerate(kept):
                assert subset[rank] >= full[j]
                if pruned_mass > 1e-12:
                    assert subset[rank] > full[j]

    def test_smoothness_recovery(self):
        """Setting the constant to the dropped exponential mass restores the
        full-softmax weights of the kept tokens."""
        rng = np.random.default_rng(42)
        for _ in range(300):
            cols = rng.integers(2, 16)
            logits = rng.normal(0, 4, size=cols)
            kept = np.flatnonzero(rng.random(cols) < 0.6)
            if kept.size == 0:
                continue
            shifted = logits - logits.max()
            dropped = np.setdiff1d(np.arange(cols), kept)
            n = float(np.exp(shifted[dropped]).sum())
            full = softmax_rows(logits[None, :])[0]
            recovered = smoothed_softmax_rows(shifted[None, kept], n)[0]
            np.testing.assert_allclose(recovered, full[kept], atol=1e-9)


class TestHeadAverage:
    def test_identical_heads_unchanged(self):
        rng = np.random.default_rng(42)
        head = rng.random((3, 4))
        out = head_average(np.stack([head, head]))
        np.testing.assert_allclose(out, head)

    def test_two_head_symmetry(self):
        out = head_average(np.array([[[0.0, 1.0]], [[1.0, 0.0]]]))
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_matches_accumulation_oracle(self):
        rng = np.random.default_rng(42)
        stack = rng.random((4, 2, 3))
        out = head_average(stack)
        for r in range(2):
            for c in range(3):
                expected = sum(stack[h, r, c] for h in range(4)) / 4.0
                assert abs(out[r, c] - expected) < 1e-12

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            head_average(np.zeros((0, 2, 3)))


class TestTrimObservation:
    def test_slicing(self):
        m = np.arange(12.0).reshape(3, 4)
        out = trim_observation(m, obs_window=2, recent=1)
        np.testing.assert_allclose(out, m[1:, :3])

    def test_obs_larger_than_rows_keeps_all(self):
        m = np.arange(12.0).reshape(3, 4)
        out = trim_observation(m, obs_window=10, recent=0)
        np.testing.assert_allclose(out, m)

    def test_zero_recent_keeps_all_columns(self):
        m = np.arange(12.0).reshape(3, 4)
        assert trim_observation(m, obs_window=3, recent=0).shape == (3, 4)

    def test_recent_swallowing_everything_rejected(self):
        m = np.arange(12.0).reshape(3, 4)
        with pytest.raises(ValueError, match="recent"):
            trim_observation(m, obs_window=2, recent=4)

    def test_numpy_counts_act_as_ints(self):
        """uint8 counts past 255 columns slice as ints do, where uint8
        index arithmetic would overflow."""
        m = np.arange(600.0).reshape(2, 300)
        out = trim_observation(m, np.uint8(1), np.uint8(1))
        assert out.tobytes() == m[1:, :299].tobytes()
