"""Tests for density estimation, divergence scoring, and layer reports."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from kvprune.core import PruneConfig
from kvprune.diagnostics import (
    BANDWIDTH_FLOOR,
    CHUNK_FLOATS,
    KERNEL_CUTOFF,
    MAX_BINS,
    DensityCurve,
    DivergenceReport,
    check_options,
    js_divergence,
    kde,
    layer_report,
    modality_weight_samples,
    silverman_bandwidth,
)
from kvprune.simulator import SynthSpec, record_trace
from kvprune.traceio import AttentionTrace, TraceStep

# Two-bin hand case: p mass [1, 0], q mass [1/2, 1/2], midpoint [3/4, 1/4];
# KL(p||m) = ln(4/3) and KL(q||m) = (1/2) ln(4/3), so JS = (3/4) ln(4/3).
TWO_BIN_JS = 0.75 * math.log(4.0 / 3.0)


class TestKde:
    def test_single_sample_peak(self):
        """One sample with h=1 is a unit Gaussian; an odd grid lands a
        point exactly on the sample, where the density is 1/sqrt(2 pi)."""
        curve = kde([0.0], bandwidth=1.0, grid_points=513)
        assert curve.grid[256] == 0.0
        np.testing.assert_allclose(curve.density[256], 1.0 / math.sqrt(2.0 * math.pi),
                                   atol=1e-12)

    def test_mass_near_one(self):
        rng = np.random.default_rng(42)
        curve = kde(rng.standard_normal(300), bandwidth=0.4)
        assert abs(curve.mass - 1.0) < 0.01

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(7)
        samples = rng.standard_normal(200)
        curve = kde(samples, bandwidth=0.37)
        expected = oracles.kde_probe(samples.tolist(), 0.37, curve.grid.tolist())
        np.testing.assert_allclose(curve.density, expected, atol=1e-9)

    def test_symmetric_samples_give_symmetric_density(self):
        curve = kde([-1.0, 1.0], bandwidth=0.5, grid_points=513)
        np.testing.assert_allclose(curve.density, curve.density[::-1], atol=1e-12)

    def test_grid_spans_four_bandwidths(self):
        curve = kde([2.0, 3.0], bandwidth=0.25)
        assert curve.grid[0] == 2.0 - 1.0
        assert curve.grid[-1] == 3.0 + 1.0

    def test_silverman_default(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal(100)
        curve = kde(samples)
        assert curve.bandwidth == silverman_bandwidth(samples)

    def test_silverman_formula(self):
        rng = np.random.default_rng(11)
        samples = rng.standard_normal(50)
        std = np.std(samples, ddof=1)
        iqr = np.subtract(*np.percentile(samples, [75.0, 25.0]))
        expected = 1.06 * min(std, iqr / 1.34) * 50 ** -0.2
        np.testing.assert_allclose(silverman_bandwidth(samples), expected, rtol=1e-12)

    def test_silverman_formula_at_two_samples(self):
        """Two samples are the fewest with a sample standard deviation."""
        samples = np.array([0.0, 1.0])
        expected = 1.06 * min(math.sqrt(0.5), 0.5 / 1.34) * 2 ** -0.2
        np.testing.assert_allclose(silverman_bandwidth(samples), expected, rtol=1e-12)

    def test_sample_range_overflowing_the_grid(self):
        with pytest.raises(ValueError, match="overflows the grid"):
            kde([-1e308, 1e308], bandwidth=1.0)

    def test_silverman_floor_on_degenerate_samples(self):
        assert silverman_bandwidth(np.array([5.0])) == BANDWIDTH_FLOOR
        assert silverman_bandwidth(np.array([2.0, 2.0, 2.0])) == BANDWIDTH_FLOOR

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_bandwidth(self, bandwidth):
        with pytest.raises(ValueError, match="bandwidth"):
            kde([1.0, 2.0], bandwidth=bandwidth)

    @pytest.mark.parametrize("bandwidth", [5e-324, 1e-310, 1e308, 2e307])
    def test_overflowing_bandwidth(self, bandwidth):
        """Finite and positive, but 1e308 and 2e307 overflow the
        10-bandwidth reach, and 5e-324 and 1e-310 overflow the reciprocal:
        a named error, not a ZeroDivisionError or a curve of NaN and inf."""
        with pytest.raises(ValueError, match=re.escape(f"bandwidth {bandwidth!r}")):
            kde([1.0, 2.0], bandwidth=bandwidth)

    def test_bandwidth_far_finer_than_the_grid(self):
        """0.3 lies on no grid point, so its window holds a point about
        1e297 bandwidths out, whose z * z overflows: that weight is
        exactly 0, with no overflow warning (an error in this suite)."""
        curve = kde([0.0, 0.3, 1.0], bandwidth=1e-300)
        assert curve.grid[-1] == 1.0
        assert curve.density[-1] == 1.0 / (3 * 1e-300 * math.sqrt(2.0 * math.pi))
        assert not curve.density[1:-1].any()

    def test_empty_samples(self):
        with pytest.raises(ValueError, match="empty"):
            kde([])

    def test_nonfinite_samples(self):
        with pytest.raises(ValueError, match="non-finite"):
            kde([1.0, np.nan])

    def test_too_few_grid_points(self):
        with pytest.raises(ValueError, match="grid_points"):
            kde([1.0], bandwidth=1.0, grid_points=1)


@st.composite
def kde_cases(draw):
    """(samples, bandwidth or None, grid_points) for kde against the dense sum.

    Mostly a tight cluster with far outliers on both sides: the grid step
    is then coarse against h, so windows are narrower than the grid, and
    the outliers sit on both grid edges, where the top windows are clamped.
    One sample and all-equal samples (h at the floor) ride along, and h is
    either Silverman's or explicit.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["cluster", "cluster", "single", "equal"]))
    center = draw(st.floats(-1e3, 1e3))
    if kind == "single":
        samples = np.array([center])
    elif kind == "equal":
        samples = np.full(draw(st.integers(2, 20)), center)
    else:
        cluster = rng.normal(center, draw(st.floats(1e-3, 1.0)), size=draw(st.integers(16, 400)))
        far = draw(st.floats(20.0, 1e4))
        low = center - rng.uniform(far, 2 * far, size=draw(st.integers(1, 2)))
        high = center + rng.uniform(far, 2 * far, size=draw(st.integers(1, 2)))
        samples = rng.permutation(np.concatenate([cluster, low, high]))
    bandwidth = draw(st.none() | st.floats(1e-3, 10.0))
    grid_points = draw(st.sampled_from([2, 3, 512]) | st.integers(2, 1024))
    return samples, bandwidth, grid_points


class TestWindowedKde:
    """kde sums each sample over a window of grid points; the dense oracle
    sums it over all of them."""

    @staticmethod
    def check(samples, bandwidth, grid_points=512):
        curve = kde(samples, bandwidth=bandwidth, grid_points=grid_points)
        grid, dense = oracles.kde_dense(samples, curve.bandwidth, grid_points)
        np.testing.assert_array_equal(curve.grid, grid)
        assert (curve.density >= 0.0).all()
        np.testing.assert_allclose(curve.density, dense, rtol=0, atol=1e-12 * dense.max())
        return curve

    @given(kde_cases())
    def test_matches_dense_sum(self, case):
        self.check(*case)

    def test_narrow_window_matches_dense(self):
        rng = np.random.default_rng(5)
        samples = np.concatenate([rng.standard_normal(2000), [-60.0, 60.0]])
        curve = self.check(samples, None)
        step = curve.grid[1] - curve.grid[0]
        assert 8 < 2 * KERNEL_CUTOFF * curve.bandwidth / step < 64

    @given(kde_cases(), st.integers(0, 2**32 - 1))
    def test_sample_order_does_not_matter(self, case, seed):
        """Samples are sorted before summing, so any permutation gives the
        same grid and the same density bits (well within 1e-12 x peak)."""
        samples, bandwidth, grid_points = case
        curve = kde(samples, bandwidth=bandwidth, grid_points=grid_points)
        shuffled = np.random.default_rng(seed).permutation(samples)
        other = kde(shuffled, bandwidth=bandwidth, grid_points=grid_points)
        np.testing.assert_array_equal(other.grid, curve.grid)
        np.testing.assert_array_equal(other.density, curve.density)

    def test_many_chunks_match_dense(self):
        """Thousands of samples over a narrow window: many chunks, and
        start cells that straddle chunk boundaries."""
        rng = np.random.default_rng(17)
        samples = np.concatenate([rng.standard_normal(20000), [-40.0, 40.0]])
        curve = self.check(samples, None)
        step = curve.grid[1] - curve.grid[0]
        width = 2 * KERNEL_CUTOFF * curve.bandwidth / step + 2
        assert samples.size > 10 * CHUNK_FLOATS / width

    def test_samples_far_from_zero(self):
        """A narrow range far from 0 spans a finite grid, though the
        product of its ends overflows."""
        self.check(np.array([1e200, 1.5e200]), 1e199)

    def test_window_wider_than_a_chunk(self):
        """A window of more than CHUNK_FLOATS grid points is summed one
        sample per chunk."""
        curve = self.check(np.array([0.0, 1.0]), 100.0, CHUNK_FLOATS + 1)
        assert curve.grid.size == CHUNK_FLOATS + 1

    def test_equal_samples_fill_one_cell(self):
        """All-equal samples put h at the floor and the whole grid in every
        window: one start cell holding many chunks of samples."""
        samples = np.full(1000, 0.3)
        curve = self.check(samples, None)
        assert curve.bandwidth == BANDWIDTH_FLOOR
        assert samples.size > 10 * (CHUNK_FLOATS // curve.grid.size)

    def test_memory_stays_bounded(self):
        """Beyond O(n) arrays a few times the input, no temporary grows with
        n: 50000 equal samples (w = 512) stay far below 8 MiB, where an
        n x w table would take 195 MiB."""
        samples = np.full(50000, 0.3)
        tracemalloc.start()
        try:
            kde(samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_window_spans_whole_grid(self):
        """A bandwidth wide against the sample range (range <= 6h) makes
        every window the whole grid."""
        rng = np.random.default_rng(23)
        samples = rng.uniform(0.0, 1.0, 300)
        curve = self.check(samples, 10.0)
        assert KERNEL_CUTOFF * curve.bandwidth >= curve.grid[-1] - curve.grid[0]


class TestDensityCurve:
    def test_mass_is_trapezoidal(self):
        curve = DensityCurve(grid=[0.0, 1.0, 2.0], density=[0.0, 1.0, 0.0],
                             bandwidth=1.0)
        assert curve.mass == 1.0

    def test_grid_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            DensityCurve(grid=[1.0, 0.0], density=[0.5, 0.5], bandwidth=1.0)

    @pytest.mark.parametrize("grid", [[0.0, 0.0], [0.0, -0.5]], ids=["repeated", "descending"])
    def test_grid_must_ascend_strictly(self, grid):
        with pytest.raises(ValueError, match="ascending"):
            DensityCurve(grid=grid, density=[0.5, 0.5], bandwidth=1.0)

    @pytest.mark.parametrize("bandwidth", [0.0, -0.5])
    def test_bandwidth_must_be_positive(self, bandwidth):
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            DensityCurve(grid=[0.0, 1.0], density=[0.5, 0.5], bandwidth=bandwidth)

    def test_density_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DensityCurve(grid=[0.0, 1.0], density=[0.5, -0.1], bandwidth=1.0)

    @pytest.mark.parametrize("grid, density", [
        ([0.0, 1.0], [0.5, float("nan")]),
        ([0.0, 1.0], [0.5, float("inf")]),
        ([0.0, float("inf")], [0.5, 0.5]),
        ([float("nan"), 1.0], [0.5, 0.5]),
    ], ids=["nan-density", "inf-density", "inf-grid", "nan-grid"])
    def test_must_be_finite(self, grid, density):
        with pytest.raises(ValueError, match="finite"):
            DensityCurve(grid=grid, density=density, bandwidth=1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="equally long"):
            DensityCurve(grid=[0.0, 1.0], density=[1.0], bandwidth=1.0)


class TestJsDivergence:
    def test_identical_samples_give_zero(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(100)
        assert abs(js_divergence(x, x)) <= 1e-12

    def test_disjoint_samples_saturate_at_ln2(self):
        """Each side fills a bin the other leaves empty, where 0 * log 0
        counts as 0: exactly ln 2, with no smoothing to pull it down."""
        assert js_divergence(np.zeros(5), np.ones(5)) == math.log(2.0)
        assert js_divergence([0.0], [1.0], bins=2) == math.log(2.0)

    @given(samples=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
           copies=st.integers(1, 5), bins=st.integers(2, 70))
    def test_same_histogram_in_other_counts_is_zero(self, samples, copies, bins):
        """Samples repeated k times fill the same normalized histogram, so
        their divergence from the originals is exactly 0."""
        assert js_divergence(samples, samples * copies, bins=bins) == 0.0

    def test_two_bin_hand_value(self):
        p = [0.0, 0.0]
        q = [0.0, 1.0]
        np.testing.assert_allclose(js_divergence(p, q, bins=2), TWO_BIN_JS, atol=1e-6)
        np.testing.assert_allclose(
            js_divergence(p, q, bins=2), oracles.js_from_samples(p, q, 2), atol=1e-12
        )

    def test_matches_bookkeeping_oracle(self):
        rng = np.random.default_rng(5)
        p = rng.normal(0.0, 1.0, 300)
        q = rng.normal(0.8, 1.0, 300)
        expected = oracles.js_from_samples(p.tolist(), q.tolist(), 64)
        np.testing.assert_allclose(js_divergence(p, q), expected, atol=1e-12)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(9)
        p = rng.normal(0.0, 1.0, 80)
        q = rng.normal(0.5, 2.0, 80)
        assert js_divergence(p, q) == js_divergence(q, p)

    def test_bounds_over_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = rng.normal(rng.uniform(-2, 2), rng.uniform(0.1, 2.0), 40)
            q = rng.normal(rng.uniform(-2, 2), rng.uniform(0.1, 2.0), 40)
            value = js_divergence(p, q)
            assert 0.0 <= value <= math.log(2.0) + 1e-12

    def test_equal_point_masses(self):
        """Degenerate samples share one bin after range widening, whatever
        their counts, so their divergence is exactly 0."""
        assert js_divergence([1.0, 1.0], [1.0]) == 0.0

    def test_bad_bins(self):
        with pytest.raises(ValueError, match="bins"):
            js_divergence([0.0], [1.0], bins=1)

    @pytest.mark.parametrize("bins", [MAX_BINS + 1, 2**50, 10**400],
                             ids=["max-plus-1", "2**50", "401-digits"])
    def test_bins_above_ceiling(self, bins):
        """A bin count past MAX_BINS is rejected before any histogram is
        allocated."""
        with pytest.raises(ValueError, match="bins"):
            js_divergence([0.0], [1.0], bins=bins)

    def test_bins_at_ceiling(self):
        value = js_divergence([0.0], [1.0], bins=MAX_BINS)
        assert 0.0 <= value <= math.log(2.0) + 1e-12

    def test_empty_side(self):
        with pytest.raises(ValueError, match="empty"):
            js_divergence([], [1.0])


class TestCheckOptions:
    """check_options refuses each option of layer_report with the message
    of the function that owns it, and needs no trace: layer_report refuses
    the option before it touches the trace, here None."""

    @pytest.mark.parametrize("options, owner", [
        ({"bins": 1}, lambda: js_divergence([0.0], [1.0], bins=1)),
        ({"bins": MAX_BINS + 1}, lambda: js_divergence([0.0], [1.0], bins=MAX_BINS + 1)),
        ({"bandwidth": math.nan}, lambda: kde([0.0], bandwidth=math.nan)),
        ({"bandwidth": 1e-310}, lambda: kde([0.0], bandwidth=1e-310)),
        ({"bandwidth": 2e307}, lambda: kde([0.0], bandwidth=2e307)),
        ({"obs_window": 0}, lambda: modality_weight_samples(two_layer_trace(1.0), obs_window=0)),
        ({"recent": -1}, lambda: modality_weight_samples(two_layer_trace(1.0), recent=-1)),
    ], ids=["bins-1", "bins-ceiling", "bandwidth-nan",
            "bandwidth-reciprocal", "bandwidth-reach", "obs-0", "recent-negative"])
    def test_refuses_as_the_owner_refuses(self, options, owner):
        with pytest.raises(ValueError) as refused:
            owner()
        message = f"^{re.escape(str(refused.value))}$"
        with pytest.raises(ValueError, match=message):
            check_options(**options)
        with pytest.raises(ValueError, match=message):
            layer_report(None, **options)

    def test_bins_ceiling_is_two_to_the_twentieth(self):
        """README documents the ceiling as 2^20."""
        check_options(bins=2**20)
        with pytest.raises(ValueError, match="^bins must be at most 1048576, got 1048577$"):
            check_options(bins=2**20 + 1)

    def test_takes_the_defaults_and_the_limits(self):
        check_options()
        check_options(bins=MAX_BINS, bandwidth=1e307, obs_window=1, recent=0)
        check_options(bandwidth=1e-308)


class TestDivergenceReport:
    def test_values_in_order(self):
        report = DivergenceReport(per_layer=[(0, 0.1), (1, 0.3)], bins=64)
        assert report.values() == [0.1, 0.3]

    def test_accepts_both_bounds(self):
        """An exact divergence reaches 0 for equal histograms and ln 2 for
        disjoint ones; a report takes both."""
        report = DivergenceReport(per_layer=[(0, 0.0), (1, math.log(2.0))], bins=64)
        assert report.values() == [0.0, math.log(2.0)]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            DivergenceReport(per_layer=[(0, 0.8)], bins=64)


def two_layer_trace(shift: float, steps: int = 2) -> AttentionTrace:
    spec = SynthSpec(seed=3, text_len=8, visual_len=8, layers=2, heads=2,
                     head_dim=8, steps=steps, shift=shift)
    return record_trace(spec, obs_window=4)


def assert_same_pools(got, want):
    """Each layer's (intra, inter) pools hold the same float64 bits in the
    same order."""
    assert len(got) == len(want)
    for (got_intra, got_inter), (want_intra, want_inter) in zip(got, want):
        assert got_intra.dtype == got_inter.dtype == np.float64
        assert got_intra.tobytes() == want_intra.tobytes()
        assert got_inter.tobytes() == want_inter.tobytes()


@st.composite
def weight_sample_cases(draw):
    """(trace, obs_window, recent): a random tag layout over 1-3 steps of
    1-2 added tokens each, 1-4 rows a step, float32 logits; obs_window None
    or 1-6, so below, at or above a step's rows; recent from 0 to one less
    than the first step's key count."""
    layers, heads = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prefill = draw(st.lists(st.integers(0, 1), min_size=1, max_size=8))
    length = len(prefill)
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        new_tags = draw(st.lists(st.integers(0, 1), max_size=2))
        length += len(new_tags)
        rows = draw(st.integers(1, min(4, length)))
        blocks = rng.normal(scale=3.0, size=(layers, heads, rows, length)).astype(np.float32)
        steps.append(TraceStep(new_tags=new_tags, blocks=blocks))
    trace = AttentionTrace(layers=layers, heads=heads, head_dim=4, prefill_tags=prefill,
                           steps=steps)
    first_keys = steps[0].blocks.shape[3]
    obs_window = draw(st.none() | st.integers(1, 6))
    return trace, obs_window, draw(st.integers(0, first_keys - 1))


class TestModalityWeightSamples:
    def test_sample_counts(self):
        """Every step contributes window x keys entries per head, split
        exhaustively between the intra and inter pools."""
        trace = two_layer_trace(shift=1.0)
        samples = modality_weight_samples(trace)
        assert len(samples) == 2
        expected = sum(4 * length * 2 for length in (16, 17, 18))
        for intra, inter in samples:
            assert intra.size + inter.size == expected

    def test_recent_trimming(self):
        trace = two_layer_trace(shift=1.0)
        samples = modality_weight_samples(trace, recent=4)
        expected = sum(4 * (length - 4) * 2 for length in (16, 17, 18))
        intra, inter = samples[0]
        assert intra.size + inter.size == expected

    def test_obs_window_override(self):
        trace = two_layer_trace(shift=1.0)
        samples = modality_weight_samples(trace, obs_window=1)
        expected = sum(1 * length * 2 for length in (16, 17, 18))
        intra, inter = samples[1]
        assert intra.size + inter.size == expected

    def test_samples_are_probabilities(self):
        trace = two_layer_trace(shift=2.0)
        for intra, inter in modality_weight_samples(trace):
            for pool in (intra, inter):
                assert (pool >= 0.0).all() and (pool <= 1.0).all()

    def test_negative_recent(self):
        with pytest.raises(ValueError, match="recent"):
            modality_weight_samples(two_layer_trace(1.0), recent=-1)

    def test_recent_consuming_all_keys(self):
        with pytest.raises(ValueError, match="leaves no keys"):
            modality_weight_samples(two_layer_trace(1.0), recent=16)

    def test_trace_without_steps(self):
        """A trace of a prefill alone has nothing to sample, for the
        samples and for the report built from them."""
        trace = AttentionTrace(layers=1, heads=1, head_dim=4, prefill_tags=[0, 1, 0])
        for analysis in (modality_weight_samples, layer_report):
            with pytest.raises(ValueError, match="^the trace has no steps to sample$"):
                analysis(trace)

    @pytest.mark.parametrize("interleave", ["block", "alternating", "random"])
    @pytest.mark.parametrize("obs_window, recent", [(None, 0), (2, 3), (9, 1)])
    def test_matches_checked_public_functions(self, interleave, obs_window, recent):
        """Bit for bit and in order the pools a plain loop over each
        (layer, head) block, weighed in float64 by the checked softmax,
        gives."""
        spec = SynthSpec(seed=4, text_len=6, visual_len=5, interleave=interleave, layers=2,
                         heads=3, head_dim=8, steps=3, shift=1.0)
        trace = record_trace(spec, obs_window=4)
        got = modality_weight_samples(trace, obs_window=obs_window, recent=recent)
        want = oracles.modality_weight_pools(trace, obs_window=obs_window, recent=recent)
        assert_same_pools(got, want)

    @given(weight_sample_cases())
    def test_matches_the_loop_on_any_layout(self, case):
        """Any tag layout, row counts per step, a window below, at or above
        them, and any recent that leaves every step a key."""
        trace, obs_window, recent = case
        got = modality_weight_samples(trace, obs_window=obs_window, recent=recent)
        want = oracles.modality_weight_pools(trace, obs_window=obs_window, recent=recent)
        assert_same_pools(got, want)

    def test_numpy_counts_equal_int_counts(self):
        """A uint8 window and recent count act as ints do, past length 255
        too, where uint8 index arithmetic would overflow."""
        trace = record_trace(SynthSpec(text_len=140, visual_len=140, layers=1, heads=1,
                                       head_dim=4, steps=1), 4)
        want = modality_weight_samples(trace, obs_window=4, recent=1)
        got = modality_weight_samples(trace, obs_window=np.uint8(4), recent=np.uint8(1))
        assert_same_pools(got, want)

    @pytest.mark.parametrize("edit, kwargs, match", [
        ("nan", {}, "step 1 layer 1 head 0: non-finite logit nan"),
        ("tag", {}, "modality tags must be 0 .* got 2"),
        (None, {"obs_window": 0}, "obs_window must be an integer >= 1, got 0"),
        ("cols", {}, "step 1 blocks cover 16 keys but 17 tokens exist"),
        ("layers", {}, "step 1 has 1x2 blocks, header says 2x2"),
    ])
    def test_refusals(self, edit, kwargs, match):
        """A trace edited in memory is refused, as is an empty window."""
        trace = two_layer_trace(1.0)
        if edit == "nan":
            trace.steps[1].blocks[1, 0, 2, 5] = np.nan
        elif edit == "tag":
            trace.steps[1].new_tags = np.array([2], dtype=np.uint8)
        elif edit == "cols":
            trace.steps[1].blocks = trace.steps[1].blocks[..., :-1]
        elif edit == "layers":
            trace.steps[1].blocks = trace.steps[1].blocks[:1]
        with pytest.raises(ValueError, match=match):
            modality_weight_samples(trace, **kwargs)


class TestLayerReport:
    def test_structure(self):
        report = layer_report(two_layer_trace(shift=2.0))
        assert report.layers == 2
        assert [layer for layer, _ in report.divergence.per_layer] == [0, 1]
        for value in report.divergence.values():
            assert 0.0 <= value <= math.log(2.0)
        for intra_curve, inter_curve in report.curves:
            assert abs(intra_curve.mass - 1.0) < 0.05
            assert abs(inter_curve.mass - 1.0) < 0.05

    def test_shift_widens_divergence(self):
        """Depressing cross-modality logits pushes the intra and inter
        weight distributions apart on every layer."""
        flat = layer_report(two_layer_trace(shift=0.0)).divergence.values()
        shifted = layer_report(two_layer_trace(shift=2.0)).divergence.values()
        for low, high in zip(flat, shifted):
            assert high > low

    def test_defaults_sample_every_key(self):
        """By default every key is sampled (recent=0) from every row."""
        trace = two_layer_trace(shift=2.0)
        assert layer_report(trace).divergence.per_layer == layer_report(
            trace, bins=64, bandwidth=None, obs_window=None, recent=0).divergence.per_layer

    @staticmethod
    def one_row_trace(prefill_tags):
        """One step of one row, the last prefill token, over every key."""
        return AttentionTrace(
            layers=1, heads=1, head_dim=4, prefill_tags=np.array(prefill_tags, dtype=np.uint8),
            steps=[TraceStep(new_tags=np.zeros(0, dtype=np.uint8),
                             blocks=np.zeros((1, 1, 1, len(prefill_tags)), dtype=np.float32))],
        )

    @pytest.mark.parametrize("prefill_tags", [[0, 0, 0, 1], [0, 1, 1, 1]],
                             ids=["one-intra", "one-inter"])
    def test_pool_of_one_weight_is_enough(self, prefill_tags):
        """Equal logits give every weight 1/4, so the pools hold one value."""
        report = layer_report(self.one_row_trace(prefill_tags))
        assert report.divergence.values() == [0.0]

    def test_empty_intra_pool_rejected(self):
        """The newest key is the query's own; once recent drops it, a
        visual query over text keys has no intra weights."""
        with pytest.raises(ValueError, match="^layer 0 has an empty modality pairing"):
            layer_report(self.one_row_trace([0, 0, 0, 1]), recent=1)

    def test_single_modality_trace_rejected(self):
        blocks = np.zeros((1, 1, 2, 4), dtype=np.float32)
        trace = AttentionTrace(
            layers=1, heads=1, head_dim=4,
            prefill_tags=np.zeros(4, dtype=np.uint8),
            steps=[TraceStep(new_tags=np.zeros(0, dtype=np.uint8), blocks=blocks)],
        )
        with pytest.raises(ValueError, match="modality pairing"):
            layer_report(trace)
