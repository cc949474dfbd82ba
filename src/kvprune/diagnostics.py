"""Distribution diagnostics for attention weights.

These answer the question that motivates modality-split eviction in the
first place: do intra-modality and inter-modality attention weights actually
live on different distributions? `layer_report` pulls both sample sets out
of a recorded trace, smooths each into a density curve, and scores the gap
per layer with a Jensen-Shannon divergence (natural log, so the maximum is
ln 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import as_count, as_real
from .scoring import _smoothed_softmax_rows
from .traceio import AttentionTrace, checked

DEFAULT_BINS = 64
# Ceiling on histogram bins: far above any useful resolution, and two
# histograms of it stay a few MiB.
MAX_BINS = 2**20
GRID_POINTS = 512
BANDWIDTH_FLOOR = 1e-6
KERNEL_CUTOFF = 10.0
# Values per chunk of kernel rows in kde: 256 KiB of float64, cache sized.
CHUNK_FLOATS = 2**15


@dataclass(frozen=True)
class DensityCurve:
    """Gaussian-kernel density estimate on a fixed grid."""

    grid: np.ndarray
    density: np.ndarray
    bandwidth: float

    def __post_init__(self):
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=np.float64))
        object.__setattr__(self, "density", np.asarray(self.density, dtype=np.float64))
        if self.grid.ndim != 1 or self.grid.shape != self.density.shape:
            raise ValueError("grid and density must be 1-D and equally long")
        if not (np.isfinite(self.grid).all() and np.isfinite(self.density).all()):
            raise ValueError("grid and density must be finite")
        if not (np.diff(self.grid) > 0).all():
            raise ValueError("grid must be strictly ascending")
        if (self.density < 0).any():
            raise ValueError("density values must be nonnegative")
        if not self.bandwidth > 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")

    @property
    def mass(self) -> float:
        """Trapezoidal integral over the grid; close to 1 on a wide grid."""
        return float(np.trapezoid(self.density, self.grid))


@dataclass(frozen=True)
class DivergenceReport:
    per_layer: list
    bins: int

    def __post_init__(self):
        for layer, value in self.per_layer:
            if not 0.0 <= value <= np.log(2.0) + 1e-12:
                raise ValueError(f"layer {layer}: divergence {value} outside [0, ln 2]")

    def values(self) -> list:
        return [value for _, value in self.per_layer]


def _clean_samples(samples, name: str) -> np.ndarray:
    out = np.asarray(samples, dtype=np.float64).ravel()
    if out.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite values")
    return out


def _checked_bins(bins) -> int:
    bins = as_count(bins, "bins", 2)
    if bins > MAX_BINS:
        raise ValueError(f"bins must be at most {MAX_BINS}, got {bins}")
    return bins


def _checked_bandwidth(bandwidth) -> float:
    # kde divides by the bandwidth and reaches KERNEL_CUTOFF bandwidths out;
    # either overflowing would leave it no finite curve.
    h = as_real(bandwidth)
    if not 0 < h < math.inf:
        raise ValueError(f"bandwidth must be finite and positive, got {bandwidth}")
    if not (1 / h < math.inf and KERNEL_CUTOFF * h < math.inf):
        raise ValueError(f"bandwidth {h!r} overflows its reciprocal or the kernel reach")
    return h


def _checked_window(obs_window, recent) -> tuple[int | None, int]:
    recent = as_count(recent, "recent")
    if obs_window is not None:
        obs_window = as_count(obs_window, "obs_window", 1)
    return obs_window, recent


def check_options(bins=DEFAULT_BINS, bandwidth=None, obs_window=None, recent=0) -> None:
    """ValueError, with its owner's message, for the first option of
    layer_report that its owner refuses: bins (js_divergence), bandwidth
    (kde), obs_window and recent (modality_weight_samples). Needs no
    trace, so a caller can refuse options before reading one."""
    _checked_bins(bins)
    if bandwidth is not None:
        _checked_bandwidth(bandwidth)
    _checked_window(obs_window, recent)


def silverman_bandwidth(samples: np.ndarray) -> float:
    """1.06 * min(std, IQR/1.34) * n^(-1/5), floored to stay usable on
    degenerate samples (single point, all-equal)."""
    n = samples.size
    std = float(np.std(samples, ddof=1)) if n > 1 else 0.0
    q75, q25 = np.percentile(samples, [75.0, 25.0])
    scale = min(std, (q75 - q25) / 1.34)
    return max(1.06 * scale * n ** (-0.2), BANDWIDTH_FLOOR)


def kde(samples, bandwidth: float | None = None, grid_points: int = GRID_POINTS) -> DensityCurve:
    """Gaussian kernel density estimate.

    The grid spans [min - 4h, max + 4h] so essentially all kernel mass lies
    inside it; with bandwidth=None, Silverman's rule picks h.

    Each sample is summed only over a window of w consecutive grid points
    holding every point within KERNEL_CUTOFF = 10 bandwidths of it; w is
    the largest such count over the samples, and windows that would run
    off the top of the grid start early instead. A term left out has
    |z| > 10, so it is below exp(-50) ~ 1.9e-22 of one kernel's peak: the
    result matches direct summation over the whole grid to rounding, it is
    not a binned approximation. The cost is O(n * w) kernel evaluations
    instead of O(n * grid_points); w reaches grid_points only when h is
    wide against the sample range (range below about 12h).

    The samples are sorted first, so windows sharing a start grid point
    (a cell) are adjacent: each chunk of samples sums its kernel rows per
    cell, the cell sums accumulate in a (grid_points - w + 1, w) table,
    and one scatter adds the table's used rows onto the grid. Sorting also
    makes the curve independent of sample order. Memory beyond the O(n)
    sorted copy and window starts is one chunk of about CHUNK_FLOATS
    values and the cell table, at most grid_points**2 / 4 values (512 KiB
    at the default grid), whatever n is.
    """
    samples = np.sort(_clean_samples(samples, "samples"))
    h = silverman_bandwidth(samples) if bandwidth is None else _checked_bandwidth(bandwidth)
    grid_points = as_count(grid_points, "grid_points", 2)

    # Python floats, so an overflow here is an inf to test, not a warning.
    lo, hi = float(samples[0]) - 4 * h, float(samples[-1]) + 4 * h
    reach = KERNEL_CUTOFF * h
    norm = 1.0 / (samples.size * h * math.sqrt(2.0 * math.pi))
    if not (math.isfinite(hi - lo) and math.isfinite(reach) and math.isfinite(norm)):
        raise ValueError(f"bandwidth {h!r} overflows the grid, the kernel reach or the density")
    grid = np.linspace(lo, hi, grid_points)
    starts = np.searchsorted(grid, samples - reach)
    # Measured on the grid itself, so float spacing cannot drop a point.
    width = int((np.searchsorted(grid, samples + reach, side="right") - starts).max())
    starts = np.minimum(starts, grid_points - width)
    windows = np.lib.stride_tricks.sliding_window_view(grid, width)
    # heads marks the first sample of each cell, then also of each chunk:
    # the rows that open a run reduceat sums.
    heads = np.concatenate(([True], starts[1:] != starts[:-1]))
    used = starts[heads]
    chunk = max(1, CHUNK_FLOATS // width)
    heads[::chunk] = True
    cells = np.zeros(windows.shape)
    # A bandwidth far finer than the grid spacing can leave a window's
    # points so many bandwidths out that z overflows to inf; its kernel
    # weight exp(-inf) = 0 is then exact, so the overflow is no fault.
    with np.errstate(over="ignore"):
        for first in range(0, samples.size, chunk):
            cell = starts[first : first + chunk]
            # z = (grid - sample) / h, then exp(-z^2 / 2), all in one buffer.
            z = windows[cell]
            z -= samples[first : first + chunk, None]
            z /= h
            z *= z
            z *= -0.5
            np.exp(z, out=z)
            runs = np.flatnonzero(heads[first : first + chunk])
            cells[cell[runs]] += np.add.reduceat(z, runs, axis=0)
    targets = (used[:, None] + np.arange(width)).ravel()
    density = np.bincount(targets, cells[used].ravel(), minlength=grid_points)
    density *= norm
    if not np.isfinite(density).all():
        raise ValueError(f"bandwidth {h!r} overflows the density")
    return DensityCurve(grid=grid, density=density, bandwidth=h)


def js_divergence(p_samples, q_samples, bins: int = DEFAULT_BINS) -> float:
    """Jensen-Shannon divergence between two sample sets.

    Both sets are histogrammed on their joint range and normalized by
    their sample counts. The divergence uses the natural log and takes
    0 * log 0 as 0, so it needs no smoothing: it is 0 for equal
    histograms, ln 2 for disjoint ones and between them otherwise.
    Exactly symmetric in its arguments.
    """
    p = _clean_samples(p_samples, "p_samples")
    q = _clean_samples(q_samples, "q_samples")
    bins = _checked_bins(bins)

    # np.histogram widens an empty range (lo == hi) by 0.5 each way.
    lo = min(p.min(), q.min())
    hi = max(p.max(), q.max())
    p_hist = np.histogram(p, bins=bins, range=(lo, hi))[0] / p.size
    q_hist = np.histogram(q, bins=bins, range=(lo, hi))[0] / q.size
    mid = 0.5 * (p_hist + q_hist)
    return 0.5 * _kl(p_hist, mid) + 0.5 * _kl(q_hist, mid)


def _kl(dist: np.ndarray, mid: np.ndarray) -> float:
    """KL(dist || mid) over the bins dist fills; mid is positive there."""
    filled = dist > 0
    return float(np.sum(dist[filled] * np.log(dist[filled] / mid[filled])))


@dataclass(frozen=True)
class LayerReport:
    """Per-layer intra/inter weight distributions and their divergence."""

    divergence: DivergenceReport
    curves: list  # one (intra DensityCurve, inter DensityCurve) per layer

    @property
    def layers(self) -> int:
        return len(self.curves)


def modality_weight_samples(
    trace: AttentionTrace,
    obs_window: int | None = None,
    recent: int = 0,
) -> list:
    """Per layer, collect (intra, inter) attention-weight samples.

    Every recorded step contributes: each head's logit block becomes a
    plain softmax weight matrix, trimmed to the last obs_window query rows
    (all of them by default) and to all but the newest `recent` key
    columns. An entry is intra when its query and key share a modality and
    inter otherwise. Each pool of a layer lists its entries by step, then
    head, then row-major over (window row, key).

    The trace is read through traceio.checked, which checks it once.
    One softmax kernel call then weighs the window rows of every layer and
    head straight from the float32 logits; the recent keys stay in its
    denominator, and are sliced off after. One same-modality mask over
    (window row, key) splits the result. A trace with no steps has
    nothing to sample, which is a ValueError.
    """
    obs_window, recent = _checked_window(obs_window, recent)
    trace = checked(trace)
    full_tags = trace.full_tags
    intra: list[np.ndarray] = []
    inter: list[np.ndarray] = []
    length = trace.prefill_tags.size
    for step in trace.steps:
        length += step.new_tags.size
        rows = step.blocks.shape[2]
        window = rows if obs_window is None else min(obs_window, rows)
        cols = length - recent
        if cols < 1:
            raise ValueError(f"recent={recent} leaves no keys at length {length}")
        same = full_tags[length - window : length, None] == full_tags[None, :cols]
        weights = _smoothed_softmax_rows(step.blocks[:, :, rows - window :], 0.0)[..., :cols]
        intra.append(weights[..., same])
        inter.append(weights[..., ~same])
    if not intra:
        raise ValueError("the trace has no steps to sample")
    return [
        (
            np.concatenate([pool[layer].ravel() for pool in intra]),
            np.concatenate([pool[layer].ravel() for pool in inter]),
        )
        for layer in range(trace.layers)
    ]


def layer_report(
    trace: AttentionTrace,
    bins: int = DEFAULT_BINS,
    bandwidth: float | None = None,
    obs_window: int | None = None,
    recent: int = 0,
) -> LayerReport:
    """Divergence and density curves per layer of a trace.

    Refuses bad options (check_options) before it reads the trace. Needs
    both modalities present among the sampled pairs; a single-modality
    trace has no inter samples to compare.
    """
    check_options(bins, bandwidth, obs_window, recent)
    samples = modality_weight_samples(trace, obs_window=obs_window, recent=recent)
    per_layer = []
    curves = []
    for layer, (intra, inter) in enumerate(samples):
        if intra.size == 0 or inter.size == 0:
            raise ValueError(
                f"layer {layer} has an empty modality pairing; diagnostics need "
                "both intra- and inter-modality weights"
            )
        per_layer.append((layer, js_divergence(intra, inter, bins=bins)))
        curves.append((kde(intra, bandwidth=bandwidth), kde(inter, bandwidth=bandwidth)))
    return LayerReport(
        divergence=DivergenceReport(per_layer=per_layer, bins=bins),
        curves=curves,
    )
