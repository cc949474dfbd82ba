"""Acceptance gate: one test per release criterion.

Each test states its tolerance and, where one applies, enforces its runtime
budget. Run with -v to get one pass/fail line per criterion.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from kvprune.core import PruneConfig, TEXT, VISUAL, as_tags
from kvprune.decompose import cross_self_importance
from kvprune.diagnostics import js_divergence, layer_report
from kvprune.policies import csp_step, global_topk_step
from kvprune.reports import results_csv, steps_csv, summarize
from kvprune.scoring import (
    head_average,
    smoothed_softmax_rows,
    softmax_rows,
    trim_observation,
)
from kvprune.selection import topk_mask
from kvprune.simulator import (
    SynthSpec,
    budget_for_fraction,
    record_trace,
    run_decode,
)
from kvprune.traceio import (
    BadMagicError,
    TraceError,
    TruncatedTraceError,
    read_trace,
    write_trace,
)

GOLDEN = Path(__file__).parent / "data" / "modality_balance_golden.json"


class Stopwatch:
    def __init__(self, limit_s: float):
        self.limit_s = limit_s
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit_s, f"took {elapsed:.2f}s, limit {self.limit_s}s"


def test_criterion_01_smoothed_softmax_correctness():
    """n=0 equals plain softmax to 1e-9; n=1 row sums are strictly below 1;
    n set to the pruned tokens' shifted exponential mass reproduces the
    full-softmax weights of the kept tokens to 1e-9. 1,000 rows, < 1 s."""
    watch = Stopwatch(1.0)
    rng = np.random.default_rng(42)

    logits = rng.normal(0.0, 3.0, size=(1000, 64))
    np.testing.assert_allclose(
        smoothed_softmax_rows(logits, 0.0), softmax_rows(logits), atol=1e-9
    )
    assert (smoothed_softmax_rows(logits, 1.0).sum(axis=1) < 1.0).all()

    for _ in range(1000):
        length = int(rng.integers(3, 65))
        row = rng.normal(0.0, 3.0, length)
        kept = np.sort(rng.choice(length, size=int(rng.integers(1, length)),
                                  replace=False))
        dropped = np.setdiff1d(np.arange(length), kept)
        shifted = row - row.max()
        n = float(np.exp(shifted[dropped]).sum())
        recovered = smoothed_softmax_rows(shifted[kept][None, :], n)[0]
        full = softmax_rows(row[None, :])[0]
        np.testing.assert_allclose(recovered, full[kept], atol=1e-9)
    watch.check()


def test_criterion_02_sharpening_inequality():
    """Renormalizing over a subset never lowers a kept token's weight, and
    raises it strictly whenever the pruned mass exceeds 1e-12. 1,000 pairs,
    < 1 s."""
    watch = Stopwatch(1.0)
    rng = np.random.default_rng(42)
    strict_seen = 0
    for _ in range(1000):
        length = int(rng.integers(3, 65))
        row = rng.normal(0.0, 3.0, length)
        kept = np.sort(rng.choice(length, size=int(rng.integers(1, length)),
                                  replace=False))
        full = softmax_rows(row[None, :])[0]
        subset = softmax_rows(row[None, kept])[0]
        pruned_mass = 1.0 - full[kept].sum()
        if pruned_mass > 1e-12:
            assert (subset > full[kept]).all()
            strict_seen += 1
        else:
            np.testing.assert_allclose(subset, full[kept], atol=1e-12)
    assert strict_seen > 900
    watch.check()


def test_criterion_03_decomposition_conservation():
    """intra + inter reproduces the plain column sums to 1e-9 across random,
    alternating, and single-modality tag patterns. 1,000 matrices, < 1 s."""
    watch = Stopwatch(1.0)
    rng = np.random.default_rng(42)

    def pattern(kind: str, size: int) -> np.ndarray:
        if kind == "random":
            return as_tags(rng.integers(0, 2, size))
        if kind == "alternating":
            return as_tags(np.arange(size) % 2)
        return as_tags(np.full(size, TEXT if kind == "text" else VISUAL))

    kinds = ("random", "alternating", "text", "visual")
    for case in range(1000):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 49))
        weights = softmax_rows(rng.normal(0.0, 2.0, size=(rows, cols)))
        scores = cross_self_importance(
            weights,
            pattern(kinds[case % 4], rows),
            pattern(kinds[(case // 4) % 4], cols),
        )
        np.testing.assert_allclose(
            scores.intra + scores.inter, weights.sum(axis=0), atol=1e-9
        )
    watch.check()


def test_criterion_04_topk_matches_full_sort_oracle():
    """topk_mask equals a full sort with ties broken toward the smaller
    index, over 10,000 random vectors of length <= 64. < 5 s."""
    watch = Stopwatch(5.0)
    rng = np.random.default_rng(42)
    for case in range(10000):
        length = int(rng.integers(1, 65))
        if case % 2:
            scores = rng.integers(0, 6, length).astype(np.float64)
        else:
            scores = rng.normal(0.0, 1.0, length)
        k = int(rng.integers(0, length + 2))
        expected = sorted(oracles.topk_indices(scores.tolist(), k))
        np.testing.assert_array_equal(topk_mask(scores, k), expected)
    watch.check()


def test_criterion_05_mask_algebra():
    """The kept candidates are a subset of both per-modality top-k sets; the
    kept positions are those candidates in ascending order followed by the
    whole recent window, so the pruned cache length is |candidates| +
    recent. 300 random policy steps."""
    rng = np.random.default_rng(42)
    for _ in range(300):
        length = int(rng.integers(10, 61))
        recent = int(rng.integers(0, 5))
        budget = int(rng.integers(recent + 2, length + 1))
        cfg = PruneConfig(
            budget=budget,
            recent=recent,
            obs_window=int(rng.integers(1, 9)),
            cross_ratio=float(rng.uniform(0.0, 1.0)),
            smoothing=float(rng.choice([0.0, 1.0])),
        )
        heads = int(rng.integers(1, 3))
        rng.normal(size=(2, length, 4))  # keep the random stream, and so the 300 steps, fixed
        key_tags = as_tags(rng.integers(0, 2, length))
        logits = rng.normal(0.0, 2.0, size=(heads, int(rng.integers(1, 9)), length))
        query_tags = as_tags(rng.integers(0, 2, logits.shape[1]))

        keep, decision, _ = csp_step(key_tags, logits, query_tags, cfg)
        assert decision.pruned
        cand = length - recent
        mask = keep[: keep.size - recent]

        weights = np.stack(
            [smoothed_softmax_rows(head, cfg.smoothing) for head in logits]
        )
        trimmed = trim_observation(head_average(weights), cfg.obs_window, recent)
        scores = cross_self_importance(
            trimmed, query_tags[-trimmed.shape[0]:], key_tags[:cand]
        )
        k_intra, k_inter = decision.ks_used
        self_mask = set(topk_mask(scores.intra, k_intra or cand))
        cross_mask = set(topk_mask(scores.inter, k_inter or cand))
        chosen = set(mask.tolist())
        assert chosen <= self_mask and chosen <= cross_mask

        assert keep.size == decision.achieved_occupancy == len(mask) + recent
        assert np.all(np.diff(mask) > 0) and np.all((mask >= 0) & (mask < cand))
        np.testing.assert_array_equal(keep[len(mask):], np.arange(cand, length))


def test_criterion_06_modality_balance_matches_golden():
    """On the pinned text-dominant instance (shift 2.0, 64/64 prefill,
    budget 25%, ratio 0.5), cross-self retains at least twice the visual
    tokens that the global ranking keeps, and both policies reproduce the
    frozen golden counts exactly. < 10 s."""
    watch = Stopwatch(10.0)
    golden = json.loads(GOLDEN.read_text())
    spec = SynthSpec(**golden["spec"])
    cfg = PruneConfig(
        budget=golden["budget"],
        recent=golden["recent"],
        obs_window=golden["obs_window"],
        cross_ratio=golden["cross_ratio"],
        smoothing=golden["smoothing"],
        widen_to_budget=golden["widen_to_budget"],
    )
    assert golden["budget"] == budget_for_fraction(
        golden["budget_fraction"], spec.final_len, golden["recent"]
    )

    runs = {
        "csp": run_decode(spec, "csp", cfg),
        "global_topk": run_decode(spec, "global-topk", cfg),
    }
    for name, report in runs.items():
        text, visual = report.retained_counts
        assert text == golden[name]["text_retained"]
        assert visual == golden[name]["visual_retained"]
        np.testing.assert_array_equal(report.retained_ids[0],
                                      golden[name]["retained_ids"])

    csp_visual = runs["csp"].retained_counts[1]
    topk_visual = runs["global_topk"].retained_counts[1]
    assert csp_visual >= 2 * topk_visual and csp_visual > 0
    watch.check()


def test_criterion_07_budget_sweep_monotonicity():
    """On a fixed seed, mean reconstruction error never increases as the
    budget grows through {10, 20, 30, 60, 100}%, and final cache bytes are
    linear in achieved occupancy within 2% once the recent-window constant
    is subtracted. < 30 s."""
    watch = Stopwatch(30.0)
    spec = SynthSpec(seed=7, text_len=64, visual_len=64, interleave="block",
                     layers=1, heads=2, head_dim=16, steps=8, shift=2.0)
    recent = 8
    recon, slopes = [], []
    recent_bytes = spec.layers * recent * 2 * spec.head_dim * 4
    for fraction in (0.1, 0.2, 0.3, 0.6, 1.0):
        cfg = PruneConfig(
            budget=budget_for_fraction(fraction, spec.final_len, recent),
            recent=recent, obs_window=80, cross_ratio=0.5, smoothing=0.0,
            widen_to_budget=True,
        )
        report = run_decode(spec, "csp", cfg)
        recon.append(float(np.mean(report.recon_error)))
        occupancy = float(np.mean([ids.size for ids in report.retained_ids]))
        slopes.append((report.bytes_cached[-1] - recent_bytes) / (occupancy - recent))

    for tighter, looser in zip(recon[1:], recon[:-1]):
        assert tighter <= looser + 1e-12
    center = float(np.mean(slopes))
    assert all(abs(slope - center) / center <= 0.02 for slope in slopes)
    watch.check()


def test_criterion_08_divergence_diagnostics():
    """js(p, p) = 0 within 1e-9; disjoint supports reach ln 2 within 1e-6;
    a shift-0 trace keeps every layer's divergence below 0.02 while shift
    2.0 pushes every layer above 0.2; all KDE curves integrate to 1 within
    5%. < 10 s."""
    watch = Stopwatch(10.0)
    rng = np.random.default_rng(42)
    x = rng.standard_normal(500)
    assert abs(js_divergence(x, x)) <= 1e-9
    np.testing.assert_allclose(
        js_divergence(np.zeros(5), np.ones(5)), np.log(2.0), atol=1e-6
    )

    def divergences(shift: float):
        spec = SynthSpec(seed=7, text_len=64, visual_len=64, interleave="block",
                         layers=2, heads=2, head_dim=16, steps=8, shift=shift)
        return layer_report(record_trace(spec, 80))

    flat = divergences(0.0)
    shifted = divergences(2.0)
    assert all(value < 0.02 for value in flat.divergence.values())
    assert all(value > 0.2 for value in shifted.divergence.values())
    for report in (flat, shifted):
        for intra_curve, inter_curve in report.curves:
            assert abs(intra_curve.mass - 1.0) <= 0.05
            assert abs(inter_curve.mass - 1.0) <= 0.05
    watch.check()


def test_criterion_09_determinism_and_format(tmp_path):
    """Identical seed and config produce byte-identical CSVs; a trace
    survives a write/read round trip losslessly; corrupted magic and
    truncation fail with distinct error types."""
    spec = SynthSpec(seed=11, text_len=12, visual_len=12, layers=2, heads=2,
                     head_dim=8, steps=4, shift=2.0)
    cfg = PruneConfig(budget=16, recent=4, obs_window=6, cross_ratio=0.5,
                      smoothing=1.0, widen_to_budget=True)

    def emit() -> str:
        report = run_decode(spec, "csp", cfg)
        return results_csv([summarize(report)]) + steps_csv(report)

    assert emit().encode() == emit().encode()

    trace = record_trace(spec, cfg.obs_window)
    path = tmp_path / "round.trace"
    write_trace(trace, path)
    loaded = read_trace(path)
    assert (loaded.layers, loaded.heads, loaded.head_dim) == (2, 2, 8)
    np.testing.assert_array_equal(loaded.prefill_tags, trace.prefill_tags)
    assert len(loaded.steps) == len(trace.steps)
    for ours, theirs in zip(trace.steps, loaded.steps):
        np.testing.assert_array_equal(ours.new_tags, theirs.new_tags)
        np.testing.assert_array_equal(ours.blocks, theirs.blocks)

    raw = path.read_bytes()
    bad_magic = tmp_path / "magic.trace"
    bad_magic.write_bytes(b"XSPT" + raw[4:])
    with pytest.raises(BadMagicError):
        read_trace(bad_magic)
    truncated = tmp_path / "short.trace"
    truncated.write_bytes(raw[: len(raw) - 7])
    with pytest.raises(TruncatedTraceError):
        read_trace(truncated)
    assert BadMagicError is not TruncatedTraceError
    assert issubclass(BadMagicError, TraceError)
    assert issubclass(TruncatedTraceError, TraceError)


def test_criterion_10_degenerate_equivalence():
    """When intra and inter scores coincide (every query row appears once
    per modality) and the pool splits evenly, cross-self pruning retains
    exactly the global top-k set (pool width 1). 1,000 instances."""
    rng = np.random.default_rng(42)
    for _ in range(1000):
        pairs = int(rng.integers(2, 7))
        cand = int(rng.integers(8, 25))
        recent = int(rng.integers(0, 4))
        length = cand + recent
        pool = int(rng.integers(1, cand + 1))
        heads = int(rng.integers(1, 3))

        cfg = PruneConfig(
            budget=recent + pool, recent=recent, obs_window=2 * pairs,
            cross_ratio=0.5, smoothing=0.0, widen_to_budget=True, pool_width=1,
        )
        rng.normal(size=(2, length, 4))  # keep the random stream, and so the 1,000 instances, fixed
        key_tags = as_tags(rng.integers(0, 2, length))
        physical = rng.normal(0.0, 2.0, size=(heads, pairs, length))
        logits = np.repeat(physical, 2, axis=1)
        query_tags = as_tags(np.tile([TEXT, VISUAL], pairs))

        csp_keep, csp_decision, _ = csp_step(key_tags, logits, query_tags, cfg)
        topk_keep, topk_decision, _ = global_topk_step(key_tags, logits, query_tags, cfg)
        assert csp_decision.pruned and topk_decision.pruned
        np.testing.assert_array_equal(
            csp_keep[: csp_keep.size - recent],
            topk_keep[: topk_keep.size - recent],
        )
