"""Tests for the synthetic decoder, the decode loop, and sweeps."""

import collections
import dataclasses
import math
import re
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kvprune import core, policies, selection, simulator
from kvprune.core import PruneConfig, TEXT, VISUAL
from kvprune.simulator import (
    SWEEP_AXES,
    SynthSpec,
    SyntheticDecoder,
    budget_for_fraction,
    prefill_tags,
    record_trace,
    run_decode,
    run_decodes,
    sweep,
)
from kvprune.traceio import AttentionTrace, TraceStep

import oracles


SMALL = SynthSpec(seed=5, text_len=12, visual_len=12, layers=2, heads=2,
                  head_dim=8, steps=6, shift=2.0)


def wrap_kernel(monkeypatch, policy, wrapper):
    """Rebind the kernel run_decode calls for a policy, as named by its
    Policy.kernel, to wrapper(kernel)."""
    name = policies.POLICIES[policy].kernel
    monkeypatch.setattr(policies, name, wrapper(getattr(policies, name)))


def record_keeps(monkeypatch, policy):
    """Wrap the kernel run_decode calls for a policy; the returned list
    collects the keep array of every call, in call order."""
    keeps = []

    def wrapper(kernel):
        def recorded(*args, **kwargs):
            keep, decision, state = kernel(*args, **kwargs)
            keeps.append(keep)
            return keep, decision, state
        return recorded

    wrap_kernel(monkeypatch, policy, wrapper)
    return keeps


def record_outputs(monkeypatch):
    """Wrap simulator._outputs, which computes both sides of the
    reconstruction error; the returned list collects (kept, steps,
    smoothing, outputs) for every call, in call order."""
    calls = []
    original = simulator._outputs

    def recorded(logits, values, kept, steps, smoothing):
        calls.append((kept, steps, smoothing, original(logits, values, kept, steps, smoothing)))
        return calls[-1][-1]

    monkeypatch.setattr(simulator, "_outputs", recorded)
    return calls


def keeps_every_key(call, spec):
    """Whether an _outputs call is the unpruned side: every step of spec
    keeping every live key under smoothing 0."""
    kept, steps, smoothing, _ = call
    lengths = spec.prefill_len + np.arange(spec.steps + 1)
    return (smoothing == 0.0 and np.array_equal(steps, np.arange(spec.steps + 1))
            and all(np.array_equal(kept[step], np.arange(n)) for step, n in enumerate(lengths)))


class TestSynthSpec:
    def test_lengths(self):
        assert SMALL.prefill_len == 24
        assert SMALL.final_len == 30

    @pytest.mark.parametrize("field, value", [
        ("text_len", 0),
        ("visual_len", -1),
        ("interleave", "shuffled"),
        ("layers", 0),
        ("heads", 0),
        ("head_dim", 0),
        ("steps", -1),
        ("spread", 0.0),
        ("spread", float("inf")),
        ("shift", float("inf")),
        ("shift", float("nan")),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            SynthSpec(**{field: value})

    def test_numpy_fields_become_python_numbers(self):
        """uint8 lengths past 255 in total act as ints do: the final length
        does not wrap and a run equals the run of the int spec."""
        sizes = dict(layers=1, heads=1, head_dim=4)
        spec = SynthSpec(text_len=np.uint8(200), visual_len=np.uint8(200), steps=np.uint8(1),
                         shift=np.float32(2.0), spread=np.float32(1.5), **sizes)
        plain = SynthSpec(text_len=200, visual_len=200, steps=1, shift=2.0, spread=1.5, **sizes)
        assert spec.final_len == 401
        for field in dataclasses.fields(SynthSpec):
            value = getattr(spec, field.name)
            assert type(value) is type(getattr(plain, field.name)), field.name
            assert value == getattr(plain, field.name)
        cfg = PruneConfig(budget=100, recent=8, obs_window=8)
        got, want = run_decode(spec, "csp", cfg), run_decode(plain, "csp", cfg)
        assert got.per_step == want.per_step
        assert got.recon_error == want.recon_error


class TestPrefillTags:
    def test_block_layout(self):
        spec = SynthSpec(text_len=2, visual_len=3, interleave="block")
        np.testing.assert_array_equal(prefill_tags(spec), [1, 1, 1, 0, 0])

    def test_alternating_layout(self):
        spec = SynthSpec(text_len=2, visual_len=3, interleave="alternating")
        np.testing.assert_array_equal(prefill_tags(spec), [1, 0, 1, 0, 1])

    def test_random_layout_preserves_counts(self):
        spec = SynthSpec(text_len=10, visual_len=6, interleave="random", seed=3)
        tags = prefill_tags(spec)
        assert (tags == TEXT).sum() == 10
        assert (tags == VISUAL).sum() == 6

    def test_random_layout_is_seeded(self):
        spec = SynthSpec(text_len=10, visual_len=6, interleave="random", seed=3)
        np.testing.assert_array_equal(prefill_tags(spec), prefill_tags(spec))


class TestSyntheticDecoder:
    def test_deterministic_for_a_seed(self):
        a, b = SyntheticDecoder(SMALL), SyntheticDecoder(SMALL)
        ids = np.arange(SMALL.prefill_len)
        np.testing.assert_array_equal(
            a.logit_block(0, ids[:4], ids), b.logit_block(0, ids[:4], ids)
        )
        np.testing.assert_array_equal(a.values(1, ids), b.values(1, ids))

    def test_seeds_differ(self):
        other = SynthSpec(**{**SMALL.__dict__, "seed": 6})
        ids = np.arange(4)
        a = SyntheticDecoder(SMALL).logit_block(0, ids, ids)
        b = SyntheticDecoder(other).logit_block(0, ids, ids)
        assert not np.allclose(a, b)

    def test_shift_depresses_cross_modality_only(self):
        """Same seed, shift 0 vs 2: same-modality logits agree and
        cross-modality logits drop by exactly the shift."""
        flat = SynthSpec(**{**SMALL.__dict__, "shift": 0.0})
        ids = np.arange(SMALL.prefill_len)
        a = SyntheticDecoder(flat)
        b = SyntheticDecoder(SMALL)
        la, lb = a.logit_block(0, ids, ids), b.logit_block(0, ids, ids)
        cross = (a.full_tags[ids][:, None] != a.full_tags[ids][None, :])
        np.testing.assert_allclose(la[:, ~cross], lb[:, ~cross], atol=1e-4)
        np.testing.assert_allclose((la - lb)[:, cross], 2.0, atol=1e-4)

    def test_spread_scales_scores(self):
        base = SynthSpec(**{**SMALL.__dict__, "shift": 0.0, "spread": 1.0})
        wide = SynthSpec(**{**SMALL.__dict__, "shift": 0.0, "spread": 2.0})
        ids = np.arange(6)
        a = SyntheticDecoder(base).logit_block(1, ids, ids)
        b = SyntheticDecoder(wide).logit_block(1, ids, ids)
        np.testing.assert_allclose(b, 2.0 * a, atol=1e-4)

    @pytest.mark.parametrize("field, value", [("spread", 1e300), ("shift", 1e39),
                                              ("spread", 1e308)])
    def test_logits_beyond_float32_refused(self, field, value):
        """Logits that float32 cannot hold are refused before the cast, naming
        spread and shift, and no overflow warning escapes."""
        decoder = SyntheticDecoder(SynthSpec(**{**SMALL.__dict__, field: value}))
        ids = np.arange(6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"spread .* and shift .* not finite in float32"):
                decoder.logit_block(0, ids, ids)

    def test_decode_tail_is_text(self):
        decoder = SyntheticDecoder(SMALL)
        np.testing.assert_array_equal(decoder.full_tags[-SMALL.steps:], [TEXT] * 6)

    def test_steps_structure(self):
        decoder = SyntheticDecoder(SMALL)
        steps = list(decoder.steps(obs_window=4))
        assert len(steps) == SMALL.steps + 1
        assert all(isinstance(step, TraceStep) for step in steps)
        assert all(step.blocks.dtype == np.float32 for step in steps)
        assert steps[0].new_tags.size == 0
        assert steps[0].blocks.shape == (2, 2, 4, 24)
        np.testing.assert_array_equal(steps[1].new_tags, [TEXT])
        assert steps[1].blocks.shape == (2, 2, 4, 25)

    def test_step_blocks_are_read_only(self):
        """Steps are views of one slab that later steps and runs share."""
        step = next(SyntheticDecoder(SMALL).steps(obs_window=4))
        with pytest.raises(ValueError, match="read-only"):
            step.blocks[0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize("obs_window", [0, -3, 2.5, np.uint8(3)],
                             ids=["zero", "negative", "fraction", "uint8"])
    def test_window_checked_on_entry(self, obs_window):
        """steps refuses a window that is not an integer >= 1 when called,
        with record_trace's message, and takes a numpy integer as the
        Python int it equals, even where the prefill is longer than the
        integer's dtype can hold."""
        sizes = dict(steps=2, layers=1, heads=1, head_dim=4)
        if isinstance(obs_window, np.integer):
            spec = SynthSpec(text_len=200, visual_len=200, **sizes)
            fresh = SyntheticDecoder(spec).steps(int(obs_window))
            _assert_steps_bitwise(list(SyntheticDecoder(spec).steps(obs_window)),
                                  [(step.new_tags.size, step.blocks) for step in fresh])
        else:
            decoder = SyntheticDecoder(SynthSpec(text_len=4, visual_len=4, **sizes))
            with pytest.raises(ValueError, match=r"obs_window must be an integer >= 1, got "
                                                 + re.escape(repr(obs_window))):
                decoder.steps(obs_window)


def _assert_steps_bitwise(steps, expected):
    """TraceSteps against (added, blocks) pairs, float32 bits compared."""
    assert len(steps) == len(expected)
    for step, (added, blocks) in zip(steps, expected):
        np.testing.assert_array_equal(step.new_tags, [TEXT] * added)
        assert step.blocks.shape == blocks.shape
        np.testing.assert_array_equal(step.blocks.view(np.uint32), blocks.view(np.uint32))


SPECS = st.builds(
    SynthSpec,
    seed=st.integers(0, 2**16),
    text_len=st.integers(1, 10),
    visual_len=st.integers(1, 10),
    interleave=st.sampled_from(["block", "alternating", "random"]),
    layers=st.integers(1, 3),
    heads=st.integers(1, 3),
    head_dim=st.integers(1, 8),
    steps=st.integers(0, 6),
    shift=st.floats(-4.0, 4.0),
    spread=st.floats(0.1, 4.0),
)


class TestStepsOracle:
    """decoder.steps against tests/oracles.py's per-step logit_block path,
    bit for bit. Each logit is one dot product over head_dim, rounded to
    float32 once, so the identity holds as long as the BLAS computes that
    dot product the same way whatever block it sits in. That was measured
    with one numpy and OpenBLAS build only: on another build, a failure
    here points at the BLAS first."""

    @given(spec=SPECS, obs_window=st.integers(1, 30))
    def test_steps_equal_per_step_blocks(self, spec, obs_window):
        decoder = SyntheticDecoder(spec)
        _assert_steps_bitwise(
            list(decoder.steps(obs_window)),
            oracles.per_step_logit_blocks(SyntheticDecoder(spec), obs_window),
        )

    def test_repeated_steps_equal_a_fresh_decoder(self):
        """One decoder asked for windows 2, 6 and 2 yields what a fresh
        decoder yields each time."""
        decoder = SyntheticDecoder(SMALL)
        for obs_window in (2, 6, 2):
            fresh = SyntheticDecoder(SMALL).steps(obs_window)
            _assert_steps_bitwise(
                list(decoder.steps(obs_window)),
                [(step.new_tags.size, step.blocks) for step in fresh],
            )


class TestBudgetForFraction:
    def test_rounds_to_nearest(self):
        assert budget_for_fraction(0.25, 136, 8) == 34
        assert budget_for_fraction(0.3, 160, 32) == 48

    def test_floor_is_recent_plus_one(self):
        assert budget_for_fraction(0.001, 100, 32) == 33

    def test_full_fraction(self):
        assert budget_for_fraction(1.0, 100, 8) == 100

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="fraction"):
            budget_for_fraction(0.0, 100, 8)

    @pytest.mark.parametrize("fraction", [float("inf"), float("nan"), 1e308])
    def test_non_finite_budget_rejected(self, fraction):
        with pytest.raises(ValueError, match="fraction"):
            budget_for_fraction(fraction, 100, 8)


class TestRunDecode:
    def test_full_policy_reconstructs_exactly(self):
        cfg = PruneConfig(budget=SMALL.final_len + 1, recent=4, obs_window=4)
        report = run_decode(SMALL, "full", cfg)
        assert report.achieved_budget_fraction == 1.0
        assert report.recon_error == [0.0] * (SMALL.steps + 1)
        assert [ids.size for ids in report.retained_ids] == [30, 30]
        assert not any(d.pruned for step in report.per_step for d in step)

    def test_generous_csp_budget_equals_full(self):
        cfg = PruneConfig(budget=SMALL.final_len + 1, recent=4, obs_window=4)
        a = run_decode(SMALL, "csp", cfg)
        b = run_decode(SMALL, "full", cfg)
        for ids_a, ids_b in zip(a.retained_ids, b.retained_ids):
            np.testing.assert_array_equal(ids_a, ids_b)

    def test_bytes_formula(self):
        cfg = PruneConfig(budget=SMALL.final_len + 1, recent=4, obs_window=4)
        report = run_decode(SMALL, "full", cfg)
        for step, total in enumerate(report.bytes_cached):
            length = SMALL.prefill_len + step
            assert total == SMALL.layers * length * 2 * SMALL.head_dim * 4

    def test_pruning_reduces_bytes(self):
        cfg = PruneConfig(budget=12, recent=4, obs_window=4, widen_to_budget=True)
        pruned = run_decode(SMALL, "csp", cfg)
        full = run_decode(SMALL, "full", cfg.with_updates(budget=SMALL.final_len + 1))
        assert pruned.bytes_cached[-1] < full.bytes_cached[-1]
        assert pruned.achieved_budget_fraction < 1.0

    def test_unknown_source_type(self):
        cfg = PruneConfig(budget=8, recent=2, obs_window=2)
        with pytest.raises(TypeError, match="cannot drive"):
            run_decode("no", "csp", cfg)

    def test_layer_keeping_every_key_reads_the_slab(self, monkeypatch):
        """A layer that keeps every key is scored from its logit block as a
        view of the run's read-only slab, not a copy; a pruned layer from a
        gathered copy. A step below budget scores nothing."""
        seen, slabs = [], []
        score, build = policies._mass, SyntheticDecoder.slab

        def recorded(logits, select, smoothing):
            seen.append((logits.shape[-1], logits.flags.writeable,
                         np.shares_memory(logits, slabs[0])))
            return score(logits, select, smoothing)

        def built(self, obs_window):
            slab, start = build(self, obs_window)
            slabs.append(slab)
            return slab, start

        monkeypatch.setattr(policies, "_mass", recorded)
        monkeypatch.setattr(SyntheticDecoder, "slab", built)
        decoder = SyntheticDecoder(SMALL)
        cfg = PruneConfig(budget=27, recent=4, obs_window=4, widen_to_budget=True)
        report = run_decode(decoder, "csp", cfg)
        # Lengths 24, 25 and 26 are below budget. Length 27 keeps all 27
        # keys; length 28 then holds every key again and keeps 27 of them,
        # so steps 5 and 6 score 28 gathered keys.
        assert [step[0].pruned for step in report.per_step] == [False] * 3 + [True] * 4
        assert [step[0].achieved_occupancy for step in report.per_step] == [24, 25, 26] + [27] * 4
        full = [(27, False, True)] * SMALL.layers + [(28, False, True)] * SMALL.layers
        pruned = [(28, True, False)] * (SMALL.layers * 2)
        assert seen == full + pruned
        assert len(slabs) == 1

    def test_a_decoder_keeps_no_state(self):
        """One decoder run at obs 4, then at the whole prefill, then at obs 4
        again reports what a fresh decoder does each time, and after every
        run holds exactly the attributes, as the same objects, that
        __init__ set."""
        decoder = SyntheticDecoder(SMALL)
        initial = dict(vars(decoder))
        for obs_window in (4, SMALL.prefill_len, 4):
            cfg = PruneConfig(budget=14, recent=4, obs_window=obs_window, widen_to_budget=True)
            got = run_decode(decoder, "csp", cfg)
            want = run_decode(SyntheticDecoder(SMALL), "csp", cfg)
            assert got.recon_error == want.recon_error
            assert got.per_step == want.per_step
            for a, b in zip(got.retained_ids, want.retained_ids, strict=True):
                np.testing.assert_array_equal(a, b)
            assert vars(decoder).keys() == initial.keys()
            assert all(vars(decoder)[name] is value for name, value in initial.items())


class TestScriptedTrace:
    """A trace small enough to prune by hand.

    Eight prefill tokens tagged [V,V,V,T,T,T,V,T], budget 6, recent 2,
    observation window 2, ratio 0.5. Every scoring row is a near-one-hot
    (logit 10 against logit -700), so softmax weights, the decomposition
    and both top-2 rankings can all be verified by hand.
    """

    def build(self):
        prefill = np.array([1, 1, 1, 0, 0, 0, 1, 0], dtype=np.uint8)
        cold = -700.0

        def hot_rows(cols, hot_col):
            block = np.full((1, 1, 2, cols), cold, dtype=np.float32)
            block[0, 0, :, hot_col] = 10.0
            return block

        steps = [
            # Prefill observation: queries (tokens 6, 7) both point at key 0.
            TraceStep(new_tags=np.zeros(0, dtype=np.uint8), blocks=hot_rows(8, 0)),
            # Token 8 (visual) arrives; length 5 after the first prune, so
            # this step cannot trigger and its logits are irrelevant.
            TraceStep(new_tags=np.array([1], dtype=np.uint8),
                      blocks=np.zeros((1, 1, 2, 9), dtype=np.float32)),
            # Token 9 (text) arrives; both queries point at key 1.
            TraceStep(new_tags=np.array([0], dtype=np.uint8), blocks=hot_rows(10, 1)),
        ]
        return AttentionTrace(layers=1, heads=1, head_dim=4,
                              prefill_tags=prefill, steps=steps)

    def test_retained_history(self, monkeypatch):
        """First prune: queries 6 and 7 (one per modality) both load key 0,
        so intra and inter agree and the top-2 ties keep keys {0, 1};
        retained [0,1,6,7]. Token 8 appends without a prune. The second
        prune points both queries at key 1 (cache position 1), keeping
        candidates {0, 1} again; final cache [0,1,8,9]."""
        trace = self.build()
        cfg = PruneConfig(budget=6, recent=2, obs_window=2, cross_ratio=0.5,
                          smoothing=0.0)
        keeps = record_keeps(monkeypatch, "csp")
        report = run_decode(trace, "csp", cfg)

        step0, step1, step2 = (step[0] for step in report.per_step)
        keep0, _, keep2 = keeps
        assert step0.pruned
        np.testing.assert_array_equal(keep0[: keep0.size - cfg.recent], [0, 1])
        assert step0.ks_used == (2, 2)
        assert step0.per_modality_retained == (0, 2)
        assert step0.achieved_occupancy == 4

        assert not step1.pruned
        assert step1.achieved_occupancy == 5

        assert step2.pruned
        np.testing.assert_array_equal(keep2[: keep2.size - cfg.recent], [0, 1])

        np.testing.assert_array_equal(report.retained_ids[0], [0, 1, 8, 9])
        np.testing.assert_array_equal(report.retained_tags[0], [1, 1, 1, 0])
        assert report.bytes_cached == [4 * 2 * 4 * 4, 5 * 2 * 4 * 4, 4 * 2 * 4 * 4]
        assert report.recon_error == []
        assert report.achieved_budget_fraction == 0.4


class TestTraceReplay:
    def test_replay_matches_live(self):
        """Recording a trace and replaying it makes the same decisions as
        the live synthetic run for every policy, step by step and layer by
        layer, because logits are materialized at float32 precision in
        both paths."""
        cfg = PruneConfig(budget=14, recent=4, obs_window=6, cross_ratio=0.5,
                          smoothing=1.0, widen_to_budget=True)
        trace = record_trace(SMALL, cfg.obs_window)
        for policy in ("csp", "global-topk", "accum", "full"):
            live = run_decode(SMALL, policy, cfg)
            replay = run_decode(trace, policy, cfg)
            for ids_live, ids_replay in zip(live.retained_ids, replay.retained_ids):
                np.testing.assert_array_equal(ids_live, ids_replay, err_msg=policy)
            assert len(live.per_step) == len(replay.per_step) == SMALL.steps + 1
            for step_live, step_replay in zip(live.per_step, replay.per_step):
                for a, b in zip(step_live, step_replay, strict=True):
                    assert a.achieved_occupancy == b.achieved_occupancy, policy
                    assert a.per_modality_retained == b.per_modality_retained, policy
                    assert a.pruned == b.pruned, policy
            assert live.bytes_cached == replay.bytes_cached, policy
            assert replay.recon_error == []
            assert live.recon_error

    def test_numpy_trace_sizes_act_as_ints(self):
        """A trace built with numpy integer sizes stores Python ints, so its
        bytes_cached is what the same trace built with ints gives, with no
        uint16 wrap-around."""
        recorded = record_trace(SMALL, 4)

        def built(small, wide):
            return AttentionTrace(small(recorded.layers), small(recorded.heads), wide(4000),
                                  recorded.prefill_tags, recorded.steps)

        got, want = built(np.uint8, np.uint16), built(int, int)
        assert [type(got.layers), type(got.heads), type(got.head_dim)] == [int] * 3
        cfg = PruneConfig(budget=14, recent=4, obs_window=4)
        assert run_decode(got, "csp", cfg).bytes_cached == \
            run_decode(want, "csp", cfg).bytes_cached

    def test_record_trace_shapes(self):
        trace = record_trace(SMALL, 4)
        assert trace.final_length == SMALL.final_len
        assert len(trace.steps) == SMALL.steps + 1
        np.testing.assert_array_equal(trace.full_tags[:24], prefill_tags(SMALL))

    def test_recorded_steps_are_independent(self):
        """Each recorded step owns a writable copy of its blocks: editing
        one step leaves every other step as recorded."""
        trace = record_trace(SMALL, 4)
        before = [step.blocks.copy() for step in trace.steps]
        trace.steps[3].blocks[...] = 0.0
        for index, (step, blocks) in enumerate(zip(trace.steps, before)):
            if index != 3:
                np.testing.assert_array_equal(step.blocks, blocks)
        assert not trace.steps[3].blocks.any()

    def test_record_trace_obs_validation(self):
        with pytest.raises(ValueError, match="obs_window"):
            record_trace(SMALL, 0)

    def test_record_trace_numpy_window(self):
        """A uint8 window records what an int window does, past length 255
        too, where uint8 index arithmetic would overflow."""
        spec = SynthSpec(text_len=200, visual_len=200, layers=1, heads=1, head_dim=4, steps=1)
        got, want = record_trace(spec, np.uint8(4)), record_trace(spec, 4)
        assert len(got.steps) == len(want.steps)
        for got_step, want_step in zip(got.steps, want.steps):
            assert got_step.new_tags.tobytes() == want_step.new_tags.tobytes()
            assert got_step.blocks.tobytes() == want_step.blocks.tobytes()


def count_calls(monkeypatch, module, *names):
    """Wrap each named function of module at every binding a kvprune
    module holds of it, the defining one and each import site; the
    returned dict counts calls by name."""
    counts = dict.fromkeys(names, 0)
    bound = [mod for name, mod in sys.modules.items()
             if name == "kvprune" or name.startswith("kvprune.")]
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod in bound:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return counts


class TestChecksOncePerRun:
    """run_decode checks a run's config, options and source once, then
    drives unchecked kernels: a longer decode makes no more checks."""

    CFG = PruneConfig(budget=14, recent=4, obs_window=4, widen_to_budget=True)

    @pytest.mark.parametrize("policy", list(policies.POLICIES))
    def test_check_count_does_not_grow_with_steps(self, policy, monkeypatch):
        counts = []
        for steps in (4, 16):
            spec = SynthSpec(**{**SMALL.__dict__, "steps": steps})
            with monkeypatch.context() as patch:
                calls = count_calls(patch, core, "validate_config", "as_tags")
                run_decode(spec, policy, self.CFG)
            counts.append(calls)
        assert counts[0] == counts[1]
        assert counts[0]["validate_config"] == 1 and counts[0]["as_tags"] >= 1

    @pytest.mark.parametrize("policy", list(policies.POLICIES))
    def test_nan_logit_in_memory_trace(self, policy):
        """read_trace refuses a NaN, but a trace built or edited in memory
        can hold one; every policy's run refuses it, even the full cache,
        whose kernel reads no logit."""
        trace = record_trace(SMALL, self.CFG.obs_window)
        trace.steps[2].blocks[1, 0, -1, 3] = np.nan
        with pytest.raises(ValueError, match="step 2 layer 1 head 0: non-finite logit nan"):
            run_decode(trace, policy, self.CFG)

    @pytest.mark.parametrize("policy", list(policies.POLICIES))
    def test_reassigned_tag_in_memory_trace(self, policy):
        trace = record_trace(SMALL, self.CFG.obs_window)
        trace.steps[2].new_tags = np.array([2], dtype=np.uint8)
        with pytest.raises(ValueError, match="modality tags must be 0 .* got 2"):
            run_decode(trace, policy, self.CFG)

    @pytest.mark.parametrize("policy", list(policies.POLICIES))
    def test_reassigned_blocks_of_another_shape(self, policy):
        """A record whose blocks no longer match the header is refused
        before any kernel sees it."""
        trace = record_trace(SMALL, self.CFG.obs_window)
        trace.steps[2].blocks = trace.steps[2].blocks[:, :1]
        with pytest.raises(ValueError, match="step 2 has 2x1 blocks, header says 2x2"):
            run_decode(trace, policy, self.CFG)

    @pytest.mark.parametrize("policy", list(policies.POLICIES))
    def test_options_checked_before_any_step(self, policy):
        """An unknown keyword is a TypeError, as calling the step with it
        would be, and a bad value a ValueError, even for a trace with no
        step to call a kernel on."""
        empty = AttentionTrace(layers=1, heads=1, head_dim=4, prefill_tags=[0, 1, 0])
        with pytest.raises(TypeError, match="unexpected keyword argument 'width'"):
            run_decode(empty, policy, self.CFG, width=3)
        if policies.POLICIES[policy].options:
            with pytest.raises(ValueError, match="smoothing must be finite and >= 0"):
                run_decode(empty, policy, self.CFG, smoothing=-1.0)

    def test_omitted_options_take_step_defaults(self):
        """A run with no options equals one given the step defaults."""
        for policy in policies.POLICIES:
            defaults = policies.option_defaults(policy)
            bare = run_decode(SMALL, policy, self.CFG)
            explicit = run_decode(SMALL, policy, self.CFG, **defaults)
            assert bare.per_step == explicit.per_step
            assert bare.recon_error == explicit.recon_error


def count_forms(value, integral_floats):
    """value as the integer-like types a library caller might pass: the
    int itself, numpy scalars, a bool or a uint8 where it fits and, with
    integral_floats, integral floats too."""
    forms = [value]
    if abs(value) < 2**53:
        forms.append(np.int64(value))
        if integral_floats:
            forms += [float(value), np.float64(value)]
    if value in (0, 1):
        forms.append(bool(value))
    if 0 <= value < 256:
        forms.append(np.uint8(value))
    return st.sampled_from(forms)


def real_forms(value):
    """value as a float, a numpy float64 and, where they hold it, a numpy
    float32, an int and a bool."""
    forms = [value, np.float64(value)]
    if not abs(value) > float(np.finfo(np.float32).max):
        forms.append(np.float32(value))
    if math.isfinite(value) and value == int(value):
        forms.append(int(value))
    if value in (0.0, 1.0):
        forms.append(bool(value))
    return st.sampled_from(forms)


FLOAT_MAX = float(np.finfo(np.float64).max)


@st.composite
def config_draws(draw):
    """Keyword fields for PruneConfig and options for every policy, valid
    or not: counts of every integer-like type, reals up to the largest
    float, and values out of range. Each field comes from a valid range
    or, one draw in eight, from its extremes, and integral floats appear
    in one example in four, so that about half the configs are accepted."""
    integral_floats = draw(st.integers(0, 3)) == 3

    def pick(values, extremes, forms):
        rare = draw(st.integers(0, 7)) == 7
        return draw((st.sampled_from(extremes) if rare else values).flatmap(forms))

    def count(low, high, *extremes):
        return pick(st.integers(low, high), extremes,
                    lambda value: count_forms(value, integral_floats))

    def real(low, high, *extremes):
        return pick(st.floats(low, high), extremes, real_forms)

    recent = count(0, 12, -1, 24)
    fields = {
        "budget": count(int(recent) + 1, int(recent) + 24, 0, -2, int(recent)),
        "recent": recent,
        "obs_window": count(1, 24, 0, 2**40, 10**400),
        "cross_ratio": real(0.0, 1.0, 0.0, 1.0, 1e-9, 1 - 1e-9, -0.5, 1.5, np.nan),
        "smoothing": real(0.0, 4.0, 0.0, 1e-300, FLOAT_MAX, -1.0, np.inf, np.nan),
        "recency_bias": real(1e-3, 1e6, 1.0, 5e-324, 1e308, FLOAT_MAX / 64, FLOAT_MAX, 0.0,
                             -1.0, np.inf, np.nan),
        "widen_to_budget": draw(st.booleans()),
        "seed": count(0, 2**40, -3),
    }
    options = {
        "pool_width": count(1, 40, 0, -1, 2**40),
        "smoothing": real(0.0, 4.0, 0.0, FLOAT_MAX, -1.0, np.inf, np.nan),
    }
    return fields, options


class TestAcceptedConfigRuns:
    """A config that PruneConfig accepts, with options that a run accepts,
    runs to the end under every policy: no kernel trips over a type or a
    value the checks let through."""

    SPEC = SynthSpec(seed=3, text_len=8, visual_len=8, layers=2, heads=2, head_dim=8,
                     steps=4, shift=2.0)

    @given(config_draws())
    @settings(max_examples=200)
    def test_refused_when_built_or_runs(self, draw):
        fields, options = draw
        try:
            cfg = PruneConfig(**fields)
        except ValueError:
            return
        trace = record_trace(self.SPEC, cfg.obs_window)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for policy in policies.POLICIES:
                taken = {keyword: options[keyword] for keyword in policies.option_defaults(policy)}
                for source in (self.SPEC, trace):
                    try:
                        policies.run_options(policy, taken)
                    except ValueError:
                        with pytest.raises(ValueError):
                            run_decode(source, policy, cfg, **taken)
                        continue
                    try:
                        report = run_decode(source, policy, cfg, **taken)
                    except ValueError as error:
                        # TestEmptyKeptSet's refusal: a live decode that
                        # empties a layer's kept set cannot replay it at
                        # smoothing 0. The trace replay shows the emptying.
                        assert source is self.SPEC, error
                        assert "no columns and smoothing is 0" in str(error)
                        replay = run_decode(trace, policy, cfg, **taken)
                        assert any(decision.achieved_occupancy == 0
                                   for step in replay.per_step for decision in step)
                        continue
                    assert len(report.per_step) == self.SPEC.steps + 1

    def test_overflowing_recency_bias_is_refused_when_built(self):
        """Six text keys and a window of four text queries: key 3's column
        mass is about 4, which a bias of 1e308 would overflow to inf. The
        config is refused before any step; a bias near the largest it
        accepts at that window runs, and widens, without an overflow."""
        logits = np.full((1, 4, 6), -50.0)
        logits[..., 3] = 10.0
        tags = np.zeros(6, dtype=np.uint8)
        with pytest.raises(ValueError, match="recency_bias times obs_window"):
            PruneConfig(budget=5, recent=1, obs_window=4, recency_bias=1e308)
        cfg = PruneConfig(budget=5, recent=1, obs_window=4, recency_bias=FLOAT_MAX / 8,
                          widen_to_budget=True)
        with np.errstate(over="raise"):
            keep, decision, _ = policies.csp_step(tags, logits, tags[:4], cfg)
        assert 3 in keep and decision.pruned


class TestKernelsCallOnlyKernels:
    """The policy kernels reach no checked selection function: run_decodes
    completes with the public selection functions and the score check
    replaced by functions that raise."""

    CFG = PruneConfig(budget=14, recent=4, obs_window=4)

    @pytest.mark.parametrize("widen", [False, True], ids=["plain", "widen"])
    def test_runs_with_checked_selection_disabled(self, widen, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a kernel called a checked selection function")

        for module in (selection, policies):
            for name in ("topk_mask", "cross_self_select", "_checked_scores"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        cfg = self.CFG.with_updates(widen_to_budget=widen)
        runs = [(policy, cfg, {}) for policy in policies.POLICIES]
        for source in (SMALL, record_trace(SMALL, cfg.obs_window)):
            reports = run_decodes(source, runs)
            assert all(any(decision.pruned for step in report.per_step for decision in step)
                       for report in reports if report.policy != "full")


def assert_same_report(got, want):
    """Field by field and bit for bit: arrays by dtype and value, floats by
    their bytes."""
    for field in dataclasses.fields(simulator.RunReport):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name in ("retained_ids", "retained_tags"):
            assert len(a) == len(b)
            for x, y in zip(a, b):
                assert x.dtype == y.dtype
                np.testing.assert_array_equal(x, y)
        elif field.name == "recon_error":
            assert np.array(a, dtype=np.float64).tobytes() == np.array(b).tobytes()
        else:
            assert a == b, field.name


@st.composite
def lockstep_runs(draw):
    """A small decode and one to four runs over it, sharing obs_window and
    recent, with budgets from a short list so runs often hold the same
    keys and share their scoring."""
    spec = SynthSpec(seed=draw(st.integers(0, 3)), text_len=draw(st.integers(3, 10)),
                     visual_len=draw(st.integers(3, 10)),
                     interleave=draw(st.sampled_from(simulator.INTERLEAVE_MODES)),
                     layers=draw(st.integers(1, 2)), heads=draw(st.integers(1, 3)),
                     head_dim=8, steps=draw(st.integers(0, 6)), shift=2.0)
    recent = draw(st.integers(1, 3))
    obs_window = draw(st.integers(1, 6))
    budgets = [recent + 1, spec.prefill_len // 2 + recent, spec.final_len]
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        policy = draw(st.sampled_from(list(policies.POLICIES)))
        cfg = PruneConfig(budget=draw(st.sampled_from(budgets)), recent=recent,
                          obs_window=obs_window,
                          cross_ratio=draw(st.sampled_from([0.0, 0.5, 1.0])),
                          smoothing=draw(st.sampled_from([0.0, 1.0])),
                          widen_to_budget=draw(st.booleans()))
        drawn = {"pool_width": draw(st.integers(1, 3)),
                 "smoothing": draw(st.sampled_from([0.0, 1.0]))}
        runs.append((policy, cfg, {option.keyword: drawn[option.keyword]
                                   for option in policies.POLICIES[policy].options}))
    return spec, runs


class TestRunDecodes:
    """run_decodes steps several runs over one source in lockstep, reading
    the source once and scoring each distinct (keys, smoothing) of a
    layer-step once; each report equals that of the run alone."""

    CFG = PruneConfig(budget=14, recent=4, obs_window=4, widen_to_budget=True)

    @settings(max_examples=60, deadline=None)
    @given(case=lockstep_runs(), kind=st.sampled_from(["spec", "decoder", "trace"]))
    def test_each_report_equals_the_run_alone(self, case, kind):
        spec, runs = case
        if kind == "trace":
            source = record_trace(spec, runs[0][1].obs_window)
        else:
            source = spec if kind == "spec" else SyntheticDecoder(spec)
        reports = run_decodes(source, runs)
        assert len(reports) == len(runs)
        for report, (policy, cfg, options) in zip(reports, runs):
            alone = run_decode(source if kind == "trace" else spec, policy, cfg, **options)
            assert_same_report(report, alone)

    @settings(max_examples=30, deadline=None)
    @given(case=lockstep_runs(), axis=st.sampled_from(SWEEP_AXES),
           grid=st.lists(st.sampled_from([0.0, 0.3, 0.5, 1.0, 2.0]), min_size=1, max_size=4))
    def test_each_sweep_row_equals_the_run_alone(self, case, axis, grid):
        spec, [(policy, cfg, options), *_] = case
        if axis == "budget_fraction":
            grid = [value + 0.1 for value in grid]
        elif axis == "cross_ratio":
            grid = [min(value, 1.0) for value in grid]
        rows = sweep(axis, grid, spec, cfg, policy, **options)
        assert [value for value, _ in rows] == grid
        for _, report in rows:
            assert_same_report(report, run_decode(spec, policy, report.config, **options))

    def test_step_zero_scores_once_per_distinct_smoothing(self, monkeypatch):
        """At step 0 every run holds the whole prefill. csp scores with
        cfg.smoothing (1 by default), global-topk and accum with their
        smoothing option (0 by default), so three runs score each layer
        twice, and the two baselines read the same mass."""
        scored = record_scorings(monkeypatch)
        spec = SynthSpec(**{**SMALL.__dict__, "steps": 0})
        runs = [(policy, self.CFG, {}) for policy in ("csp", "global-topk", "accum")]
        run_decodes(spec, runs)
        assert collections.Counter(smoothing for smoothing, _ in scored) == {
            1.0: spec.layers, 0.0: spec.layers}

    @pytest.mark.parametrize("axis", ["smooth_n", "cross_ratio"])
    def test_global_topk_sweep_scores_once_per_layer_step(self, axis, monkeypatch):
        """global-topk reads neither cfg.smoothing nor cross_ratio, so every
        run of such a sweep holds the same keys at every layer-step and one
        scoring serves them all, whatever the grid size. It scores exactly
        the layer-steps it prunes."""
        scored = record_scorings(monkeypatch)
        counts = []
        for grid in ([0.5], [0.0, 0.25, 0.5, 1.0]):
            scored.clear()
            rows = sweep(axis, grid, SMALL, self.CFG, "global-topk")
            counts.append(len(scored))
            pruned = sum(d.pruned for step in rows[0][1].per_step for d in step)
            assert len(scored) == pruned
        assert counts[0] == counts[1] > 0

    def test_refusals_come_before_any_step(self, monkeypatch):
        """No run, or runs whose obs_window differ, are refused before the
        source yields a step."""
        def unread(self, obs_window):
            raise AssertionError("steps read")

        monkeypatch.setattr(SyntheticDecoder, "steps", unread)
        with pytest.raises(ValueError, match="needs at least one run"):
            run_decodes(SMALL, [])
        wide = self.CFG.with_updates(obs_window=6)
        with pytest.raises(ValueError, match=r"must share obs_window, got \[4, 6\]"):
            run_decodes(SMALL, [("csp", self.CFG, {}), ("accum", wide, {})])
        with pytest.raises(TypeError, match="cannot drive"):
            run_decodes("no", [("csp", self.CFG, {})])

    def test_shared_weights_are_read_only(self, monkeypatch):
        """A kernel that writes to the column mass it is handed gets a
        ValueError, so no run can change what another reads."""
        writes = []

        def wrapper(kernel):
            def writing(key_tags, mass, cfg, state, options):
                with pytest.raises(ValueError, match="read-only"):
                    mass()[0, 0] = 0.0
                writes.append(key_tags.size)
                return kernel(key_tags, mass, cfg, state, options)
            return writing

        runs = [("accum", self.CFG, {}), ("global-topk", self.CFG, {})]
        alone = [run_decode(SMALL, policy, cfg) for policy, cfg, _ in runs]
        wrap_kernel(monkeypatch, "accum", wrapper)
        for report, want in zip(run_decodes(SMALL, runs), alone):
            assert_same_report(report, want)
        assert len(writes) == (SMALL.steps + 1) * SMALL.layers


def record_scorings(monkeypatch):
    """Wrap policies._mass, the one scoring every kernel reads; the
    returned list collects (smoothing, window logits shape) for every
    scoring."""
    scored = []
    score = policies._mass

    def recorded(logits, select, smoothing):
        scored.append((smoothing, logits.shape))
        return score(logits, select, smoothing)

    monkeypatch.setattr(policies, "_mass", recorded)
    return scored


class TestOneSmoothingPerRun:
    """Every scoring of a run, live or replayed from its trace, uses its
    policy's smoothing(cfg, options), the rule its reconstruction error
    replays with: csp's cfg.smoothing (--n), a baseline's own smoothing
    option (--baseline-n, default 0), and none for the full cache, which
    never scores."""

    SPEC = SynthSpec(seed=2, text_len=8, visual_len=8, layers=2, heads=2, head_dim=8,
                     steps=4, shift=2.0)

    @pytest.mark.parametrize("policy", list(policies.POLICIES))
    def test_every_scoring_uses_the_rule(self, policy, monkeypatch):
        base = PruneConfig(budget=12, recent=2, obs_window=4)
        trace = record_trace(self.SPEC, base.obs_window)
        takes = "smoothing" in policies.option_defaults(policy)
        for n in (None, 2.5):
            cfg = base if n is None else base.with_updates(smoothing=n)
            for options in ({}, {"smoothing": 0.5}) if takes else ({},):
                rule = {"csp": cfg.smoothing, "full": 0.0}.get(policy,
                                                               options.get("smoothing", 0.0))
                checked = policies.run_options(policy, options)
                assert policies.POLICIES[policy].smoothing(cfg, checked) == rule
                for source in (self.SPEC, trace):
                    scored = record_scorings(monkeypatch)
                    run_decode(source, policy, cfg, **options)
                    want = set() if policy == "full" else {rule}
                    assert {smoothing for smoothing, _ in scored} == want, (n, options, source)
                    monkeypatch.undo()


class TestReconErrorOracle:
    """The last step's reconstruction error against tests/oracles.py's
    plain-loop recon_error_final, which recomputes the newest query's
    logits with a fresh logit_block call and its weights with mpmath."""

    @pytest.mark.parametrize("interleave", ["block", "alternating", "random"])
    @pytest.mark.parametrize("smoothing", [0.0, 1.0])
    @pytest.mark.parametrize("policy", ["csp", "global-topk", "accum", "full"])
    def test_final_step_matches_oracle(self, policy, smoothing, interleave):
        spec = SynthSpec(**{**SMALL.__dict__, "interleave": interleave})
        cfg = PruneConfig(budget=14, recent=4, obs_window=6, cross_ratio=0.5,
                          smoothing=smoothing, widen_to_budget=True)
        kwargs = {"smoothing": smoothing} if policy in ("global-topk", "accum") else {}
        report = run_decode(spec, policy, cfg, **kwargs)
        deployed = 0.0 if policy == "full" else smoothing
        expected = oracles.recon_error_final(spec, report.retained_ids, deployed)
        assert report.recon_error[-1] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_empty_cache_matches_oracle(self):
        """A csp run whose every layer keeps no token: the smoothed pruned
        weights have zero columns, so the pruned output is zero."""
        spec = SynthSpec(seed=1, text_len=16, visual_len=16, interleave="block",
                         layers=2, heads=4, head_dim=32, steps=4)
        cfg = PruneConfig(budget=2, recent=0, obs_window=8, cross_ratio=0.5, smoothing=1.0)
        report = run_decode(spec, "csp", cfg)
        assert [ids.size for ids in report.retained_ids] == [0, 0]
        expected = oracles.recon_error_final(spec, report.retained_ids, 1.0)
        assert report.recon_error[-1] == pytest.approx(expected, rel=1e-12)


# A csp run whose kept set empties on layer 0 at steps 0 and 3: recent 0 and
# a budget of 0.1 keep at most one token, and sometimes none.
EMPTYING = SynthSpec(seed=0, text_len=8, visual_len=8, layers=1, heads=2, head_dim=8, steps=4)
EMPTYING_CFG = PruneConfig(budget=budget_for_fraction(0.1, EMPTYING.final_len, 0), recent=0,
                           obs_window=16)


@st.composite
def batched_runs(draw):
    """(spec, cfg, policy, options) of a small live run whose kept sets never
    empty (recent >= 1), over every policy, widening setting, smoothing
    0 or 1 and interleave."""
    spec = SynthSpec(
        seed=draw(st.integers(0, 99)),
        text_len=draw(st.integers(2, 12)),
        visual_len=draw(st.integers(2, 12)),
        interleave=draw(st.sampled_from(simulator.INTERLEAVE_MODES)),
        layers=draw(st.integers(1, 2)),
        heads=draw(st.integers(1, 3)),
        head_dim=draw(st.sampled_from([4, 8])),
        steps=draw(st.integers(0, 8)),
    )
    recent = draw(st.integers(1, 4))
    n = draw(st.sampled_from([0.0, 1.0]))
    cfg = PruneConfig(
        budget=budget_for_fraction(draw(st.floats(0.05, 1.1)), spec.final_len, recent),
        recent=recent, obs_window=draw(st.integers(1, 8)), smoothing=n,
        widen_to_budget=draw(st.booleans()),
    )
    policy = draw(st.sampled_from(list(policies.POLICIES)))
    options = {"smoothing": n} if policy in ("global-topk", "accum") else {}
    return spec, cfg, policy, options


class TestBatchedReconstruction:
    """run_decode scores a run's reconstruction error in one batched pass
    per layer, in chunks of steps; every step must match the per-step
    arithmetic of tests/oracles.py's recon_step_errors."""

    @settings(max_examples=80)
    @given(run=batched_runs(), chunk_floats=st.sampled_from([1, 300, 2**17]))
    def test_every_step_matches_the_per_step_oracle(self, run, chunk_floats):
        """chunk_floats 1 puts each step in its own chunk, 300 a few steps
        in each, 2**17 the whole run in one."""
        spec, cfg, policy, options = run
        decoder = SyntheticDecoder(spec)
        layer_errors = {}
        original = simulator._layer_errors

        def recorded(decoder, newest, full, layer, kept, smoothing):
            layer_errors[layer] = (kept, original(decoder, newest, full, layer, kept, smoothing))
            return layer_errors[layer][1]

        with mock.patch.object(simulator, "_layer_errors", recorded), \
                mock.patch.object(simulator, "RECON_CHUNK_FLOATS", chunk_floats):
            report = run_decode(decoder, policy, cfg, **options)
        smoothing = policies.POLICIES[policy].smoothing(cfg,
                                                         policies.run_options(policy, options))
        assert sorted(layer_errors) == list(range(spec.layers))
        for step, record in enumerate(decoder.steps(cfg.obs_window)):
            retained = [layer_errors[layer][0][step] for layer in range(spec.layers)]
            expected = oracles.recon_step_errors(decoder, record.blocks, retained, smoothing)
            length = spec.prefill_len + step
            for layer, want in enumerate(expected):
                got = layer_errors[layer][1][step]
                assert math.isclose(got, want, rel_tol=1e-12), (step, layer)
                if retained[layer].size == length and smoothing == 0.0:
                    assert got == 0.0
            assert math.isclose(report.recon_error[step], float(np.mean(expected)),
                                rel_tol=1e-12)

    def test_chunks_cover_the_steps_within_the_float_budget(self):
        for count, per_step in ((0, 10), (1, 10**9), (7, 0), (129, 25_000), (13, 4_900)):
            chunks = simulator._chunks(count, per_step)
            assert [step for chunk in chunks for step in range(count)[chunk]] == list(range(count))
            for chunk in chunks:
                size = chunk.stop - chunk.start
                assert size == 1 or size * per_step <= simulator.RECON_CHUNK_FLOATS

    @pytest.mark.parametrize("chunk_floats, bound, within", [
        (2**12, 2**20, True),    # chunked: well under 1 MiB
        (2**40, 2**21, False),   # one chunk: over 2 MiB
    ])
    def test_temporaries_follow_the_chunk_size(self, chunk_floats, bound, within):
        """Reconstruction's peak memory is set by RECON_CHUNK_FLOATS, not by
        the step count: at 129 steps one chunk needs several MiB."""
        spec = SynthSpec(seed=3, text_len=64, visual_len=64, layers=1, heads=4,
                         head_dim=16, steps=128)
        cfg = PruneConfig(budget=budget_for_fraction(0.5, spec.final_len, 8), recent=8,
                          obs_window=8)
        decoder = SyntheticDecoder(spec)
        calls = []
        original = simulator._recon_error
        with mock.patch.object(simulator, "_recon_error",
                               lambda *args: calls.append(args) or [0.0]):
            run_decode(decoder, "csp", cfg)
        [(_, newest, full, kept, smoothing)] = calls
        assert full == [None] * spec.layers
        with mock.patch.object(simulator, "RECON_CHUNK_FLOATS", chunk_floats):
            tracemalloc.start()
            try:
                original(decoder, newest, full, kept, smoothing)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peak < bound) == within, peak


class TestEmptyKeptSet:
    """A layer whose kept set empties: its weights are undefined under
    smoothing 0, and under smoothing > 0 its pruned output is zero."""

    def test_refused_at_smoothing_zero(self):
        with pytest.raises(ValueError, match="no columns and smoothing is 0; weights "
                                             "are undefined"):
            run_decode(EMPTYING, "csp", EMPTYING_CFG.with_updates(smoothing=0.0))

    def test_error_is_the_full_output_norm_at_positive_smoothing(self):
        report = run_decode(EMPTYING, "csp", EMPTYING_CFG.with_updates(smoothing=1.0))
        occupancy = [step[0].achieved_occupancy for step in report.per_step]
        assert occupancy == [0, 1, 1, 0, 1]
        decoder = SyntheticDecoder(EMPTYING)
        for step in (0, 3):
            length = EMPTYING.prefill_len + step
            logits = decoder.logit_block(0, np.array([length - 1]), np.arange(length))
            logits = logits[:, 0, :].astype(np.float64)
            weights = np.exp(logits - logits.max(axis=1, keepdims=True))
            weights /= weights.sum(axis=1, keepdims=True)
            full = weights @ decoder.values(0, slice(length))
            assert report.recon_error[step] == pytest.approx(np.linalg.norm(full), rel=1e-12)


class TestModalityBalance:
    def test_csp_outretains_global_topk_on_visual(self):
        """The pinned text-dominant instance: a text-heavy observation
        window starves visual keys of column mass, so the global ranking
        evicts them; splitting the pool between the same-modality and
        cross-modality rankings keeps the visual keys text queries rely
        on."""
        spec = SynthSpec(seed=7, text_len=64, visual_len=64, interleave="block",
                         layers=1, heads=2, head_dim=16, steps=8, shift=2.0)
        budget = budget_for_fraction(0.25, spec.final_len, 8)
        cfg = PruneConfig(budget=budget, recent=8, obs_window=80, cross_ratio=0.5,
                          smoothing=1.0, widen_to_budget=True)
        csp_visual = run_decode(spec, "csp", cfg).retained_counts[1]
        topk_visual = run_decode(spec, "global-topk", cfg).retained_counts[1]
        assert csp_visual >= max(2 * topk_visual, 4)


def record_selections(monkeypatch):
    """Wrap csp's kernel, the step's query selector and the selection
    kernel, _cross_self_select; the returned list collects (candidate tags,
    observation-window query tags, scores, selection) for every selection,
    in call order."""
    select = policies._cross_self_select
    selector = policies._selector
    selections, window = [], {}

    def wrapper(kernel):
        def stepped(key_tags, *args):
            window.update(keys=key_tags)
            return kernel(key_tags, *args)
        return stepped

    def selecting(window_tags, heads):
        window.update(queries=window_tags)
        return selector(window_tags, heads)

    def selected(scores, cfg):
        chosen = select(scores, cfg)
        selections.append((window["keys"][: len(scores)], window["queries"], scores, chosen))
        return chosen

    wrap_kernel(monkeypatch, "csp", wrapper)
    monkeypatch.setattr(policies, "_selector", selecting)
    monkeypatch.setattr(policies, "_cross_self_select", selected)
    return selections


class TestTieRegime:
    """Once csp's observation window holds only text queries, every visual
    candidate's intra score and every text candidate's inter score is
    exactly 0, so each ranking ends in a run of index-ordered ties, and
    widening fills the pool from them: every selection after the first
    prune keeps all candidates but one. A change to csp's rule shows here
    as a deliberate test change."""

    @pytest.mark.parametrize("interleave", simulator.INTERLEAVE_MODES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_text_only_windows(self, seed, interleave, monkeypatch):
        spec = SynthSpec(seed=seed, text_len=32, visual_len=32, interleave=interleave,
                         layers=2, heads=2, head_dim=16, steps=24)
        recent = 4
        cfg = PruneConfig(budget=budget_for_fraction(0.25, spec.final_len, recent),
                          recent=recent, obs_window=8, widen_to_budget=True)
        assert cfg.budget - recent == 18
        selections = record_selections(monkeypatch)
        run_decode(spec, "csp", cfg)

        # Each step of the decode selects once per layer; the first prune
        # is step 0's, over the whole prefill.
        assert len(selections) == (spec.steps + 1) * spec.layers
        text_only = 0
        for call, (cand_tags, query_tags, scores, chosen) in enumerate(selections):
            if np.any(query_tags == VISUAL):
                continue
            text_only += 1
            visual = cand_tags == VISUAL
            np.testing.assert_array_equal(scores.intra == 0.0, visual)
            np.testing.assert_array_equal(scores.inter == 0.0, ~visual)
            if call >= spec.layers:
                assert (cand_tags.size, chosen.size) == (cfg.budget - recent + 1,
                                                         cfg.budget - recent)
        # Decode steps 8 onward see only the text tokens they appended.
        assert text_only >= (spec.steps - 7) * spec.layers


class TestSweep:
    CFG = PruneConfig(budget=14, recent=4, obs_window=4, widen_to_budget=True)

    def test_singleton_equals_direct_run(self):
        [(value, report)] = sweep("cross_ratio", [0.3], SMALL, self.CFG, "csp")
        direct = run_decode(SMALL, "csp", self.CFG.with_updates(cross_ratio=0.3))
        assert value == 0.3
        for a, b in zip(report.retained_ids, direct.retained_ids):
            np.testing.assert_array_equal(a, b)

    def test_budget_axis_recomputes_budget(self):
        [(_, report)] = sweep("budget_fraction", [0.5], SMALL, self.CFG, "csp")
        assert report.config.budget == budget_for_fraction(0.5, SMALL.final_len, 4)

    def test_grid_order_preserved(self):
        grid = [0.8, 0.2, 0.5]
        rows = sweep("cross_ratio", grid, SMALL, self.CFG, "csp")
        assert [v for v, _ in rows] == grid
        assert all(r.config.cross_ratio == v for v, r in rows)

    @pytest.mark.parametrize("axis, grid", [
        ("budget_fraction", [0.3, 0.6, 0.45]),
        ("cross_ratio", [0.2, 0.8, 0.5]),
        ("smooth_n", [0.0, 2.0, 1.0]),
    ])
    @pytest.mark.parametrize("policy", ["csp", "global-topk", "accum", "full"])
    def test_every_run_equals_a_fresh_run(self, axis, grid, policy, monkeypatch):
        """Runs of one sweep share what they need of the source, and no run
        leaks state into another: each report, and every step's keep,
        equals that of a standalone run_decode with the same config. The
        sweep steps its runs in lockstep, calling every run's kernel at a
        layer-step before the next layer-step, so its keeps are regrouped
        by run to compare them with the standalone runs, one after another."""
        keeps = record_keeps(monkeypatch, policy)
        rows = sweep(axis, grid, SMALL, self.CFG, policy)
        swept_keeps = [keeps[run::len(grid)] for run in range(len(grid))]
        swept_keeps = [keep for run in swept_keeps for keep in run]
        keeps.clear()
        for _, report in rows:
            fresh = run_decode(SMALL, policy, report.config)
            for a, b in zip(report.retained_ids, fresh.retained_ids, strict=True):
                np.testing.assert_array_equal(a, b)
            assert report.recon_error == fresh.recon_error
            assert report.bytes_cached == fresh.bytes_cached
            assert report.per_step == fresh.per_step
        for a, b in zip(swept_keeps, keeps, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_one_slab_per_sweep(self, monkeypatch):
        """A sweep computes logits with one logit_block call per layer,
        whatever the grid size."""
        calls = []
        original = SyntheticDecoder.logit_block

        def counted(self, *args):
            calls.append(args[0])
            return original(self, *args)

        monkeypatch.setattr(SyntheticDecoder, "logit_block", counted)
        sweep("budget_fraction", [0.3, 0.6, 0.45], SMALL, self.CFG, "csp")
        assert calls == list(range(SMALL.layers))

    def test_one_full_side_per_layer(self, monkeypatch):
        """The unpruned side of the reconstruction error depends only on the
        decoder and the layer, so a sweep computes one (steps + 1, heads,
        head_dim) array per layer, whatever the grid size, with the same
        routine as the pruned side, keeping every key under smoothing 0."""
        calls = record_outputs(monkeypatch)
        sweep("budget_fraction", [0.3, 0.6, 0.45], SMALL, self.CFG, "csp")
        full = [call for call in calls if keeps_every_key(call, SMALL)]
        assert len(full) == SMALL.layers
        assert len(calls) == SMALL.layers + 3 * SMALL.layers
        for *_, out in full:
            assert out.shape == (SMALL.steps + 1, SMALL.heads, SMALL.head_dim)

    def test_full_run_computes_no_reconstruction(self, monkeypatch):
        """A full run keeps every key under smoothing 0 on every layer, so
        each of its errors is exactly 0.0 and none is computed: neither
        side of any step, and no softmax."""
        calls = record_outputs(monkeypatch)
        softmaxes = []
        monkeypatch.setattr(simulator, "_smoothed_softmax_rows",
                            lambda *args: softmaxes.append(args))
        rows = sweep("budget_fraction", [0.3, 0.6], SMALL, self.CFG, "full")
        assert all(report.recon_error == [0.0] * (SMALL.steps + 1) for _, report in rows)
        assert calls == [] and softmaxes == []

    def test_bad_axis(self):
        with pytest.raises(ValueError, match="axis"):
            sweep("budget", [0.5], SMALL, self.CFG, "csp")
        assert set(SWEEP_AXES) == {"budget_fraction", "cross_ratio", "smooth_n"}

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="empty"):
            sweep("cross_ratio", [], SMALL, self.CFG, "csp")


def _oracle_steps(trace):
    """A single-layer trace as the oracles' (new_count, blocks) list."""
    return [
        (int(step.new_tags.size), step.blocks[0].astype(np.float64).tolist())
        for step in trace.steps
    ]


class TestOracleExecutors:
    """run_decode over recorded single-layer traces against the pure-Python
    policy drivers in tests/oracles.py: the final retained ids must equal
    the oracle's last history entry, and every step's occupancy the length
    of the oracle's retained list after that step. Each policy replays a
    trace recorded at its own window and one recorded RECORDED_EXTRA rows
    wider, whose rows before the window neither side may read."""

    RECENT, OBS, BUDGET = 3, 4, 10
    RECORDED_EXTRA = 3

    @staticmethod
    def _traces(interleave):
        """(recorded window, trace) at OBS and at OBS + RECORDED_EXTRA."""
        spec = SynthSpec(seed=3, text_len=10, visual_len=8, interleave=interleave,
                         layers=1, heads=2, head_dim=8, steps=6, shift=2.0)
        obs = TestOracleExecutors.OBS
        return [(window, record_trace(spec, window))
                for window in (obs, obs + TestOracleExecutors.RECORDED_EXTRA)]

    @staticmethod
    def _check(report, history, label):
        np.testing.assert_array_equal(report.retained_ids[0], history[-1], err_msg=label)
        occupancy = [step[0].achieved_occupancy for step in report.per_step]
        assert occupancy == [len(kept) for kept in history], label

    @pytest.mark.parametrize("interleave", ["block", "alternating", "random"])
    @pytest.mark.parametrize("ratio", [0.0, 0.3, 0.5, 1.0])
    def test_csp_matches_oracle(self, interleave, ratio):
        for recorded, trace in self._traces(interleave):
            steps = _oracle_steps(trace)
            full_tags = trace.full_tags.tolist()
            for widen in (False, True):
                for smoothing in (0.0, 1.0):
                    for bias in (1.0, 2.0):
                        cfg = PruneConfig(budget=self.BUDGET, recent=self.RECENT,
                                          obs_window=self.OBS, cross_ratio=ratio,
                                          smoothing=smoothing, recency_bias=bias,
                                          widen_to_budget=widen)
                        history = oracles.csp_retained_global(
                            steps, full_tags, self.BUDGET, self.RECENT, ratio, self.OBS,
                            recency_bias=bias, widen=widen, smoothing=smoothing,
                        )
                        label = (f"recorded={recorded} widen={widen} smoothing={smoothing} "
                                 f"bias={bias}")
                        self._check(run_decode(trace, "csp", cfg), history, label)

    @pytest.mark.parametrize("interleave", ["block", "alternating", "random"])
    @pytest.mark.parametrize("pool_width", [1, 2, 3])
    def test_global_topk_matches_oracle(self, interleave, pool_width):
        for recorded, trace in self._traces(interleave):
            steps = _oracle_steps(trace)
            for budget in (self.BUDGET, 2 * self.BUDGET):
                cfg = PruneConfig(budget=budget, recent=self.RECENT, obs_window=self.OBS)
                history = oracles.global_topk_retained_global(
                    steps, budget, self.RECENT, self.OBS, pool_width=pool_width
                )
                report = run_decode(trace, "global-topk", cfg, pool_width=pool_width)
                self._check(report, history, f"recorded={recorded} budget={budget}")

    @pytest.mark.parametrize("interleave", ["block", "alternating", "random"])
    @pytest.mark.parametrize("smoothing", [0.0, 1.0])
    def test_accum_matches_oracle(self, interleave, smoothing):
        for recorded, trace in self._traces(interleave):
            steps = _oracle_steps(trace)
            for budget in (self.BUDGET, 2 * self.BUDGET):
                cfg = PruneConfig(budget=budget, recent=self.RECENT, obs_window=self.OBS)
                history = oracles.accum_retained_global(
                    steps, budget, self.RECENT, self.OBS, smoothing=smoothing
                )
                report = run_decode(trace, "accum", cfg, smoothing=smoothing)
                self._check(report, history, f"recorded={recorded} budget={budget}")
