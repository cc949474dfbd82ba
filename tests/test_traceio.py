"""Tests for the binary trace format: round trips and corruption handling."""

import hashlib
import os
import re
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from kvprune.core import PruneConfig
from kvprune.diagnostics import modality_weight_samples
from kvprune.simulator import SynthSpec, record_trace, run_decode
from kvprune.traceio import (
    MAGIC,
    AttentionTrace,
    BadMagicError,
    NonFiniteLogitError,
    SizeMismatchError,
    TraceError,
    TraceStep,
    TruncatedTraceError,
    UnsupportedVersionError,
    pack_header,
    read_trace,
    write_trace,
)

# Header sizes at and around the u16 and u32 limits.
U16_EDGES = st.sampled_from([1, 2**16 - 2, 2**16 - 1, 2**16, 2**17])
U32_EDGES = st.sampled_from([0, 1, 2**32 - 2, 2**32 - 1, 2**32, 2**33])


def small_trace(seed=42):
    rng = np.random.default_rng(seed)
    prefill = np.array([1, 1, 0, 0], dtype=np.uint8)
    steps = []
    length = 4
    for new in (0, 1, 2):
        length += new
        steps.append(
            TraceStep(
                new_tags=rng.integers(0, 2, size=new).astype(np.uint8),
                blocks=rng.standard_normal((2, 3, min(2, length), length)).astype(np.float32),
            )
        )
    return AttentionTrace(layers=2, heads=3, head_dim=8, prefill_tags=prefill, steps=steps)


def write_with_logit(trace, path, step, index, value):
    """Write trace to path with one logit of one step set to value.

    write_trace refuses a logit that is not finite, so this writes a finite
    sentinel in its place and then swaps the sentinel's bytes for value's.
    """
    sentinel = np.float32(1.5e30).tobytes()
    trace.steps[step].blocks[index] = np.float32(1.5e30)
    write_trace(trace, path)
    data = path.read_bytes()
    assert data.count(sentinel) == 1
    path.write_bytes(data.replace(sentinel, np.float32(value).tobytes()))


@st.composite
def mutated_bytes(draw, data: bytes):
    """data after one to four byte flips, truncations or insertions."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["flip", "truncate", "insert"]))
        if op == "flip" and out:
            out[draw(st.integers(0, len(out) - 1))] ^= draw(st.integers(1, 255))
        elif op == "truncate":
            del out[draw(st.integers(0, len(out))):]
        else:
            pos = draw(st.integers(0, len(out)))
            out[pos:pos] = draw(st.binary(min_size=1, max_size=8))
    return bytes(out)


class TestRoundTrip:
    def test_lossless(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "t.trace"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert loaded.layers == 2 and loaded.heads == 3 and loaded.head_dim == 8
        np.testing.assert_array_equal(loaded.prefill_tags, trace.prefill_tags)
        assert len(loaded.steps) == 3
        for got, want in zip(loaded.steps, trace.steps):
            np.testing.assert_array_equal(got.new_tags, want.new_tags)
            np.testing.assert_array_equal(got.blocks, want.blocks)

    def test_byte_identical_rewrites(self, tmp_path):
        trace = small_trace()
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        write_trace(trace, a)
        write_trace(read_trace(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_full_tags_and_final_length(self):
        trace = small_trace()
        assert trace.final_length == 7
        assert trace.full_tags.shape == (7,)

    def test_magic_bytes_lead_the_file(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(small_trace(), path)
        assert path.read_bytes()[:4] == MAGIC

    def test_golden_bytes(self, tmp_path):
        """The writer's bytes for a pinned synthetic trace never change."""
        spec = SynthSpec(seed=7, text_len=32, visual_len=32, interleave="block",
                         layers=2, heads=2, head_dim=16, steps=4)
        path = tmp_path / "golden.trace"
        write_trace(record_trace(spec, 32), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "9bb3bd1dfd88df804f325e52d3ccb8fb8fe1887a9028959155a3b8d4a73a6f6b"
        )

    def test_more_blocks_than_one_write_call_takes(self, tmp_path):
        """600 heads make 1200 block buffers, more than the 1024 that one
        vectored write call may take, so a writer that batches buffers
        must split them."""
        rng = np.random.default_rng(3)
        trace = AttentionTrace(
            layers=1, heads=600, head_dim=1, prefill_tags=np.zeros(2, dtype=np.uint8),
            steps=[TraceStep(new_tags=np.zeros(0, dtype=np.uint8),
                             blocks=rng.standard_normal((1, 600, 1, 2)).astype(np.float32))],
        )
        path = tmp_path / "t.trace"
        write_trace(trace, path)
        assert path.stat().st_size == 4 + 16 + 2 + 4 + 600 * (8 + 8)
        np.testing.assert_array_equal(read_trace(path).steps[0].blocks, trace.steps[0].blocks)

    def test_steps_are_disjoint_views(self, tmp_path):
        """A read trace's steps share one buffer, but writing one step's
        blocks changes no other step."""
        path = tmp_path / "t.trace"
        write_trace(small_trace(), path)
        steps = read_trace(path).steps
        for index, step in enumerate(steps):
            assert all(not np.shares_memory(step.blocks, other.blocks)
                       for other in steps[index + 1:])
        steps[1].blocks[...] = 7.0
        np.testing.assert_array_equal(steps[0].blocks, small_trace().steps[0].blocks)
        np.testing.assert_array_equal(steps[2].blocks, small_trace().steps[2].blocks)

    def test_reads_through_a_pipe(self, tmp_path):
        """A FIFO reports no size; it reads the same as the file it carries."""
        path = tmp_path / "t.trace"
        spec = SynthSpec(seed=7, text_len=32, visual_len=32, layers=2, heads=2,
                         head_dim=16, steps=4)
        write_trace(record_trace(spec, 32), path)  # larger than a pipe's buffer
        fifo = tmp_path / "t.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),),
                                  daemon=True)
        writer.start()
        try:
            piped = read_trace(fifo)
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        direct = read_trace(path)
        np.testing.assert_array_equal(piped.prefill_tags, direct.prefill_tags)
        assert len(piped.steps) == len(direct.steps)
        for got, want in zip(piped.steps, direct.steps):
            np.testing.assert_array_equal(got.new_tags, want.new_tags)
            np.testing.assert_array_equal(got.blocks, want.blocks)

    def test_peak_memory_stays_near_the_file_size(self, tmp_path):
        """Neither direction holds a second copy of the logits: the peak
        traced allocation stays within 1.1x the file size."""
        trace = record_trace(SynthSpec(seed=7, text_len=256, visual_len=256, steps=8), 32)
        path = tmp_path / "big.trace"

        def peak(call):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                call()
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        write_peak = peak(lambda: write_trace(trace, path))
        size = path.stat().st_size
        read_peak = peak(lambda: read_trace(path))
        assert write_peak <= 1.1 * size
        assert read_peak <= 1.1 * size


class TestValidation:
    def test_block_layer_count_must_match_header(self):
        with pytest.raises(ValueError, match="header says"):
            AttentionTrace(
                layers=2,
                heads=1,
                head_dim=4,
                prefill_tags=np.zeros(3, dtype=np.uint8),
                steps=[TraceStep(new_tags=np.zeros(0, dtype=np.uint8),
                                 blocks=np.zeros((1, 1, 2, 3), dtype=np.float32))],
            )

    def test_block_columns_must_track_running_length(self):
        with pytest.raises(ValueError, match="tokens exist"):
            AttentionTrace(
                layers=1,
                heads=1,
                head_dim=4,
                prefill_tags=np.zeros(3, dtype=np.uint8),
                steps=[TraceStep(new_tags=np.zeros(1, dtype=np.uint8),
                                 blocks=np.zeros((1, 1, 2, 3), dtype=np.float32))],
            )

    @pytest.mark.parametrize("field, value", [
        ("layers", 65536),
        ("heads", 65536),
        ("head_dim", 65536),
    ])
    def test_header_field_overflow(self, tmp_path, field, value):
        """A header value wider than its u16 field is refused, not wrapped
        or left to escape as a struct.error, and nothing is written."""
        dims = {"layers": 1, "heads": 1, "head_dim": 1, field: value}
        trace = AttentionTrace(**dims, prefill_tags=np.zeros(1, dtype=np.uint8))
        path = tmp_path / "t.trace"
        with pytest.raises(ValueError, match=f"{field} {value} .*u16"):
            write_trace(trace, path)
        assert not path.exists()

    @given(layers=U16_EDGES, heads=U16_EDGES, steps=U32_EDGES, head_dim=U16_EDGES,
           prefill=U32_EDGES, final=U32_EDGES)
    def test_pack_header_refuses_exactly_the_wide_sizes(self, layers, heads, steps, head_dim,
                                                        prefill, final):
        """pack_header packs the layout's fields, and refuses the first
        size wider than its field, naming the field; the final length,
        which packs nowhere, is checked last as the blocks' cols."""
        fields = [("layers", layers, 16), ("heads", heads, 16), ("steps", steps, 32),
                  ("head_dim", head_dim, 16), ("prefill_length", prefill, 32),
                  ("cols", final, 32)]
        wide = [(name, value, bits) for name, value, bits in fields if value >= 2**bits]
        if wide:
            name, value, bits = wide[0]
            with pytest.raises(ValueError, match=f"^trace {name} {value} does not fit its "
                                                 f"u{bits} field$"):
                pack_header(layers, heads, steps, head_dim, prefill, final)
        else:
            assert pack_header(layers, heads, steps, head_dim, prefill, final) == (
                MAGIC + struct.pack("<HHHIHI", 1, layers, heads, steps, head_dim, prefill))

    @pytest.mark.parametrize("layers, heads, head_dim", [
        (1, 1, 2**16 - 1), (2**16 - 1, 1, 1), (1, 2**16 - 1, 1),
        (2**16, 1, 1), (1, 2**16, 1), (1, 1, 2**16), (2**16, 2**16, 2**16),
    ])
    def test_write_trace_packs_with_pack_header(self, tmp_path, layers, heads, head_dim):
        """write_trace refuses exactly the header pack_header refuses, with
        its message and before opening the file, and otherwise writes its
        bytes."""
        trace = AttentionTrace(layers=layers, heads=heads, head_dim=head_dim, prefill_tags=[0, 1])
        path = tmp_path / "t.trace"
        try:
            header = pack_header(layers, heads, 0, head_dim, 2, 2)
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                write_trace(trace, path)
            assert not path.exists()
        else:
            write_trace(trace, path)
            assert path.read_bytes() == header + bytes([0, 1])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_logit_refused(self, tmp_path, value):
        """write_trace refuses a logit read_trace would reject, naming where
        it is, and writes no file."""
        trace = small_trace()
        trace.steps[2].blocks[1, 0, 1, 3] = value
        path = tmp_path / "t.trace"
        with pytest.raises(NonFiniteLogitError, match=r"step 2 layer 1 head 0: non-finite"):
            write_trace(trace, path)
        assert not path.exists()

    def test_first_non_finite_logit_is_named(self, tmp_path):
        """Of several bad logits in a step, the first in (layer, head, row,
        col) order is named."""
        trace = small_trace()
        trace.steps[2].blocks[0, 2, 1, 5] = np.inf
        trace.steps[2].blocks[1, 0, 0, 1] = np.nan
        with pytest.raises(NonFiniteLogitError,
                           match="^step 2 layer 0 head 2: non-finite logit inf at row 1, col 5$"):
            write_trace(trace, tmp_path / "t.trace")

    EDITS = {
        "cols": lambda trace: setattr(trace.steps[2], "blocks", trace.steps[2].blocks[..., :-1]),
        "layers": lambda trace: setattr(trace.steps[2], "blocks", trace.steps[2].blocks[:1]),
        "step-tag": lambda trace: trace.steps[2].new_tags.__setitem__(0, 2),
        "prefill-tag": lambda trace: trace.prefill_tags.__setitem__(0, 2),
        "no-rows": lambda trace: setattr(trace.steps[2], "blocks", trace.steps[2].blocks[:, :, :0]),
    }

    @pytest.mark.parametrize("edit", EDITS.values(), ids=EDITS.keys())
    def test_write_refuses_what_read_refuses(self, tmp_path, edit):
        """A trace edited in memory into one read_trace would refuse is
        refused by write_trace too, as a ValueError, and no file is written."""
        trace = small_trace()
        edit(trace)
        path = tmp_path / "t.trace"
        with pytest.raises(ValueError):
            write_trace(trace, path)
        assert not path.exists()

    def test_header_at_field_width(self, tmp_path):
        trace = AttentionTrace(layers=65535, heads=65535, head_dim=65535,
                               prefill_tags=np.zeros(1, dtype=np.uint8))
        path = tmp_path / "t.trace"
        write_trace(trace, path)
        back = read_trace(path)
        assert (back.layers, back.heads, back.head_dim) == (65535, 65535, 65535)

    def test_empty_prefill_rejected(self):
        with pytest.raises(ValueError, match="prefill"):
            AttentionTrace(layers=1, heads=1, head_dim=4,
                           prefill_tags=np.zeros(0, dtype=np.uint8))

    def test_blocks_must_be_four_dimensional(self):
        """A TraceStep is a plain record; the trace it joins refuses a block
        that is not 4-D, naming the step."""
        good = TraceStep(new_tags=np.zeros(0, dtype=np.uint8),
                         blocks=np.zeros((1, 1, 2, 2), dtype=np.float32))
        bad = TraceStep(new_tags=np.zeros(0, dtype=np.uint8),
                        blocks=np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ValueError, match=r"^step 1 blocks must be \(layers, heads, rows, "
                                             r"cols\), got shape \(2, 3\)$"):
            AttentionTrace(layers=1, heads=1, head_dim=4, prefill_tags=[0, 1],
                           steps=[good, bad])

    def test_steps_converted_once_by_the_trace(self):
        """TraceStep keeps what it is given; AttentionTrace keeps each step
        as a new record of uint8 tags and float32 blocks."""
        step = TraceStep(new_tags=[1], blocks=np.zeros((1, 1, 3, 3)))
        assert step.new_tags == [1] and step.blocks.dtype == np.float64
        [kept] = AttentionTrace(layers=1, heads=1, head_dim=4, prefill_tags=[0, 1],
                                steps=[step]).steps
        assert kept is not step and step.new_tags == [1]
        assert kept.new_tags.dtype == np.uint8 and kept.blocks.dtype == np.float32
        np.testing.assert_array_equal(kept.new_tags, [1])


class TestCorruption:
    def write_good(self, tmp_path):
        path = tmp_path / "good.trace"
        write_trace(small_trace(), path)
        return path, bytearray(path.read_bytes())

    def test_bad_magic(self, tmp_path):
        path, raw = self.write_good(tmp_path)
        raw[0:4] = b"NOPE"
        path.write_bytes(raw)
        with pytest.raises(BadMagicError, match="magic"):
            read_trace(path)

    def test_unsupported_version(self, tmp_path):
        path, raw = self.write_good(tmp_path)
        raw[4:6] = struct.pack("<H", 9)
        path.write_bytes(raw)
        with pytest.raises(UnsupportedVersionError, match="version 9"):
            read_trace(path)

    @pytest.mark.parametrize("keep", [2, 10, 30, 120])
    def test_truncation_at_various_depths(self, tmp_path, keep):
        path, raw = self.write_good(tmp_path)
        path.write_bytes(raw[:keep])
        with pytest.raises(TruncatedTraceError):
            read_trace(path)

    def test_truncation_counts_the_bytes_left(self, tmp_path):
        path, raw = self.write_good(tmp_path)
        path.write_bytes(raw[: self.HEADER_BYTES + 3])  # 3 of the 4 prefill tags
        with pytest.raises(TruncatedTraceError, match="^trace truncated in header: needed 4 "
                                                      "bytes for prefill tags, 3 left$"):
            read_trace(path)

    def test_truncation_short_of_a_step_payload_is_caught_whole(self, tmp_path):
        """One byte short of the last step's payload fails the step's
        payload bound, which counts every block after the first prefix."""
        path, raw = self.write_good(tmp_path)
        path.write_bytes(raw[:-1])
        # Step 2 has 2x3 blocks of 2 rows over 7 keys: 6 x (8 + 56) - 8 bytes.
        with pytest.raises(TruncatedTraceError, match="^trace truncated in step 2: needed 376 "
                                                      "bytes for 2x3 blocks of 2x7, 375 left$"):
            read_trace(path)

    def test_regular_file_reporting_no_size_is_read_whole(self, tmp_path, monkeypatch):
        """A procfs-style file sizes as 0, so it is read whole, not taken
        as empty."""
        path, raw = self.write_good(tmp_path)
        want = read_trace(path)
        real_fstat = os.fstat

        def sizeless_fstat(fd):
            fields = list(real_fstat(fd))
            fields[6] = 0  # st_size
            return os.stat_result(fields)

        monkeypatch.setattr(os, "fstat", sizeless_fstat)
        got = read_trace(path)
        assert len(got.steps) == len(want.steps) == 3
        for mine, theirs in zip(got.steps, want.steps):
            np.testing.assert_array_equal(mine.blocks, theirs.blocks)

    def test_truncation_names_the_step(self, tmp_path):
        path, raw = self.write_good(tmp_path)
        # Keep the header, tags, and most of step 0, then cut mid-payload.
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(TruncatedTraceError) as err:
            read_trace(path)
        assert err.value.step is not None

    def test_trailing_bytes_rejected(self, tmp_path):
        path, raw = self.write_good(tmp_path)
        path.write_bytes(bytes(raw) + b"\x00")  # one byte is already too many
        with pytest.raises(SizeMismatchError, match="^1 trailing bytes after the declared 3 steps$"):
            read_trace(path)

    HEADER_BYTES = 4 + struct.calcsize("<HHHIHI")

    def test_column_count_lie_rejected(self, tmp_path):
        path, raw = self.write_good(tmp_path)
        # After the header come 4 prefill tags, step 0's new-count u32
        # (zero new tokens, so no tag bytes), then the first block's
        # rows u32 and cols u32.
        cols_at = self.HEADER_BYTES + 4 + 4 + 4
        raw[cols_at : cols_at + 4] = struct.pack("<I", 99)
        path.write_bytes(raw)
        with pytest.raises(SizeMismatchError, match="tokens exist"):
            read_trace(path)

    def test_bad_tag_byte_rejected(self, tmp_path):
        path, raw = self.write_good(tmp_path)
        raw[self.HEADER_BYTES] = 2  # first prefill tag; 2 is the least that is no modality
        path.write_bytes(raw)
        with pytest.raises(SizeMismatchError, match="tag byte 2 is not a modality"):
            read_trace(path)

    def test_degenerate_header_rejected(self, tmp_path):
        path, raw = self.write_good(tmp_path)
        raw[6:8] = struct.pack("<H", 0)  # layers = 0
        path.write_bytes(raw)
        with pytest.raises(SizeMismatchError, match="degenerate"):
            read_trace(path)

    def test_huge_declared_payload_rejected_before_allocating(self, tmp_path):
        """A 33-byte file declaring 60000x60000 1x1 blocks (13.4 GiB once
        allocated) fails on the missing bytes, not on the allocation: the
        header, one prefill tag, one step with no new tokens, then a single
        block shape and no data."""
        path = tmp_path / "huge.trace"
        header = struct.pack("<HHHIHI", 1, 60000, 60000, 1, 8, 1)
        path.write_bytes(MAGIC + header + b"\x00" + struct.pack("<III", 0, 1, 1))
        with pytest.raises(TruncatedTraceError, match="60000x60000 blocks") as err:
            read_trace(path)
        assert err.value.step == 0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_logit_names_step_layer_and_head(self, tmp_path, value):
        path = tmp_path / "nan.trace"
        write_with_logit(small_trace(), path, 2, (1, 1, 1, 3), value)
        with pytest.raises(NonFiniteLogitError,
                           match=r"step 2 layer 1 head 1: non-finite logit .* row 1, col 3"):
            read_trace(path)

    @pytest.mark.parametrize("change, error, match", [
        (+2, SizeMismatchError, "2 trailing bytes"),
        (-2, TruncatedTraceError, "truncated in step 2: needed .* block data"),
    ])
    def test_file_changed_after_sizing(self, tmp_path, monkeypatch, change, error, match):
        """Bytes appended after the reader sized the file are still trailing
        bytes, and bytes cut after it are still a truncation."""
        path, raw = self.write_good(tmp_path)
        path.write_bytes(bytes(raw) + b"\x00" * change if change > 0 else raw[:change])
        real_fstat = os.fstat

        def stale_fstat(fd):
            fields = list(real_fstat(fd))
            fields[6] = len(raw)  # st_size as it was before the change
            return os.stat_result(fields)

        monkeypatch.setattr(os, "fstat", stale_fstat)
        with pytest.raises(error, match=match):
            read_trace(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_bytes(b"")
        with pytest.raises(TruncatedTraceError, match="header"):
            read_trace(path)

    def test_errors_are_distinct_classes(self):
        """Each corruption class is independently catchable."""
        kinds = {BadMagicError, UnsupportedVersionError, TruncatedTraceError, SizeMismatchError,
                 NonFiniteLogitError}
        assert len(kinds) == 5
        from kvprune.traceio import TraceError
        assert all(issubclass(k, TraceError) for k in kinds)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory shared by every fuzz example, holding small_trace() as
    valid.trace."""
    path = tmp_path_factory.mktemp("fuzz")
    write_trace(small_trace(), path / "valid.trace")
    return path


class TestFuzz:
    @settings(max_examples=500)
    @given(data=st.data())
    def test_mutated_bytes_raise_only_trace_errors(self, fuzz_dir, data):
        """Flipped, truncated or padded trace bytes either still read or
        raise a TraceError subclass; nothing else escapes the reader."""
        path = fuzz_dir / "mutated.trace"
        path.write_bytes(data.draw(mutated_bytes((fuzz_dir / "valid.trace").read_bytes())))
        try:
            read_trace(path)
        except TraceError:
            pass

    @settings(max_examples=500)
    @given(data=st.data())
    def test_mutated_bytes_read_as_the_oracle_does(self, fuzz_dir, data):
        """On any mutated trace the reader and a field-by-field parser agree:
        the same tags and blocks, or the same TraceError subclass."""
        raw = data.draw(mutated_bytes((fuzz_dir / "valid.trace").read_bytes()))
        path = fuzz_dir / "oracle.trace"
        path.write_bytes(raw)
        try:
            want = oracles.read_trace_bytes(raw)
        except TraceError as err:
            with pytest.raises(type(err)):
                read_trace(path)
            return
        got = read_trace(path)
        layers, heads, head_dim, prefill, steps = want
        assert (got.layers, got.heads, got.head_dim) == (layers, heads, head_dim)
        assert got.prefill_tags.tolist() == prefill
        assert len(got.steps) == len(steps)
        for step, (new_tags, blocks) in zip(got.steps, steps):
            assert step.new_tags.tolist() == new_tags
            np.testing.assert_array_equal(step.blocks, np.array(blocks, dtype=np.float32))


@st.composite
def edited_traces(draw):
    """small_trace() after one in-memory edit: a step's blocks sliced on one
    axis, one logit set to NaN or an infinity, one tag set to 2, or one
    header field changed. Some edits leave the trace valid."""
    trace = small_trace(draw(st.integers(0, 3)))
    step = trace.steps[draw(st.integers(0, len(trace.steps) - 1))]
    kind = draw(st.sampled_from(["slice", "logit", "tag", "header"]))
    if kind == "slice":
        axis = draw(st.integers(0, 3))
        size = step.blocks.shape[axis]
        start = draw(st.integers(0, size))
        index = [slice(None)] * 4
        index[axis] = slice(start, draw(st.integers(start, size)))
        step.blocks = step.blocks[tuple(index)]
    elif kind == "logit":
        at = tuple(draw(st.integers(0, n - 1)) for n in step.blocks.shape)
        step.blocks[at] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    elif kind == "tag":
        tags = trace.prefill_tags if step.new_tags.size == 0 else step.new_tags
        tags[draw(st.integers(0, tags.size - 1))] = 2
    else:
        field = draw(st.sampled_from(["layers", "heads", "head_dim", "prefill_tags"]))
        if field == "prefill_tags":
            trace.prefill_tags = trace.prefill_tags[: draw(st.integers(0, 3))]
        else:
            setattr(trace, field, draw(st.integers(0, 9)))
    return trace


class TestConsumersAgree:
    @settings(max_examples=300, deadline=None)
    @given(trace=edited_traces())
    def test_every_consumer_accepts_or_refuses_alike(self, fuzz_dir, trace):
        """write_trace, run_decode and modality_weight_samples all read an
        edited trace through one check, so they all accept it or all raise
        ValueError. A refused write leaves no file; an accepted one reads
        back equal."""
        path = fuzz_dir / "edited.trace"
        path.unlink(missing_ok=True)
        cfg = PruneConfig(budget=4, recent=1, obs_window=2)
        accepted = []
        for consume in (lambda: write_trace(trace, path),
                        lambda: run_decode(trace, "csp", cfg),
                        lambda: modality_weight_samples(trace)):
            try:
                consume()
                accepted.append(True)
            except ValueError:
                accepted.append(False)
        assert accepted in ([True] * 3, [False] * 3)
        if not accepted[0]:
            assert not path.exists()
            return
        back = read_trace(path)
        assert (back.layers, back.heads, back.head_dim) == (trace.layers, trace.heads,
                                                            trace.head_dim)
        np.testing.assert_array_equal(back.prefill_tags, trace.prefill_tags)
        assert len(back.steps) == len(trace.steps)
        for got, want in zip(back.steps, trace.steps):
            np.testing.assert_array_equal(got.new_tags, want.new_tags)
            np.testing.assert_array_equal(got.blocks, want.blocks)

    @pytest.mark.parametrize("edit", [
        lambda trace: setattr(trace, "head_dim", np.uint16(trace.head_dim)),
        lambda trace: setattr(trace, "prefill_tags", trace.prefill_tags.tolist()),
    ], ids=["head-dim-uint16", "prefill-tags-list"])
    def test_header_edits_the_rule_admits_change_nothing(self, tmp_path, edit):
        """A header field edited after construction to a form the header
        rule accepts and converts gives every consumer the unedited trace's
        result, with no warning: each reads the header of the checked copy,
        not the trace's own fields. A head_dim of 4000 would overflow a
        uint16 in bytes_cached."""
        plain = small_trace()
        plain.head_dim = 4000
        edited = small_trace()
        edited.head_dim = 4000
        edit(edited)
        cfg = PruneConfig(budget=4, recent=1, obs_window=2)
        results = []
        for index, trace in enumerate((plain, edited)):
            path = tmp_path / f"{index}.trace"
            write_trace(trace, path)
            report = run_decode(trace, "global-topk", cfg)
            results.append((path.read_bytes(), report.bytes_cached, report.per_step,
                            [ids.tolist() for ids in report.retained_ids],
                            [(intra.tobytes(), inter.tobytes())
                             for intra, inter in modality_weight_samples(trace)]))
        assert results[0] == results[1]
        # Two layers of cfg.budget float32 keys and values.
        assert results[0][1][-1] == 2 * cfg.budget * 2 * 4000 * 4
