"""Tests for the binary trace format: round trips and corruption handling."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    read_trace,
    write_trace,
)


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
        with pytest.raises(ValueError, match="blocks must be"):
            TraceStep(new_tags=np.zeros(0, dtype=np.uint8),
                      blocks=np.zeros((2, 3), dtype=np.float32))


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

    def test_truncation_names_the_step(self, tmp_path):
        path, raw = self.write_good(tmp_path)
        # Keep the header, tags, and most of step 0, then cut mid-payload.
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(TruncatedTraceError) as err:
            read_trace(path)
        assert err.value.step is not None

    def test_trailing_bytes_rejected(self, tmp_path):
        path, raw = self.write_good(tmp_path)
        path.write_bytes(bytes(raw) + b"\x00\x00")
        with pytest.raises(SizeMismatchError, match="trailing"):
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
        raw[self.HEADER_BYTES] = 7  # first prefill tag
        path.write_bytes(raw)
        with pytest.raises(SizeMismatchError, match="not a modality"):
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
