"""Binary attention-trace files.

A trace carries everything a replay needs to re-run eviction policies
offline: the prefill modality tags and, per step, the newly added tokens'
tags plus one logit block per layer and head (rows = the recorded
observation queries, columns = every key alive in the originating full-cache
run). Values and query vectors are deliberately not stored, so replays can
score and prune but not reconstruct attention outputs.

Layout (all little-endian):

    bytes 0-3  magic "CSPT"
    u16        version (currently 1)
    u16        layers
    u16        heads
    u32        steps
    u16        head_dim
    u32        prefill length L0
    L0 x u8    prefill tags (0 = text, 1 = visual)
    per step:
        u32        new-token count (0 is legal: the prefill observation)
        n x u8     new-token tags
        layers x heads blocks, each:
            u32 rows, u32 cols, rows*cols float32 row-major

Column counts must equal the running token total, so every payload size is
derivable from the header; anything else is rejected, and so is any logit
that is NaN or infinite. `checked_steps` owns that rule for a trace in
memory, which may have been edited since it was built or read: write_trace,
simulator.run_decodes and diagnostics.modality_weight_samples read its
steps through it, so each refuses what read_trace refuses.

Each logit is copied once in each direction. read_trace reads every block
straight into one float32 arena sized from the file (a file holds at least
4 bytes per logit, so its size bounds the arena); a read trace's steps are
disjoint views of that one buffer. A pipe or other stream with no size is
first read whole into memory, and its length is the bound. write_trace runs
every check, then writes each header field and each block straight from
its array.
"""

from __future__ import annotations

import io
import os
import stat
import struct
from dataclasses import dataclass, field

import numpy as np

from .core import as_count, as_tags

MAGIC = b"CSPT"
VERSION = 1
MAX_U16 = 2**16 - 1
MAX_U32 = 2**32 - 1
_IOV_MAX = 1024  # buffers one writev call may take (Linux's limit)


class TraceError(Exception):
    """Base class for trace-format problems."""


class BadMagicError(TraceError):
    pass


class UnsupportedVersionError(TraceError):
    pass


class TruncatedTraceError(TraceError):
    """File ended mid-payload; carries the step index being read."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class SizeMismatchError(TraceError):
    """Declared sizes are internally inconsistent."""


class NonFiniteLogitError(TraceError, ValueError):
    """A logit block holds NaN or an infinity; a ValueError for a trace in memory."""


@dataclass
class TraceStep:
    """One recorded step: added tokens plus per-layer/head logit blocks."""

    new_tags: np.ndarray
    blocks: np.ndarray  # (layers, heads, rows, cols) float32

    def __post_init__(self):
        self.new_tags = as_tags(self.new_tags)
        self.blocks = np.asarray(self.blocks, dtype=np.float32)
        if self.blocks.ndim != 4:
            raise ValueError(
                f"blocks must be (layers, heads, rows, cols), got shape {self.blocks.shape}"
            )

    @classmethod
    def trusted(cls, new_tags: np.ndarray, blocks: np.ndarray) -> "TraceStep":
        """A step of uint8 tags and a 4-D float32 block that its maker knows
        valid, built without __post_init__'s checks."""
        step = cls.__new__(cls)
        step.new_tags, step.blocks = new_tags, blocks
        return step


def checked_step(step: TraceStep, layers: int, heads: int, length: int, index: int) -> TraceStep:
    """Step `index`, after `length` tokens, as a new record of its tags and
    blocks as TraceStep holds them. ValueError unless its blocks are
    (layers, heads, rows, cols), cols its running length and 1 <= rows <= cols."""
    record = TraceStep(step.new_tags, step.blocks)
    length += record.new_tags.size
    step_layers, step_heads, rows, cols = record.blocks.shape
    if (step_layers, step_heads) != (layers, heads):
        raise ValueError(
            f"step {index} has {step_layers}x{step_heads} blocks, header says {layers}x{heads}"
        )
    if cols != length:
        raise ValueError(f"step {index} blocks cover {cols} keys but {length} tokens exist")
    if not 1 <= rows <= cols:
        raise ValueError(f"step {index} has an impossible row count {rows}")
    return record


@dataclass
class AttentionTrace:
    layers: int
    heads: int
    head_dim: int
    prefill_tags: np.ndarray
    steps: list[TraceStep] = field(default_factory=list)

    def __post_init__(self):
        self.prefill_tags = as_tags(self.prefill_tags)
        for name in ("layers", "heads", "head_dim"):
            setattr(self, name, as_count(getattr(self, name), name, 1))
        if self.prefill_tags.size < 1:
            raise ValueError("a trace needs a nonempty prefill")
        length = self.prefill_tags.size
        for index, step in enumerate(self.steps):
            length += checked_step(step, self.layers, self.heads, length, index).new_tags.size

    @property
    def full_tags(self) -> np.ndarray:
        parts = [self.prefill_tags] + [s.new_tags for s in self.steps]
        return np.concatenate(parts)

    @property
    def final_length(self) -> int:
        return int(self.prefill_tags.size + sum(s.new_tags.size for s in self.steps))


def checked_steps(trace: AttentionTrace):
    """Yield the steps of trace as they stand now, each checked once,
    structure (checked_step) and one finiteness pass, after the header and
    prefill tags; ValueError at the first fault, NonFiniteLogitError for a logit."""
    # A trace of no steps checks the header and the prefill tags.
    header = AttentionTrace(trace.layers, trace.heads, trace.head_dim, trace.prefill_tags)
    length = header.prefill_tags.size
    for index, step in enumerate(trace.steps):
        record = checked_step(step, trace.layers, trace.heads, length, index)
        _check_finite(record.blocks, index)
        length += record.new_tags.size
        yield record


def _pack(fmt: str, **fields) -> bytes:
    """Little-endian u16 ("H") and u32 ("I") fields, in order; a value that
    overflows its field raises ValueError naming the field."""
    for code, (name, value) in zip(fmt, fields.items()):
        bits, limit = (16, MAX_U16) if code == "H" else (32, MAX_U32)
        if value > limit:
            raise ValueError(f"trace {name} {value} does not fit its u{bits} field")
    return struct.pack("<" + fmt, *fields.values())


def write_trace(trace: AttentionTrace, path) -> None:
    # Every check runs before the file is opened, so a refused trace leaves
    # no file; the blocks are then written straight from their arrays.
    steps = list(checked_steps(trace))
    buffers = [
        MAGIC,
        _pack(
            "HHHIHI",
            version=VERSION,
            layers=trace.layers,
            heads=trace.heads,
            steps=len(steps),
            head_dim=trace.head_dim,
            prefill_length=trace.prefill_tags.size,
        ),
        np.ascontiguousarray(trace.prefill_tags, dtype="<u1"),
    ]
    for step in steps:
        buffers.append(_pack("I", new_tokens=step.new_tags.size))
        buffers.append(np.ascontiguousarray(step.new_tags))
        _, _, rows, cols = step.blocks.shape
        prefix = _pack("II", rows=rows, cols=cols)
        payload = np.ascontiguousarray(step.blocks, dtype="<f4").view(np.uint8)
        for layer_blocks in payload:
            for block in layer_blocks:
                buffers.append(prefix)
                buffers.append(block)
    with open(path, "wb", buffering=0) as fh:
        _write_all(fh.fileno(), buffers)


def _write_all(fd: int, buffers) -> None:
    """Write the byte buffers to fd in order, up to _IOV_MAX of them per
    writev call, resuming after a partial write."""
    views = [memoryview(buffer).cast("B") for buffer in buffers]
    start = 0
    while start < len(views):
        written = os.writev(fd, views[start : start + _IOV_MAX])
        while start < len(views) and written >= views[start].nbytes:
            written -= views[start].nbytes
            start += 1
        if written:
            views[start] = views[start][written:]


class _Reader:
    """Reads fields from a trace stream of a known size in bytes."""

    def __init__(self, fh, size: int):
        self.fh = fh
        self.size = size
        self.pos = 0
        self.step: int | None = None

    def require(self, count: int, what: str) -> None:
        """Raise TruncatedTraceError unless count more bytes exist."""
        if self.pos + count > self.size:
            raise self._truncation(count, what, self.size - self.pos)

    def _truncation(self, count: int, what: str, left: int) -> TruncatedTraceError:
        where = "header" if self.step is None else f"step {self.step}"
        return TruncatedTraceError(
            f"trace truncated in {where}: needed {count} bytes for {what}, {left} left",
            step=self.step,
        )

    def fill(self, buffer, what: str) -> None:
        """Read exactly as many bytes as the contiguous byte buffer holds
        into it."""
        view = memoryview(buffer).cast("B")
        self.require(view.nbytes, what)
        done = 0
        while done < view.nbytes:
            got = self.fh.readinto(view[done:])
            if not got:  # the file shrank after it was sized
                raise self._truncation(view.nbytes, what, done)
            done += got
        self.pos += done

    def take(self, count: int, what: str) -> bytes:
        out = bytearray(count)
        self.fill(out, what)
        return bytes(out)

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def tags(self, count: int, what: str) -> np.ndarray:
        tags = np.empty(count, dtype=np.uint8)
        self.fill(tags, what)
        return tags


def read_trace(path) -> AttentionTrace:
    with open(path, "rb", buffering=0) as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode) and info.st_size > 0:
            return _parse(_Reader(fh, info.st_size))
        # A pipe, a terminal or a procfs-style file reports no size: take
        # the whole stream first.
        data = fh.read()
    return _parse(_Reader(io.BytesIO(data), len(data)))


def _parse(cur: _Reader) -> AttentionTrace:
    magic = cur.take(4, "magic")
    if magic != MAGIC:
        raise BadMagicError(f"not a trace file: magic {magic!r} != {MAGIC!r}")
    version, layers, heads, steps, head_dim, prefill_len = cur.unpack("<HHHIHI", "header")
    if version != VERSION:
        raise UnsupportedVersionError(f"trace version {version} unsupported (expected {VERSION})")
    if min(layers, heads, head_dim, prefill_len) < 1:
        raise SizeMismatchError(
            f"header declares degenerate dimensions: layers={layers} heads={heads} "
            f"head_dim={head_dim} prefill={prefill_len}"
        )
    prefill_tags = cur.tags(prefill_len, "prefill tags")
    _check_tag_bytes(prefill_tags, "prefill")

    # Every logit is read once, straight into this arena: each step's blocks
    # are a disjoint view of it. The file holds 4 bytes per logit and more,
    # so its size bounds the arena, and every view is taken only after the
    # bytes that fill it are known to exist.
    arena = np.empty(cur.size // 4, dtype="<f4")
    used = 0
    length = prefill_len
    records: list[TraceStep] = []
    for step_index in range(steps):
        cur.step = step_index
        (n_new,) = cur.unpack("<I", "new-token count")
        new_tags = cur.tags(n_new, "new-token tags")
        _check_tag_bytes(new_tags, f"step {step_index}")
        length += n_new

        blocks = None
        shared_shape: tuple[int, int] | None = None
        for layer in range(layers):
            for head in range(heads):
                rows, cols = cur.unpack("<II", "block shape")
                if cols != length:
                    raise SizeMismatchError(
                        f"step {step_index} layer {layer} head {head}: block covers "
                        f"{cols} keys but {length} tokens exist"
                    )
                if not 1 <= rows <= length:
                    raise SizeMismatchError(
                        f"step {step_index}: impossible row count {rows} for length {length}"
                    )
                if shared_shape is None:
                    shared_shape = (rows, cols)
                    # Every block shares this shape, so the step's whole
                    # payload is known; check it exists before taking it.
                    # The first block's 8-byte shape prefix is already read.
                    cur.require(
                        layers * heads * (8 + rows * cols * 4) - 8,
                        f"{layers}x{heads} blocks of {rows}x{cols}",
                    )
                    count = layers * heads * rows * cols
                    blocks = arena[used : used + count].reshape(layers, heads, rows, cols)
                    used += count
                elif (rows, cols) != shared_shape:
                    raise SizeMismatchError(
                        f"step {step_index}: block shapes differ across heads/layers "
                        f"({(rows, cols)} vs {shared_shape})"
                    )
                cur.fill(blocks[layer, head].view(np.uint8), "block data")
        _check_finite(blocks, step_index)
        records.append(TraceStep.trusted(new_tags, blocks))

    # Measured from the stream's end, not its size, so bytes appended after
    # the file was sized count too.
    trailing = cur.fh.seek(0, io.SEEK_END) - cur.pos
    if trailing > 0:
        raise SizeMismatchError(
            f"{trailing} trailing bytes after the declared {steps} steps"
        )
    return AttentionTrace(
        layers=layers,
        heads=heads,
        head_dim=head_dim,
        prefill_tags=prefill_tags,
        steps=records,
    )


def _check_tag_bytes(tags: np.ndarray, where: str) -> None:
    if tags.size and tags.max(initial=0) > 1:
        raise SizeMismatchError(
            f"{where}: tag byte {int(tags.max())} is not a modality (0 or 1)"
        )


def _check_finite(blocks: np.ndarray, step: int) -> None:
    if np.isfinite(blocks).all():
        return
    layer, head, row, col = np.argwhere(~np.isfinite(blocks))[0]
    raise NonFiniteLogitError(
        f"step {step} layer {layer} head {head}: non-finite logit "
        f"{blocks[layer, head, row, col]} at row {row}, col {col}"
    )
