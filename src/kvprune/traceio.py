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

Each rule is written once, here. pack_header owns which sizes a trace
holds: its header fields, and the final token count, which every u32
count and shape field after the header is at most. write_trace packs with
it, and a caller about to build a trace (`kvprune gen-trace`) calls it
first to refuse sizes no trace can hold. check_block_shape owns a step's
block shape: column counts equal the running token total and
1 <= rows <= cols, so every payload size is derivable from the header.
read_trace applies it to each step's first block and requires the others
to match that block; it also rejects any logit that is NaN or infinite.
A TraceStep is a plain record that checks nothing. The AttentionTrace
constructor is the one place that converts and checks a step: it keeps
each as a new record of uint8 tags and a 4-D float32 block and applies the
same structural rules. `checked` builds one from a trace in memory, which
may have been edited since it was built or read, plus one finiteness
pass: write_trace, simulator.run_decodes and
diagnostics.modality_weight_samples read its header and steps only from
the trace it returns, so each refuses what read_trace refuses.

Each logit is copied once in each direction. read_trace reads every block
straight into one float32 arena sized from the file (a file holds at least
4 bytes per logit, so its size bounds the arena); a read trace's steps are
disjoint views of that one buffer. A pipe or other stream with no size is
first read whole into memory, and its length is the bound. write_trace runs
every check, then hands each header field and each block, straight from
its array, to a buffered file.
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


class SizeMismatchError(TraceError, ValueError):
    """Declared sizes are internally inconsistent; a ValueError for a trace in memory."""


class NonFiniteLogitError(TraceError, ValueError):
    """A logit block holds NaN or an infinity; a ValueError for a trace in memory."""


@dataclass
class TraceStep:
    """One recorded step: added tokens plus per-layer/head logit blocks. A
    plain record: AttentionTrace converts and checks the steps it keeps."""

    new_tags: np.ndarray
    blocks: np.ndarray  # (layers, heads, rows, cols) float32


def check_block_shape(rows: int, cols: int, length: int, index: int) -> None:
    """The one rule for the blocks of step `index`, whose running length is
    `length`: cols equal length and 1 <= rows <= cols. SizeMismatchError,
    a ValueError too, otherwise."""
    if cols != length:
        raise SizeMismatchError(f"step {index} blocks cover {cols} keys but {length} tokens exist")
    if not 1 <= rows <= cols:
        raise SizeMismatchError(f"step {index} has an impossible row count {rows}")


@dataclass
class AttentionTrace:
    """A trace's header and steps. The constructor is the one place that
    converts and checks a step: each step given is kept as a new TraceStep
    of its tags as core.as_tags gives them and its blocks as float32, which
    shares their arrays when they already have those dtypes. ValueError
    unless every step's blocks are (layers, heads, rows, cols) of a shape
    check_block_shape takes."""

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
        records = []
        for index, step in enumerate(self.steps):
            record = TraceStep(as_tags(step.new_tags), np.asarray(step.blocks, dtype=np.float32))
            if record.blocks.ndim != 4:
                raise ValueError(f"step {index} blocks must be (layers, heads, rows, cols), "
                                 f"got shape {record.blocks.shape}")
            step_layers, step_heads, rows, cols = record.blocks.shape
            if (step_layers, step_heads) != (self.layers, self.heads):
                raise ValueError(f"step {index} has {step_layers}x{step_heads} blocks, "
                                 f"header says {self.layers}x{self.heads}")
            length += record.new_tags.size
            check_block_shape(rows, cols, length, index)
            records.append(record)
        self.steps = records

    @property
    def full_tags(self) -> np.ndarray:
        parts = [self.prefill_tags] + [s.new_tags for s in self.steps]
        return np.concatenate(parts)

    @property
    def final_length(self) -> int:
        return int(self.prefill_tags.size + sum(s.new_tags.size for s in self.steps))


def checked(trace: AttentionTrace) -> AttentionTrace:
    """A new trace of trace's header, prefill tags and steps as they stand
    now, checked once: as AttentionTrace checks them, then one finiteness
    pass per step. ValueError at the first fault, NonFiniteLogitError for
    a logit. Its consumers read every field from the result, so an edit
    made after the trace was built is refused or converted, never read."""
    copy = AttentionTrace(trace.layers, trace.heads, trace.head_dim, trace.prefill_tags,
                          trace.steps)
    for index, step in enumerate(copy.steps):
        _check_finite(step.blocks, index)
    return copy


def _pack(fmt: str, **fields) -> bytes:
    """Little-endian u16 ("H") and u32 ("I") fields, in order; a value that
    overflows its field raises ValueError naming the field."""
    for code, (name, value) in zip(fmt, fields.items()):
        bits, limit = (16, MAX_U16) if code == "H" else (32, MAX_U32)
        if value > limit:
            raise ValueError(f"trace {name} {value} does not fit its u{bits} field")
    return struct.pack("<" + fmt, *fields.values())


def pack_header(layers: int, heads: int, steps: int, head_dim: int, prefill_length: int,
                final_length: int) -> bytes:
    """The header of a trace of these sizes, magic to prefill length: the
    one rule for which sizes a trace can hold. The final token count packs
    nowhere, but bounds every later u32 field: a step's new-token count,
    and its block rows and cols. ValueError, naming the field, for a size
    wider than its field, cols standing for the final length."""
    header = MAGIC + _pack("HHHIHI", version=VERSION, layers=layers, heads=heads, steps=steps,
                           head_dim=head_dim, prefill_length=prefill_length)
    _pack("I", cols=final_length)
    return header


def write_trace(trace: AttentionTrace, path) -> None:
    # Every check runs before the file is opened, so a refused trace leaves
    # no file; the blocks are then written straight from their arrays.
    trace = checked(trace)
    buffers = [
        pack_header(trace.layers, trace.heads, len(trace.steps), trace.head_dim,
                    trace.prefill_tags.size, trace.final_length),
        np.ascontiguousarray(trace.prefill_tags, dtype="<u1"),
    ]
    for step in trace.steps:
        buffers.append(struct.pack("<I", step.new_tags.size))
        buffers.append(np.ascontiguousarray(step.new_tags))
        prefix = struct.pack("<II", *step.blocks.shape[2:])
        payload = np.ascontiguousarray(step.blocks, dtype="<f4").view(np.uint8)
        for layer_blocks in payload:
            for block in layer_blocks:
                buffers.append(prefix)
                buffers.append(block)
    with open(path, "wb") as fh:
        fh.writelines(buffers)


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
    for index in range(steps):
        cur.step = index
        (n_new,) = cur.unpack("<I", "new-token count")
        new_tags = cur.tags(n_new, "new-token tags")
        _check_tag_bytes(new_tags, f"step {index}")
        length += n_new
        shape = rows, cols = cur.unpack("<II", "block shape")
        check_block_shape(rows, cols, length, index)
        # Every block of the step shares this shape, so its whole payload
        # is known; check it exists before taking it. The first block's
        # 8-byte shape prefix is already read.
        cur.require(
            layers * heads * (8 + rows * cols * 4) - 8,
            f"{layers}x{heads} blocks of {rows}x{cols}",
        )
        count = layers * heads * rows * cols
        blocks = arena[used : used + count].reshape(layers, heads, rows, cols)
        used += count
        for position, block in enumerate(blocks.reshape(layers * heads, rows * cols)):
            if position and (other := cur.unpack("<II", "block shape")) != shape:
                raise SizeMismatchError(
                    f"step {index}: block shapes differ across heads/layers ({other} vs {shape})"
                )
            cur.fill(block.view(np.uint8), "block data")
        _check_finite(blocks, index)
        records.append(TraceStep(new_tags, blocks))

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
