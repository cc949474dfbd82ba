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
that is NaN or infinite. write_trace refuses such a logit too, and a value
that overflows its field instead of wrapping it; either way it writes no
file.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .core import as_tags

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


class SizeMismatchError(TraceError):
    """Declared sizes are internally inconsistent."""


class NonFiniteLogitError(TraceError):
    """A logit block holds NaN or an infinity."""


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


@dataclass
class AttentionTrace:
    layers: int
    heads: int
    head_dim: int
    prefill_tags: np.ndarray
    steps: list[TraceStep] = field(default_factory=list)

    def __post_init__(self):
        self.prefill_tags = as_tags(self.prefill_tags)
        if self.layers < 1 or self.heads < 1 or self.head_dim < 1:
            raise ValueError("layers, heads and head_dim must all be >= 1")
        if self.prefill_tags.size < 1:
            raise ValueError("a trace needs a nonempty prefill")
        length = self.prefill_tags.size
        for index, step in enumerate(self.steps):
            length += step.new_tags.size
            layers, heads, rows, cols = step.blocks.shape
            if (layers, heads) != (self.layers, self.heads):
                raise ValueError(
                    f"step {index} has {layers}x{heads} blocks, header says {self.layers}x{self.heads}"
                )
            if cols != length:
                raise ValueError(
                    f"step {index} blocks cover {cols} keys but {length} tokens exist"
                )
            if not 1 <= rows <= length:
                raise ValueError(f"step {index} has an impossible row count {rows}")

    @property
    def full_tags(self) -> np.ndarray:
        parts = [self.prefill_tags] + [s.new_tags for s in self.steps]
        return np.concatenate(parts)

    @property
    def final_length(self) -> int:
        return int(self.prefill_tags.size + sum(s.new_tags.size for s in self.steps))


def _pack(fmt: str, **fields) -> bytes:
    """Little-endian u16 ("H") and u32 ("I") fields, in order; a value that
    overflows its field raises ValueError naming the field."""
    for code, (name, value) in zip(fmt, fields.items()):
        bits, limit = (16, MAX_U16) if code == "H" else (32, MAX_U32)
        if value > limit:
            raise ValueError(f"trace {name} {value} does not fit its u{bits} field")
    return struct.pack("<" + fmt, *fields.values())


def write_trace(trace: AttentionTrace, path) -> None:
    chunks = [
        MAGIC,
        _pack(
            "HHHIHI",
            version=VERSION,
            layers=trace.layers,
            heads=trace.heads,
            steps=len(trace.steps),
            head_dim=trace.head_dim,
            prefill_length=trace.prefill_tags.size,
        ),
        trace.prefill_tags.astype("<u1").tobytes(),
    ]
    for index, step in enumerate(trace.steps):
        _check_finite(step.blocks, index)
        chunks.append(_pack("I", new_tokens=step.new_tags.size))
        chunks.append(step.new_tags.astype("<u1").tobytes())
        _, _, rows, cols = step.blocks.shape
        prefix = _pack("II", rows=rows, cols=cols)
        for layer_blocks in step.blocks:
            for block in layer_blocks:
                chunks.append(prefix)
                chunks.append(np.ascontiguousarray(block, dtype="<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


class _Cursor:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.step: int | None = None

    def require(self, count: int, what: str) -> None:
        """Raise TruncatedTraceError unless count more bytes exist."""
        if self.pos + count > len(self.data):
            where = "header" if self.step is None else f"step {self.step}"
            raise TruncatedTraceError(
                f"trace truncated in {where}: needed {count} bytes for {what}, "
                f"{len(self.data) - self.pos} left",
                step=self.step,
            )

    def take(self, count: int, what: str) -> bytes:
        self.require(count, what)
        out = self.data[self.pos : self.pos + count]
        self.pos += count
        return out

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def read_trace(path) -> AttentionTrace:
    with open(path, "rb") as fh:
        data = fh.read()
    cur = _Cursor(data)

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
    prefill_tags = np.frombuffer(cur.take(prefill_len, "prefill tags"), dtype=np.uint8)
    _check_tag_bytes(prefill_tags, "prefill")

    length = prefill_len
    records: list[TraceStep] = []
    for step_index in range(steps):
        cur.step = step_index
        (n_new,) = cur.unpack("<I", "new-token count")
        new_tags = np.frombuffer(cur.take(n_new, "new-token tags"), dtype=np.uint8)
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
                    # payload is known; check it exists before allocating.
                    # The first block's 8-byte shape prefix is already read.
                    cur.require(
                        layers * heads * (8 + rows * cols * 4) - 8,
                        f"{layers}x{heads} blocks of {rows}x{cols}",
                    )
                    blocks = np.empty((layers, heads, rows, cols), dtype=np.float32)
                elif (rows, cols) != shared_shape:
                    raise SizeMismatchError(
                        f"step {step_index}: block shapes differ across heads/layers "
                        f"({(rows, cols)} vs {shared_shape})"
                    )
                raw = cur.take(rows * cols * 4, "block data")
                blocks[layer, head] = np.frombuffer(raw, dtype="<f4").reshape(rows, cols)
        _check_finite(blocks, step_index)
        records.append(TraceStep(new_tags=new_tags, blocks=blocks))

    if cur.pos != len(data):
        raise SizeMismatchError(
            f"{len(data) - cur.pos} trailing bytes after the declared {steps} steps"
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
