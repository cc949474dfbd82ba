"""Synthetic decode loops for exercising eviction policies end to end.

The decoder here is a toy, but a principled one: token embeddings and
projection matrices are drawn once from seeded generators, queries get one
projection per layer and head while keys and values share a single stream
per layer (multi-query attention, which is what makes one array of retained
token ids per layer the whole cache state), and the raw score between a
query and a key is

    spread * (q . k / sqrt(head_dim)) - shift * [tags differ]

so `shift` depresses cross-modality logits and `spread` widens the score
distribution. With a text-heavy decode tail this reproduces the failure mode
the cross-self policy targets: plain top-k drifts toward text keys while the
intersection rule keeps visual keys competitive.

Logit blocks are materialized in float32, the trace precision, and a live
decoder streams them as the same `TraceStep` records a trace file holds, so a
live synthetic run and a replay of its recorded trace rank keys identically.
A logit depends only on (layer, head, query id, key id), never on the step,
so each `run_decodes` call builds every logit its steps need once, into one
read-only slab of its own, and each step's blocks are a view of it. The
decoder keeps nothing a call derives, so one decoder may serve any calls.

`run_decodes` drives any number of runs, each a policy and a config, over
any of three sources (a SynthSpec, a SyntheticDecoder or an
AttentionTrace) with one loop over those records, all runs in lockstep;
`run_decode` is its one-run case, and `sweep` and the CLI's compare pass
it all their runs at once. It checks each run once, on entry, and a
trace's header and records once per call, through traceio.checked, then
reads only the checked copy; a decoder's records come unchecked from its
finite float32 slab. The loop then calls each run's unchecked kernel on
every step and layer, handing it the scorer of the run's (keys, smoothing)
there, which every run holding those keys at that smoothing shares, so
each is gathered and scored at most once, and only if a kernel asks. A
scoring is the read-only (2, cols) column mass of the observation window,
all any policy reads, and each step builds its text/visual query selector
from the sequence's tags once for every layer and run. A kernel builds no
decision record: each run records, per step and layer, its retained ids,
the kernel's ks_used and whether it pruned, and its report derives the
per-step decisions and cached bytes from those records on first read, so a
caller that reads neither pays for neither. After the loop, _recon_errors
scores every synthetic run's reconstruction error from the same retained
ids, looping over layers, then runs, one batched pass per run and layer.
One routine, _outputs, computes both sides from a keep mask, one bool per
step and key: each step's newest-query logits over every key of the slab
are set to -inf where the mask is False, so those keys weigh exactly 0 and
the smoothed softmax runs over the kept keys alone, the paper's kept set
S; one matmul against the values gives every step's output. A run's mask marks the ids it retained;
the unpruned side's is the causal mask, every key alive at the step, under
smoothing 0. That side is computed once per layer per call, by the first
run that scores a step there, and not at all if none does. Steps go in
chunks whose temporaries stay near RECON_CHUNK_FLOATS values, so peak
memory does not grow with the step count.
Traces carry no values or query vectors, so replays report no reconstruction
error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import policies
from .core import (
    TEXT_CODE,
    VISUAL_CODE,
    PruneConfig,
    as_count,
    as_real,
    as_tags,
    tag_counts,
    validate_config,
)
from .policies import PolicyDecision
from .scoring import _smoothed_softmax_rows
from .traceio import AttentionTrace, TraceStep, checked

INTERLEAVE_MODES = ("block", "alternating", "random")
_FLOAT32_MAX = float(np.finfo(np.float32).max)
# Values the temporaries of one chunk of reconstruction steps may hold, about
# 1 MiB of float64, whatever the step count.
RECON_CHUNK_FLOATS = 2**17


def _chunks(count: int, floats_per_step: int):
    """Slices covering range(count), each of as many steps as fit
    RECON_CHUNK_FLOATS at floats_per_step values a step, at least one."""
    size = max(1, RECON_CHUNK_FLOATS // max(1, floats_per_step))
    return [slice(lo, min(lo + size, count)) for lo in range(0, count, size)]


@dataclass(frozen=True)
class SynthSpec:
    """Shape and score model of a synthetic multimodal decode."""

    seed: int = 0
    text_len: int = 64
    visual_len: int = 64
    interleave: str = "alternating"
    layers: int = 2
    heads: int = 4
    head_dim: int = 32
    steps: int = 32
    shift: float = 2.0
    spread: float = 1.0

    def __post_init__(self):
        for name, least in (("seed", 0), ("text_len", 1), ("visual_len", 1), ("layers", 1),
                            ("heads", 1), ("head_dim", 1), ("steps", 0)):
            object.__setattr__(self, name, as_count(getattr(self, name), name, least))
        if self.interleave not in INTERLEAVE_MODES:
            raise ValueError(
                f"interleave must be one of {INTERLEAVE_MODES}, got {self.interleave!r}"
            )
        shift, spread = as_real(self.shift), as_real(self.spread)
        if not np.isfinite(shift):
            raise ValueError(f"shift must be finite, got {self.shift}")
        if not 0 < spread < np.inf:
            raise ValueError(f"spread must be finite and positive, got {self.spread}")
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "spread", spread)

    @property
    def prefill_len(self) -> int:
        return self.text_len + self.visual_len

    @property
    def final_len(self) -> int:
        return self.prefill_len + self.steps


def prefill_tags(spec: SynthSpec) -> np.ndarray:
    """Lay out the prefill modalities; decode steps always append text."""
    if spec.interleave == "block":
        tags = [VISUAL_CODE] * spec.visual_len + [TEXT_CODE] * spec.text_len
    elif spec.interleave == "alternating":
        # Visual then text while both last, then the longer modality's rest.
        pairs = min(spec.text_len, spec.visual_len)
        tags = ([VISUAL_CODE, TEXT_CODE] * pairs + [VISUAL_CODE] * (spec.visual_len - pairs)
                + [TEXT_CODE] * (spec.text_len - pairs))
    else:
        tags = [VISUAL_CODE] * spec.visual_len + [TEXT_CODE] * spec.text_len
        rng = np.random.default_rng([spec.seed, 0])
        rng.shuffle(tags)
    return as_tags(tags)


class SyntheticDecoder:
    """Deterministic source of logit blocks and values for one run."""

    def __init__(self, spec: SynthSpec):
        self.spec = spec
        self.layers = spec.layers
        self.heads = spec.heads
        self.head_dim = spec.head_dim
        self.prefill_tags = prefill_tags(spec)
        self.full_tags = np.concatenate(
            [self.prefill_tags, np.full(spec.steps, TEXT_CODE, dtype=np.uint8)]
        )

        d = spec.head_dim
        emb_rng = np.random.default_rng([spec.seed, 1])
        proj_rng = np.random.default_rng([spec.seed, 2])
        embeddings = emb_rng.standard_normal((spec.final_len, d))
        scale = 1.0 / np.sqrt(d)
        # Per layer a K, a V and one Q projection per head, drawn in that
        # order in one call. Each kind is applied in one batched matmul into
        # an array of its own: a single array for all three, once freed,
        # raised the peak RSS of the work that followed it in the process
        # (glibc then serves larger blocks from its heap).
        weights = proj_rng.standard_normal((spec.layers, 2 + spec.heads, d, d))
        weights *= scale
        self._keys = embeddings @ weights[:, 0].transpose(0, 2, 1)
        self._values = embeddings @ weights[:, 1].transpose(0, 2, 1)
        self._queries = embeddings @ weights[:, 2:].transpose(0, 1, 3, 2)

    def values(self, layer: int, ids: np.ndarray | slice) -> np.ndarray:
        return self._values[layer][ids]

    def logit_block(self, layer: int, query_ids: np.ndarray, key_ids: np.ndarray) -> np.ndarray:
        """Raw scores (heads, queries, keys) between token ids, in float32."""
        spec = self.spec
        q_tags = self.full_tags[query_ids]
        k_tags = self.full_tags[key_ids]
        cross = (q_tags[:, None] != k_tags[None, :]).astype(np.float64)
        keys = self._keys[layer][key_ids]
        queries = self._queries[layer][:, query_ids]
        # Overflow is refused below, with the flags that cause it, not warned of.
        with np.errstate(over="ignore", invalid="ignore"):
            # In place, so the block is the one (heads, queries, keys) array.
            out = queries @ keys.T
            out /= np.sqrt(float(spec.head_dim))
            out *= spec.spread
            out -= spec.shift * cross
        # max and min are NaN if any logit is, which fails both comparisons.
        if not (out.max(initial=0.0) <= _FLOAT32_MAX and out.min(initial=0.0) >= -_FLOAT32_MAX):
            raise ValueError(
                f"spread {spec.spread} and shift {spec.shift} give logits that are not "
                "finite in float32"
            )
        return out.astype(np.float32)

    def slab(self, obs_window: int) -> tuple[np.ndarray, int]:
        """A new read-only float32 logit slab of shape (layers, heads,
        final_len - r0, final_len) for steps at obs_window, and r0 =
        max(prefill_len - obs_window, 0), the first query any step observes:
        row i holds query r0 + i over every key. It takes one logit_block
        call per layer."""
        obs_window = as_count(obs_window, "obs_window", 1)
        spec = self.spec
        start = max(spec.prefill_len - obs_window, 0)
        query_ids = np.arange(start, spec.final_len)
        key_ids = np.arange(spec.final_len)
        slab = np.stack([self.logit_block(layer, query_ids, key_ids)
                         for layer in range(spec.layers)])
        # Every step of every run over the slab shares it.
        slab.flags.writeable = False
        return slab, start

    def steps(self, obs_window: int):
        """Yield one TraceStep per decode step, as a trace would record it.

        Step 0 is the prefill observation and adds no tokens; every later
        step adds one text token. Blocks span every layer, the newest
        min(obs_window, length) queries as rows and every live key.

        The blocks are read-only views of a new slab (see slab), built when
        steps is called, which also refuses a bad window. Copy a block
        before writing to it.
        """
        obs_window = as_count(obs_window, "obs_window", 1)
        return self._records(*self.slab(obs_window), obs_window)

    def _records(self, slab: np.ndarray, start: int, obs_window: int):
        """The steps' TraceStep records as views of slab, whose first query
        id is start."""
        length = self.spec.prefill_len
        for step in range(self.spec.steps + 1):
            added = 1 if step else 0
            length += added
            rows = min(obs_window, length)
            # The slab is float32 and finite, since logit_block refuses
            # anything else, so the record needs no checks.
            yield TraceStep(
                np.full(added, TEXT_CODE, dtype=np.uint8),
                slab[:, :, length - rows - start : length - start, :length],
            )


@dataclass
class RunReport:
    """Everything a completed decode run produced, per step and per layer.

    A run records three things per step and layer: step_ids, the ids the
    layer retained after the step; step_ks, the ks_used of its kernel; and
    step_pruned, whether it pruned. full_tags holds every token's tag.
    per_step and bytes_cached are derived from those records the first
    time they are read, then cached. seed is the synthetic decode's seed,
    or the config's for a replay, since a trace records none.
    """

    policy: str
    config: PruneConfig
    seed: int
    full_length: int
    head_dim: int
    recon_error: list[float]
    retained_ids: list[np.ndarray]
    retained_tags: list[np.ndarray]
    full_tags: np.ndarray = field(repr=False)
    step_ids: list[list[np.ndarray]] = field(repr=False)
    step_ks: list[list[tuple[int, int]]] = field(repr=False)
    step_pruned: list[list[bool]] = field(repr=False)

    @cached_property
    def per_step(self) -> list[list[PolicyDecision]]:
        """Each step's decision per layer, as policy_step would give it."""
        return [
            [policies._decided(self.full_tags[ids], self.config, ks, pruned)
             for ids, ks, pruned in zip(*records)]
            for records in zip(self.step_ids, self.step_ks, self.step_pruned)
        ]

    @cached_property
    def bytes_cached(self) -> list[int]:
        """Each step's float32 keys and values for every retained token."""
        return [sum(ids.size * 2 * self.head_dim * 4 for ids in layers)
                for layers in self.step_ids]

    @property
    def steps(self) -> int:
        return len(self.step_ids)

    @property
    def achieved_budget_fraction(self) -> float:
        mean_len = float(np.mean([ids.size for ids in self.retained_ids]))
        return mean_len / self.full_length

    @property
    def retained_counts(self) -> tuple[int, int]:
        counts = [tag_counts(tags) for tags in self.retained_tags]
        return sum(text for text, _ in counts), sum(visual for _, visual in counts)


def budget_for_fraction(fraction: float, full_length: int, recent: int) -> int:
    """Convert a budget fraction of the final length into a token budget."""
    tokens = np.floor(fraction * full_length + 0.5)
    if not (fraction > 0 and np.isfinite(tokens)):
        raise ValueError(
            f"budget fraction must be positive with a finite token count, got {fraction}"
        )
    return max(recent + 1, int(tokens))


def run_decode(source, policy_name: str, cfg: PruneConfig) -> RunReport:
    """Drive one policy over a synthetic decode or a recorded trace: the
    one-run case of run_decodes, run_decodes(source, [(policy_name,
    cfg)])[0]. cfg holds every knob the policy reads.

    Every source is a stream of TraceStep records: a SyntheticDecoder
    yields them from its logit slab, a trace holds them, and a SynthSpec
    is shorthand for SyntheticDecoder(spec). To build one slab for several
    runs, pass the runs to one run_decodes call. Each layer's cache is the
    array of global token ids it retains. Each step appends the new
    tokens' ids to every layer and lets the policy prune each layer from
    the key tags and a scorer of the logits over its retained ids. A synthetic source also
    has values, so it then measures the reconstruction error of the newest
    query's attention output against the unpruned cache, averaged over
    layers: it records each step's retained ids and scores every step in
    one batched pass per layer after the loop. A layer that keeps every
    key under smoothing 0 has error exactly 0.0 and is not computed, since
    its pruned output is the full output.

    The run is checked once, on entry: the policy name, the config and
    the source's tags. traceio.checked checks a trace's header and each of
    its records before the loop, which then reads only the checked copy,
    since a trace in memory may have been edited after it was built or
    read. A decoder's records need no checks. Each layer-step
    then calls the policy's unchecked kernel, not its step.
    """
    return run_decodes(source, [(policy_name, cfg)])[0]


class _Run:
    """One run of run_decodes: its checked policy and config, and what its
    steps have recorded so far (see RunReport)."""

    def __init__(self, policy_name: str, cfg: PruneConfig, source):
        policy = policies.get_policy(policy_name)
        validate_config(cfg)
        self.policy_name, self.cfg = policy_name, cfg
        self.kernel = getattr(policies, policy.kernel)
        self.smoothing = policy.smoothing(cfg)
        self.retained = [np.arange(source.prefill_tags.size) for _ in range(source.layers)]
        self.states = [None] * source.layers
        self.step_ids: list[list[np.ndarray]] = []
        self.step_ks: list[list[tuple[int, int]]] = []
        self.step_pruned: list[list[bool]] = []


def run_decodes(source, runs) -> list[RunReport]:
    """Drive several runs over one source in lockstep; one report per run,
    in order, each equal to that of run_decode on the run alone.

    runs is a sequence of (policy_name, cfg) pairs. Every run must share
    cfg.obs_window, since the source's records are read once for all of
    them: a decoder's steps are built once and a trace's records checked
    once per call, not once per run. Each run is checked as run_decode checks it, and every
    refusal (no run, a bad run, differing windows) comes before any step.

    At each layer-step, a dict keyed by (retained ids, smoothing) holds
    one scorer per key, shared by every run with that key: the logits over
    those ids are gathered and scored at most once, on the first kernel
    call that asks, and every such run reads the same read-only column
    mass. Runs that differ only in what their policy ignores (a global-topk
    sweep along smooth_n or cross_ratio, csp runs at several pool_width
    values) therefore score once per layer-step, whatever their number.
    After the loop, each layer's unpruned reconstruction outputs are
    computed once, by the first run that needs them, and shared by the
    rest; runs share nothing else.
    """
    if isinstance(source, SynthSpec):
        source = SyntheticDecoder(source)
    elif isinstance(source, AttentionTrace):
        source = checked(source)
    elif not isinstance(source, SyntheticDecoder):
        raise TypeError(f"cannot drive a decode from {type(source).__name__}")
    runs = [_Run(name, cfg, source) for name, cfg in runs]
    if not runs:
        raise ValueError("run_decodes needs at least one run")
    windows = sorted({run.cfg.obs_window for run in runs})
    if len(windows) > 1:
        raise ValueError(f"runs over one source must share obs_window, got {windows}")
    if isinstance(source, SyntheticDecoder):
        decoder, (slab, start) = source, source.slab(windows[0])
        steps = decoder._records(slab, start, windows[0])
        # Each step's newest query over every key.
        first = decoder.spec.prefill_len - 1 - start
        newest = slab[:, :, first : first + decoder.spec.steps + 1]
    else:
        decoder, steps = None, source.steps

    # Reports derive their decisions from these tags when read, so they
    # keep a read-only copy that no later edit of the source reaches.
    full_tags = as_tags(source.full_tags).copy()
    full_tags.flags.writeable = False
    full_len = source.prefill_tags.size
    for record in steps:
        added = record.new_tags.size
        full_len += added
        blocks = record.blocks
        rows = blocks.shape[2]
        new_ids = np.arange(full_len - added, full_len)
        window = min(windows[0], rows)
        select = policies._selector(full_tags[full_len - window : full_len], source.heads)
        for run in runs:
            if added:
                run.retained = [np.concatenate([ids, new_ids]) for ids in run.retained]
            run.step_ks.append([])
            run.step_pruned.append([])
        for layer in range(source.layers):
            scorers = {}
            for run in runs:
                ids = run.retained[layer]
                key = (ids.tobytes(), run.smoothing)
                if key not in scorers:
                    # Retained ids ascend, so a layer holding full_len of
                    # them holds every key and is scored from the block itself.
                    scorers[key] = policies._scorer(blocks[layer], select, run.smoothing,
                                                    None if ids.size == full_len else ids)
                keep, ks, run.states[layer] = run.kernel(full_tags[ids], scorers[key], run.cfg,
                                                         run.states[layer])
                if keep is not None:
                    run.retained[layer] = ids[keep]
                run.step_ks[-1].append(ks)
                run.step_pruned[-1].append(keep is not None)
        for run in runs:
            # A step replaces the arrays it changes, so a shallow copy records it.
            run.step_ids.append(run.retained.copy())

    # Each run's reconstruction error per step, the mean over layers.
    recon = ([[] for _ in runs] if decoder is None
             else [errors.mean(axis=1).tolist() for errors in _recon_errors(decoder, newest, runs)])
    return [
        RunReport(
            policy=run.policy_name,
            config=run.cfg,
            seed=run.cfg.seed if decoder is None else decoder.spec.seed,
            full_length=int(full_tags.size),
            head_dim=source.head_dim,
            recon_error=recon_error,
            retained_ids=[ids.copy() for ids in run.retained],
            retained_tags=[full_tags[ids] for ids in run.retained],
            full_tags=full_tags,
            step_ids=run.step_ids,
            step_ks=run.step_ks,
            step_pruned=run.step_pruned,
        )
        for run, recon_error in zip(runs, recon)
    ]


def _recon_errors(decoder, newest: np.ndarray, runs: list[_Run]) -> np.ndarray:
    """Every run's error (runs, steps, layers) at every step and layer:
    ||full attention output - pruned output|| for the newest query, heads
    concatenated, run.step_ids[step][layer] being the ids that layer
    retained after that step. newest[layer] holds each step's newest-query
    logits over every key.

    A step that keeps every key under smoothing 0 is not computed: kept ids
    are unique, so its pruned output is the full output and its error is
    exactly 0.0, which computing it could miss, since numpy's sums depend
    on buffer alignment. Both sides of every other step come from _outputs,
    each through a keep mask: a run's marks the ids it retained after each
    step, and the full side's is the causal one, every key alive at the
    step, under smoothing 0. The first run that scores a step at a layer
    computes the full side, and the layer's later runs reuse it.
    """
    lengths = decoder.spec.prefill_len + np.arange(decoder.spec.steps + 1)
    every = np.arange(lengths.size)
    errors = np.zeros((len(runs), lengths.size, decoder.layers))
    for layer in range(decoder.layers):
        logits, values, full = newest[layer], decoder.values(layer, slice(None)), None
        for run, run_errors in zip(runs, errors):
            kept = [ids[layer] for ids in run.step_ids]
            counts = np.array([ids.size for ids in kept])
            if run.smoothing == 0.0:
                scored = np.flatnonzero(counts < lengths)
                # The same refusal the softmax makes for an empty row, which
                # an all -inf row would otherwise turn into NaN.
                if not counts[scored].all():
                    raise ValueError("no columns and smoothing is 0; weights are undefined")
            else:
                scored = every
            if scored.size == 0:
                continue
            if full is None:
                causal = np.arange(logits.shape[-1]) < lengths[:, None]
                full = _outputs(logits, values, causal, every, 0.0)
            keep = np.zeros((lengths.size, logits.shape[-1]), dtype=bool)
            keep[np.repeat(every, counts), np.concatenate(kept)] = True
            diff = full[scored] - _outputs(logits, values, keep, scored, run.smoothing)
            run_errors[scored, layer] = np.sqrt(np.einsum("shd,shd->s", diff, diff))
    return errors


def _outputs(logits: np.ndarray, values: np.ndarray, keep: np.ndarray, steps: np.ndarray,
             smoothing: float) -> np.ndarray:
    """Attention outputs (steps.size, heads, head_dim) of the newest query
    at each of steps over the keys keep[step] marks.

    logits (heads, all steps, keys) holds each step's newest-query logits,
    keep (all steps, keys) is True at each step's kept keys, and values
    holds every key's value. In each chunk of steps the unkept logits are
    set to -inf, so they weigh exactly 0 in one smoothed softmax, and one
    matmul against the values gives the chunk's outputs.
    """
    heads, keys = logits.shape[0], logits.shape[2]
    out = np.empty((steps.size, heads, values.shape[1]))
    # A step's temporaries, in float64 values: its mask row (a byte a key),
    # per head its float32 logits and their masked copy (half a value a key
    # each), its float64 weights, their row max and sum, and its output.
    per_step = keys // 8 + heads * (2 * keys + 2 + values.shape[1])
    for chunk in _chunks(steps.size, per_step):
        rows = steps[chunk]
        # The steps checked these logits and the smoothing. One statement,
        # so that no temporary of a chunk outlives it.
        out[chunk] = _smoothed_softmax_rows(
            np.where(keep[rows], logits[:, rows], -np.inf), smoothing
        ).transpose(1, 0, 2) @ values
    return out


def record_trace(spec: SynthSpec, obs_window: int) -> AttentionTrace:
    """Run the synthetic decoder and capture its logit blocks as a trace.

    Each step holds its own writable copy of its blocks, not a view of the
    decoder's slab, so editing one recorded step changes no other.
    """
    decoder = SyntheticDecoder(spec)
    return AttentionTrace(
        layers=spec.layers,
        heads=spec.heads,
        head_dim=spec.head_dim,
        prefill_tags=decoder.prefill_tags,
        steps=[
            TraceStep(new_tags=step.new_tags, blocks=step.blocks.copy())
            for step in decoder.steps(obs_window)
        ],
    )


SWEEP_AXES = ("budget_fraction", "cross_ratio", "smooth_n")


def sweep(
    axis: str,
    grid,
    spec: SynthSpec,
    cfg: PruneConfig,
    policy_name: str,
) -> list[tuple[float, RunReport]]:
    """Run one decode per grid value, varying a single config axis.

    Rows come back in grid order. Every run is cfg with the axis field
    set to its grid value, so it keeps every other knob of cfg, the
    policy's included. The budget_fraction axis recomputes the token
    budget from the final length; the other axes keep cfg.budget as
    given. No axis changes obs_window, so every run reads one
    SyntheticDecoder in one run_decodes pass: the sweep builds one logit
    slab, and runs holding the same keys at a layer-step share their
    scoring there.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    values = [float(v) for v in grid]
    if not values:
        raise ValueError("sweep grid is empty")

    def configured(value: float) -> PruneConfig:
        if axis == "budget_fraction":
            return cfg.with_updates(
                budget=budget_for_fraction(value, spec.final_len, cfg.recent)
            )
        if axis == "cross_ratio":
            return cfg.with_updates(cross_ratio=value)
        return cfg.with_updates(smoothing=value)

    runs = [(policy_name, configured(value)) for value in values]
    return list(zip(values, run_decodes(SyntheticDecoder(spec), runs)))
