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

`run_decodes` drives any number of runs, each a policy, config and
options, over any of three sources (a SynthSpec, a SyntheticDecoder or an
AttentionTrace) with one loop over those records, all runs in lockstep;
`run_decode` is its one-run case, and `sweep` and the CLI's compare pass
it all their runs at once. It checks each run once, on entry, and a
trace's records once each per call, through traceio.checked_steps; a
decoder's records come unchecked from its finite float32 slab. The loop
then calls each run's unchecked kernel on every step and layer, handing it
a scorer that runs holding the same keys there share, bound to the run's
smoothing, so each distinct (keys, smoothing) is gathered and scored at
most once, and only if a kernel asks. A scoring is the read-only (2, cols)
column mass of the observation window, all any policy reads, and each step
builds its text/visual query selector from the sequence's tags once for
every layer and run. A synthetic run records each step's retained ids per
layer and scores its reconstruction error after the loop, one batched pass
per layer. One routine, _outputs, computes both sides: each step's
newest-query logits over its kept ids are gathered from the slab into one
array padded with -inf to the largest kept count, so pads weigh 0 in the
smoothed softmax, and one batched matmul against the gathered values gives
every step's output. The unpruned side keeps every key under smoothing 0;
it is computed once per layer per call, and only if some run scores a step
there. Steps go in chunks whose temporaries stay near RECON_CHUNK_FLOATS
values, so peak memory does not grow with the step count.
Traces carry no values or query vectors, so replays report no reconstruction
error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

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
from .scoring import _smoothed_softmax_rows, attention_logits
from .traceio import AttentionTrace, TraceStep, checked_steps

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
        tags = []
        text, visual = spec.text_len, spec.visual_len
        while text or visual:
            if visual:
                tags.append(VISUAL_CODE)
                visual -= 1
            if text:
                tags.append(TEXT_CODE)
                text -= 1
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
        # One K/V projection per layer, one Q projection per layer and head.
        self._keys = np.empty((spec.layers, spec.final_len, d))
        self._values = np.empty((spec.layers, spec.final_len, d))
        self._queries = np.empty((spec.layers, spec.heads, spec.final_len, d))
        for layer in range(spec.layers):
            w_k = proj_rng.standard_normal((d, d)) * scale
            w_v = proj_rng.standard_normal((d, d)) * scale
            self._keys[layer] = embeddings @ w_k.T
            self._values[layer] = embeddings @ w_v.T
            for head in range(spec.heads):
                w_q = proj_rng.standard_normal((d, d)) * scale
                self._queries[layer, head] = embeddings @ w_q.T

    def values(self, layer: int, ids: np.ndarray | slice) -> np.ndarray:
        return self._values[layer][ids]

    def logit_block(self, layer: int, query_ids: np.ndarray, key_ids: np.ndarray) -> np.ndarray:
        """Raw scores (heads, queries, keys) between token ids, in float32."""
        spec = self.spec
        q_tags = self.full_tags[query_ids]
        k_tags = self.full_tags[key_ids]
        cross = (q_tags[:, None] != k_tags[None, :]).astype(np.float64)
        out = np.empty((spec.heads, len(query_ids), len(key_ids)))
        keys = self._keys[layer][key_ids]
        # Overflow is refused below, with the flags that cause it, not warned of.
        with np.errstate(over="ignore", invalid="ignore"):
            for head in range(spec.heads):
                queries = self._queries[layer, head][query_ids]
                out[head] = spec.spread * attention_logits(queries, keys) - spec.shift * cross
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
            yield TraceStep.trusted(
                np.full(added, TEXT_CODE, dtype=np.uint8),
                slab[:, :, length - rows - start : length - start, :length],
            )


@dataclass
class RunReport:
    """Everything a completed decode run produced, per step and per layer."""

    policy: str
    config: PruneConfig
    seed: int
    full_length: int
    per_step: list[list[PolicyDecision]]
    bytes_cached: list[int]
    recon_error: list[float]
    retained_ids: list[np.ndarray]
    retained_tags: list[np.ndarray]

    @property
    def steps(self) -> int:
        return len(self.per_step)

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


def run_decode(source, policy_name: str, cfg: PruneConfig, **policy_kwargs) -> RunReport:
    """Drive one policy over a synthetic decode or a recorded trace: the
    one-run case of run_decodes, run_decodes(source, [(policy_name, cfg,
    policy_kwargs)])[0].

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

    The run is checked once, on entry: the config, the policy options
    (omitted ones take their table defaults; an unknown keyword is a
    TypeError) and the source's tags. traceio.checked_steps checks a
    trace's header and each of its records as the loop reaches them, since
    a trace in memory may have been edited after it was built or read. A
    decoder's records need no checks. Each layer-step then calls the
    policy's unchecked kernel, not its step.
    """
    return run_decodes(source, [(policy_name, cfg, policy_kwargs)])[0]


class _Run:
    """One run of run_decodes: its checked policy, config and options, and
    what its steps have decided so far."""

    def __init__(self, policy_name: str, cfg: PruneConfig, options: dict, source):
        policy = policies.get_policy(policy_name)
        validate_config(cfg)
        self.policy_name, self.cfg = policy_name, cfg
        self.options = policies.run_options(policy_name, options)
        self.kernel = getattr(policies, policy.kernel)
        self.smoothing = policy.smoothing(cfg, self.options)
        self.retained = [np.arange(source.prefill_tags.size) for _ in range(source.layers)]
        self.states = [None] * source.layers
        self.per_step: list[list[PolicyDecision]] = []
        self.bytes_cached: list[int] = []
        self.kept: list[list[np.ndarray]] = []


def run_decodes(source, runs) -> list[RunReport]:
    """Drive several runs over one source in lockstep; one report per run,
    in order, each equal to that of run_decode on the run alone.

    runs is a sequence of (policy_name, cfg, options), options being the
    policy's keyword options as a dict. Every run must share cfg.obs_window,
    since the source's records are read once for all of them: a decoder's
    steps are built once and a trace's records checked once per call, not
    once per run. Each run is checked as run_decode checks it, and every
    refusal (no run, a bad run, differing windows) comes before any step.

    At each layer-step, runs that retain the same ids share one scorer:
    the logits over those ids are gathered at most once and scored at
    most once per smoothing, on the first kernel call that asks, and every
    run reads the same read-only column mass. Runs that differ only in what
    their policy ignores (a global-topk sweep along smooth_n or
    cross_ratio) therefore score once per layer-step, whatever their
    number. Runs share nothing else, and the reconstruction error is
    scored per run after the loop.
    """
    if isinstance(source, SynthSpec):
        source = SyntheticDecoder(source)
    if not isinstance(source, (SyntheticDecoder, AttentionTrace)):
        raise TypeError(f"cannot drive a decode from {type(source).__name__}")
    runs = [_Run(name, cfg, options, source) for name, cfg, options in runs]
    if not runs:
        raise ValueError("run_decodes needs at least one run")
    windows = sorted({run.cfg.obs_window for run in runs})
    if len(windows) > 1:
        raise ValueError(f"runs over one source must share obs_window, got {windows}")
    if isinstance(source, SyntheticDecoder):
        decoder, (slab, start) = source, source.slab(windows[0])
        steps = decoder._records(slab, start, windows[0])
        # Each step's newest query over every key, and per layer the
        # unpruned outputs, shared by every run of this call.
        first = decoder.spec.prefill_len - 1 - start
        newest, full = slab[:, :, first : first + decoder.spec.steps + 1], [None] * decoder.layers
    else:
        decoder, steps = None, checked_steps(source)

    full_tags = as_tags(source.full_tags)
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
            run.per_step.append([])
        for layer in range(source.layers):
            scorers = {}
            for run in runs:
                ids = run.retained[layer]
                key = ids.tobytes()
                if key not in scorers:
                    # Retained ids ascend, so a layer holding full_len of
                    # them holds every key and is scored from the block itself.
                    scorers[key] = policies._scorer(blocks[layer], select,
                                                    None if ids.size == full_len else ids)
                keep, decision, run.states[layer] = run.kernel(
                    full_tags[ids], partial(scorers[key], run.smoothing), run.cfg,
                    run.states[layer], run.options,
                )
                if decision.pruned:
                    run.retained[layer] = ids[keep]
                run.per_step[-1].append(decision)
        for run in runs:
            # float32 keys and values for every retained token.
            run.bytes_cached.append(sum(ids.size * 2 * source.head_dim * 4
                                        for ids in run.retained))
            if decoder is not None:
                # A step replaces the arrays it changes, so a shallow copy records it.
                run.kept.append(run.retained.copy())

    return [
        RunReport(
            policy=run.policy_name,
            config=run.cfg,
            seed=run.cfg.seed,
            full_length=int(full_tags.size),
            per_step=run.per_step,
            bytes_cached=run.bytes_cached,
            recon_error=[] if decoder is None else _recon_error(decoder, newest, full, run.kept,
                                                                run.smoothing),
            retained_ids=[ids.copy() for ids in run.retained],
            retained_tags=[full_tags[ids] for ids in run.retained],
        )
        for run in runs
    ]


def _recon_error(decoder, newest: np.ndarray, full: list, kept: list[list[np.ndarray]],
                 smoothing: float) -> list[float]:
    """Each step's mean over layers of ||full attention output - pruned
    output|| for the newest query, heads concatenated.

    kept[step][layer] holds the ids that layer retained after that step; a
    run's steps are the decoder's, in order. newest[layer] holds each
    step's newest-query logits over every key, and full[layer] the layer's
    unpruned outputs, or None until some run scores a step there.
    """
    errors = np.zeros((len(kept), decoder.layers))
    for layer in range(decoder.layers):
        errors[:, layer] = _layer_errors(decoder, newest, full, layer,
                                         [ids[layer] for ids in kept], smoothing)
    return errors.mean(axis=1).tolist()


def _layer_errors(decoder, newest: np.ndarray, full: list, layer: int, kept: list[np.ndarray],
                  smoothing: float) -> np.ndarray:
    """One layer's error at every step, kept[step] being its retained ids.

    A step that keeps every key under smoothing 0 is not computed: kept ids
    are unique, so its pruned output is the full output and its error is
    exactly 0.0, which computing it could miss, since numpy's sums depend
    on buffer alignment. Both sides of every other step come from _outputs;
    the full side keeps every key under smoothing 0, once per layer.
    """
    lengths = decoder.spec.prefill_len + np.arange(len(kept))
    counts = np.array([ids.size for ids in kept])
    if smoothing == 0.0:
        scored = np.flatnonzero(counts < lengths)
        # The same refusal the softmax makes for an empty row, which a padded
        # row would otherwise turn into NaN.
        if not counts[scored].all():
            raise ValueError("no columns and smoothing is 0; weights are undefined")
    else:
        scored = np.arange(len(kept))
    errors = np.zeros(len(kept))
    if scored.size == 0:
        return errors
    values = decoder.values(layer, slice(None))
    if full[layer] is None:
        every = [np.arange(length) for length in lengths]
        full[layer] = _outputs(newest[layer], values, every, np.arange(len(kept)), 0.0)
    diff = full[layer][scored] - _outputs(newest[layer], values, kept, scored, smoothing)
    errors[scored] = np.sqrt(np.einsum("shd,shd->s", diff, diff))
    return errors


def _outputs(logits: np.ndarray, values: np.ndarray, kept: list[np.ndarray], steps: np.ndarray,
             smoothing: float) -> np.ndarray:
    """Attention outputs (steps.size, heads, head_dim) of the newest query
    at each of steps over its kept keys, kept[step] being their ids.

    logits (heads, all steps, keys) holds each step's newest-query logits
    and values every key's value. In each chunk of steps the logits over
    the kept ids are gathered into one (heads, steps, width) array, padded
    with -inf up to the largest kept count so pads weigh 0, weighed by one
    smoothed softmax and multiplied by the gathered values in one batched
    matmul.
    """
    heads, head_dim = logits.shape[0], values.shape[1]
    counts = np.array([kept[step].size for step in steps])
    width = int(counts.max())
    out = np.empty((steps.size, heads, head_dim))
    for chunk in _chunks(steps.size, width * (3 * heads + head_dim + 1)):
        rows = steps[chunk]
        pads = np.arange(width) >= counts[chunk, None]
        cols = np.zeros(pads.shape, dtype=np.intp)
        cols[~pads] = np.concatenate([kept[step] for step in rows])
        gathered = logits[:, rows[:, None], cols]
        gathered[:, pads] = -np.inf
        # The steps checked these logits and the smoothing.
        weights = _smoothed_softmax_rows(gathered.reshape(heads * rows.size, width), smoothing)
        weights = weights.reshape(heads, rows.size, width).transpose(1, 0, 2)
        # take copies what values[cols] would, in about 2/3 of its time here.
        out[chunk] = weights @ values.take(cols, axis=0)
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
    **policy_kwargs,
) -> list[tuple[float, RunReport]]:
    """Run one decode per grid value, varying a single config axis.

    Rows come back in grid order. The budget_fraction axis recomputes the
    token budget from the final length; the other axes keep cfg.budget as
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

    runs = [(policy_name, configured(value), policy_kwargs) for value in values]
    return list(zip(values, run_decodes(SyntheticDecoder(spec), runs)))
