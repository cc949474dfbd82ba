"""KV-cache eviction for multimodal decoders.

The core idea: split each candidate key's attention importance by whether
the attending queries share its modality, rank the two scores separately,
and keep only keys that rank highly under both. A smoothed softmax accounts
for the probability mass the evicted keys used to hold. Baseline policies,
a synthetic decode simulator, trace file I/O, distribution diagnostics and
a CLI round out the toolkit.
"""

from .core import (
    TEXT,
    VISUAL,
    ModalityTag,
    PruneConfig,
    as_tags,
    tag_counts,
    validate_config,
)
from .scoring import (
    attention_logits,
    head_average,
    smoothed_softmax_rows,
    softmax_rows,
    trim_observation,
)
from .decompose import ImportanceScores, cross_self_importance
from .selection import budget_to_k, cross_self_select, topk_mask
from .policies import (
    POLICIES,
    PolicyDecision,
    accumulated_score_step,
    csp_step,
    full_cache_step,
    global_topk_step,
    policy_step,
)
from .simulator import (
    INTERLEAVE_MODES,
    SWEEP_AXES,
    RunReport,
    SyntheticDecoder,
    SynthSpec,
    budget_for_fraction,
    prefill_tags,
    record_trace,
    run_decode,
    run_decodes,
    sweep,
)
from .traceio import (
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
from .diagnostics import (
    DensityCurve,
    DivergenceReport,
    LayerReport,
    js_divergence,
    kde,
    layer_report,
    silverman_bandwidth,
)
from .reports import ResultsRow, results_csv, steps_csv, summarize

__version__ = "0.1.0"

__all__ = [
    "AttentionTrace",
    "BadMagicError",
    "DensityCurve",
    "DivergenceReport",
    "INTERLEAVE_MODES",
    "ImportanceScores",
    "LayerReport",
    "ModalityTag",
    "NonFiniteLogitError",
    "POLICIES",
    "PolicyDecision",
    "PruneConfig",
    "ResultsRow",
    "RunReport",
    "SWEEP_AXES",
    "SizeMismatchError",
    "SynthSpec",
    "SyntheticDecoder",
    "TEXT",
    "TraceError",
    "TraceStep",
    "TruncatedTraceError",
    "UnsupportedVersionError",
    "VISUAL",
    "accumulated_score_step",
    "as_tags",
    "attention_logits",
    "budget_for_fraction",
    "budget_to_k",
    "cross_self_importance",
    "cross_self_select",
    "csp_step",
    "full_cache_step",
    "global_topk_step",
    "head_average",
    "js_divergence",
    "kde",
    "layer_report",
    "policy_step",
    "prefill_tags",
    "read_trace",
    "record_trace",
    "results_csv",
    "run_decode",
    "run_decodes",
    "silverman_bandwidth",
    "smoothed_softmax_rows",
    "softmax_rows",
    "steps_csv",
    "summarize",
    "sweep",
    "tag_counts",
    "topk_mask",
    "trim_observation",
    "validate_config",
    "write_trace",
]
