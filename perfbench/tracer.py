"""Span tracing of kvprune from outside the package.

`Tracer.install` replaces each traced function with a wrapper that records
a span: name, start, end, parent span, job id and thread id. Every binding
of the function is patched, the defining module and each `from .x import
name` site, so calls through any of them are seen. A target that no longer
exists is listed in `missing` and reports zero calls.

Spans stay in memory; `write` stores them once, at the end of a run. Each
thread keeps its own span stack. A span opened on a thread with an empty
stack (a sweep worker) takes as parent the innermost open span of the
thread that runs the job, which is the `sweep` span blocked in the pool.

Self time is a span's duration minus the part of it that its children
cover, so it stays correct when children run concurrently on pool threads.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict

# Span fields, stored as lists so a wrapper can fill in the end time.
NAME, START, END, PARENT, JOB, THREAD, ATTRS = range(7)


def _kv_bytes(args, kwargs, result):
    return {"bytes": int(result.keys.nbytes + result.values.nbytes + result.tags.nbytes)}


def _fill(args, kwargs, result):
    scores, cfg = args[0], args[1]
    pool = max(cfg.budget - cfg.recent, 0)
    return {"mask": len(result), "target": min(pool, len(scores))}


def _pruned(args, kwargs, result):
    return {"pruned": bool(result[1].pruned)}


def _file_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else args[0]
    return {"bytes": os.path.getsize(path)}


def _kernel_evals(args, kwargs, result):
    samples = args[0]
    return {"evals": int(getattr(samples, "size", len(samples))) * int(result.grid.size)}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result)}


# (span name, module, attribute path, hook). Several targets may share a
# span name; the hook turns (args, kwargs, result) into span attributes.
TARGETS = (
    ("simulator.logit_block", "kvprune.simulator", "SyntheticDecoder.logit_block", None),
    ("simulator.recon_error", "kvprune.simulator", "_recon_error", None),
    ("simulator.run_decode", "kvprune.simulator", "run_decode", None),
    ("simulator.record_trace", "kvprune.simulator", "record_trace", None),
    ("simulator.sweep", "kvprune.simulator", "sweep", None),
    ("core.kv_append", "kvprune.core", "KvCacheState.appended", _kv_bytes),
    ("core.kv_gather", "kvprune.core", "KvCacheState.gather", _kv_bytes),
    ("core.as_tags", "kvprune.core", "as_tags", None),
    ("scoring.smoothed_softmax_rows", "kvprune.scoring", "smoothed_softmax_rows", None),
    ("scoring.softmax_rows", "kvprune.scoring", "softmax_rows", None),
    ("scoring.attention_logits", "kvprune.scoring", "attention_logits", None),
    ("decompose.cross_self_importance", "kvprune.decompose", "cross_self_importance", None),
    ("decompose.block_views", "kvprune.decompose", "block_views", None),
    ("selection.cross_self_select", "kvprune.selection", "cross_self_select", _fill),
    ("selection.topk_mask", "kvprune.selection", "topk_mask", None),
    ("selection.apply_prune", "kvprune.selection", "apply_prune", None),
    ("policies.csp.step", "kvprune.policies", "csp_step", _pruned),
    ("policies.global-topk.step", "kvprune.policies", "global_topk_step", _pruned),
    ("policies.accum.step", "kvprune.policies", "accumulated_score_step", _pruned),
    ("policies.full.step", "kvprune.policies", "full_cache_step", _pruned),
    ("traceio.read_trace", "kvprune.traceio", "read_trace", _file_bytes),
    ("traceio.write_trace", "kvprune.traceio", "write_trace", _file_bytes),
    ("diagnostics.kde", "kvprune.diagnostics", "kde", _kernel_evals),
    ("diagnostics.js_divergence", "kvprune.diagnostics", "js_divergence", None),
    ("diagnostics.modality_weight_samples", "kvprune.diagnostics", "modality_weight_samples", None),
    ("reports.csv", "kvprune.reports", "results_csv", _text_bytes),
    ("reports.csv", "kvprune.reports", "steps_csv", _text_bytes),
    ("reports.csv", "kvprune.reports", "divergence_csv", _text_bytes),
    ("reports.csv", "kvprune.reports", "density_csv", _text_bytes),
    ("plots.svg", "kvprune.plots", "line_chart", None),
    ("plots.svg", "kvprune.plots", "bar_chart", None),
    ("cli.main", "kvprune.cli", "main", None),
)

# Span names whose calls and self time are reported as
# `<name>.calls` and `<name>.self_s`.
COUNTED = tuple(dict.fromkeys(
    name for name, *_ in TARGETS if name not in ("reports.csv", "plots.svg", "cli.main")))

POLICY_STEPS = tuple(name for name in COUNTED if name.startswith("policies."))

# Inclusive times: the summed duration of the outermost spans of a group,
# so time spent in children (often in other modules) counts towards it.
INCLUSIVE = {
    "simulator.logits_recon.total_s": ("simulator.logit_block", "simulator.recon_error"),
    "policies.step.total_s": POLICY_STEPS,
    "selection.cross_self_select.total_s": ("selection.cross_self_select",),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.hook_errors: dict[str, str] = {}
        self._local = threading.local()
        self._job_stack: list | None = None
        self._job = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._job_stack:
            parent = self._job_stack[-1]
        else:
            parent = None
        span = [name, 0.0, 0.0, parent, self._job, threading.get_ident(), None]
        self.spans.append(span)
        stack.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack().pop()

    def begin_job(self, job_id: int) -> None:
        self._job = job_id
        self._job_stack = self._stack()
        self._open("job")

    def end_job(self) -> None:
        self._close(self._job_stack[-1])
        self._job = None

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                try:
                    span[ATTRS] = hook(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError, OSError) as err:
                    tracer.hook_errors[name] = f"{type(err).__name__}: {err}"
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; list the ones that do not exist as missing."""
        for name, module_name, path, hook in targets:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{path}")
                continue
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(name, original, hook)
            if owners:
                setattr(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "kvprune" and not mod_name.startswith("kvprune."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def write(self, path: str) -> None:
        """Store every span as one JSON line; parents are line indexes."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                parent = index.get(id(span[PARENT])) if span[PARENT] is not None else None
                fh.write(json.dumps([span[NAME], span[START], span[END], parent,
                                     span[JOB], span[THREAD], span[ATTRS]]) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> list[float]:
    """Per span: duration minus the time its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            parent = span[PARENT]
            children[id(parent)].append(
                (max(span[START], parent[START]), min(span[END], parent[END]))
            )
    return [span[END] - span[START] - _covered(children.get(id(span), ())) for span in spans]


def _outermost_total(spans, names) -> float:
    total = 0.0
    for span in spans:
        if span[NAME] not in names:
            continue
        parent = span[PARENT]
        while parent is not None and parent[NAME] not in names:
            parent = parent[PARENT]
        if parent is None:
            total += span[END] - span[START]
    return total


def _max_overlap(intervals) -> int:
    events = sorted([(s, 1) for s, _ in intervals] + [(e, -1) for _, e in intervals])
    best = current = 0
    for _, delta in events:
        current += delta
        best = max(best, current)
    return best


def layer_metrics(spans, jobs: int) -> dict:
    """Per-job counts and self times by span name, plus derived ratios.

    Returns {metric name: (value, unit)}. Counts and times are divided by
    the number of traced jobs; ratios use their own stated bases.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    attr_sum = defaultdict(float)
    for span, own in zip(spans, selfs):
        calls[span[NAME]] += 1
        self_s[span[NAME]] += own
        for key, value in (span[ATTRS] or {}).items():
            attr_sum[(span[NAME], key)] += value

    out = {}
    for name in COUNTED:
        out[f"{name}.calls"] = (calls[name] / jobs, "count/job")
        out[f"{name}.self_s"] = (self_s[name] / jobs, "s/job")

    for metric, names in INCLUSIVE.items():
        out[metric] = (_outermost_total(spans, names) / jobs, "s/job")

    decode_spans = defaultdict(list)
    for span in spans:
        if span[NAME] == "simulator.run_decode":
            decode_spans[span[JOB]].append((span[START], span[END]))
    threads = max((_max_overlap(v) for v in decode_spans.values()), default=0)
    out["simulator.sweep.threads"] = (threads, "count")

    kv_bytes = attr_sum[("core.kv_append", "bytes")] + attr_sum[("core.kv_gather", "bytes")]
    out["core.kv_bytes_copied"] = (kv_bytes / jobs, "B/job")

    topk_under_select = defaultdict(int)
    for span in spans:
        parent = span[PARENT]
        if span[NAME] == "selection.topk_mask" and parent is not None \
                and parent[NAME] == "selection.cross_self_select":
            topk_under_select[id(parent)] += 1
    rounds = sum(max(count // 2 - 1, 0) for count in topk_under_select.values())
    out["selection.widen_rounds"] = (rounds / jobs, "count/job")
    target = attr_sum[("selection.cross_self_select", "target")]
    out["selection.fill_ratio"] = (
        attr_sum[("selection.cross_self_select", "mask")] / target if target else 0.0, "ratio")

    steps = sum(calls[name] for name in POLICY_STEPS)
    pruned = sum(attr_sum[(name, "pruned")] for name in POLICY_STEPS)
    out["policies.pruned_share"] = (pruned / steps if steps else 0.0, "ratio")

    mib = 1024.0 * 1024.0
    for op, key in (("read", "traceio.read_trace"), ("write", "traceio.write_trace")):
        moved = attr_sum[(key, "bytes")] / mib
        out[f"traceio.{op}_mb_per_s"] = (moved / self_s[key] if self_s[key] else 0.0, "MiB/s")

    out["diagnostics.kde.kernel_evals"] = (attr_sum[("diagnostics.kde", "evals")] / jobs, "count/job")
    out["reports.csv.self_s"] = (self_s["reports.csv"] / jobs, "s/job")
    out["reports.csv_bytes"] = (attr_sum[("reports.csv", "bytes")] / jobs, "B/job")
    out["plots.svg.self_s"] = (self_s["plots.svg"] / jobs, "s/job")
    out["cli.main.self_s"] = (self_s["cli.main"] / jobs, "s/job")
    return out


def thread_self_sums(spans) -> dict:
    """Per (job, thread): total self time, for checking against job wall."""
    sums = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        sums[(span[JOB], span[THREAD])] += own
    return dict(sums)
