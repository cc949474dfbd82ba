"""CSV and JSON result emission.

All numeric formatting funnels through one %.9g formatter so a fixed run
produces byte-identical files, which the tests rely on. Missing values
(reconstruction error on trace replays) become empty cells.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .simulator import RunReport

STEP_COLUMNS = (
    "step",
    "layer",
    "policy",
    "budget_fraction",
    "cross_ratio",
    "smooth_n",
    "seed",
    "pruned",
    "cache_len",
    "text_retained",
    "visual_retained",
    "recon_error",
    "bytes_cached",
)


@dataclass(frozen=True)
class ResultsRow:
    """One summary line per (policy, grid point, seed)."""

    policy: str
    budget_fraction: float
    cross_ratio: float
    smooth_n: float
    seed: int
    achieved_occupancy: float
    text_retained: int
    visual_retained: int
    mean_recon_error: float | None
    bytes_cached: int

    def cells(self) -> list:
        return [getattr(self, name) for name in RESULTS_COLUMNS]


# The results CSV's header: ResultsRow's fields, in declaration order.
RESULTS_COLUMNS = tuple(field.name for field in fields(ResultsRow))


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return "%.9g" % value
    return str(value)


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(format_cell(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def summarize(report: RunReport, budget_fraction: float | None = None) -> ResultsRow:
    """Collapse a run into one results row.

    budget_fraction defaults to the configured budget over the final
    sequence length; sweeps pass the grid value instead.
    """
    if not report.steps:
        raise ValueError("the run has no steps to summarize")
    if budget_fraction is None:
        budget_fraction = report.config.budget / report.full_length
    text, visual = report.retained_counts
    mean_recon = float(np.mean(report.recon_error)) if report.recon_error else None
    mean_len = sum(ids.size for ids in report.retained_ids) / len(report.retained_ids)
    return ResultsRow(
        policy=report.policy,
        budget_fraction=float(budget_fraction),
        cross_ratio=report.config.cross_ratio,
        smooth_n=report.config.smoothing,
        seed=report.seed,
        achieved_occupancy=mean_len,
        text_retained=text,
        visual_retained=visual,
        mean_recon_error=mean_recon,
        bytes_cached=report.bytes_cached[-1],
    )


def results_csv(rows) -> str:
    return _csv(RESULTS_COLUMNS, [row.cells() for row in rows])


def step_rows(report: RunReport, budget_fraction: float | None = None) -> list:
    if budget_fraction is None:
        budget_fraction = report.config.budget / report.full_length
    cfg = report.config
    rows = []
    for step, decisions in enumerate(report.per_step):
        recon = report.recon_error[step] if report.recon_error else None
        for layer, decision in enumerate(decisions):
            text, visual = decision.per_modality_retained
            rows.append(
                [
                    step,
                    layer,
                    report.policy,
                    float(budget_fraction),
                    cfg.cross_ratio,
                    cfg.smoothing,
                    report.seed,
                    decision.pruned,
                    decision.achieved_occupancy,
                    text,
                    visual,
                    recon,
                    report.bytes_cached[step],
                ]
            )
    return rows


def steps_csv(reports, budget_fraction: float | None = None) -> str:
    """Per-step CSV; accepts one report or a list (policies concatenate)."""
    if isinstance(reports, RunReport):
        reports = [reports]
    rows = []
    for report in reports:
        rows.extend(step_rows(report, budget_fraction))
    return _csv(STEP_COLUMNS, rows)


def divergence_csv(report) -> str:
    rows = [[layer, value] for layer, value in report.divergence.per_layer]
    return _csv(("layer", "js_divergence"), rows)


def density_csv(report) -> str:
    """One row per grid point of every curve, formatted as format_cell
    would format each cell, but from whole arrays."""
    lines = ["layer,pairing,weight,density"]
    for layer, (intra, inter) in enumerate(report.curves):
        for kind, curve in (("intra", intra), ("inter", inter)):
            prefix = f"{layer},{kind},"
            pairs = zip(curve.grid.tolist(), curve.density.tolist())
            lines.extend(prefix + "%.9g,%.9g" % pair for pair in pairs)
    return "\n".join(lines) + "\n"


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_config_sidecar(out_path, payload: dict) -> str:
    """Echo the fully resolved run configuration next to its output file,
    with the kvprune, numpy and Python versions under "versions"."""
    versions = {
        "kvprune": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    sidecar = f"{out_path}.config.json"
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump({**payload, "versions": versions}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sidecar
