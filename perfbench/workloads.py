"""The three benchmark workloads: inputs, one timed job, and output checks.

Every job drives the public CLI in-process through `kvprune.cli.main(argv)`.
Why each workload exists, and which layer dominates it, is in README.md.

A check returns a list of failure messages; an empty list means the job's
outputs are correct. Checks that hold for any seed always run. Byte digests
and reference KDE curves apply only when the seed and shape match the ones
recorded in reference.json.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import traceback
import xml.etree.ElementTree as ET

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 7

# Relative tolerance of a KDE curve against its reference: max absolute
# difference over the reference grid, divided by the reference peak.
KDE_RTOL = 1e-3
KDE_MASS_TOL = 0.05

RESULTS_COLUMNS = [
    "policy", "budget_fraction", "cross_ratio", "smooth_n", "seed", "achieved_occupancy",
    "text_retained", "visual_retained", "mean_recon_error", "bytes_cached",
]
STEP_COLUMNS = [
    "step", "layer", "policy", "budget_fraction", "cross_ratio", "smooth_n", "seed", "pruned",
    "cache_len", "text_retained", "visual_retained", "recon_error", "bytes_cached",
]
DIVERGENCE_COLUMNS = ["layer", "js_divergence"]
KDE_COLUMNS = ["layer", "pairing", "weight", "density"]

SHAPES = {
    "sweep-live": {
        "text": 48, "visual": 48, "interleave": "alternating", "layers": 2, "heads": 4,
        "dim": 32, "steps": 12, "recent": 16, "obs": 16, "grid": [0.1, 0.25, 0.6],
        "policies": ["csp", "global-topk", "accum", "full"],
    },
    "replay-widen": {
        "text": 256, "visual": 256, "interleave": "alternating", "layers": 2, "heads": 4,
        "dim": 32, "steps": 8, "shift": 2.0, "obs": 32, "recent": 32, "budget": 0.25,
        "policies": ["csp", "global-topk", "accum"],
    },
    "trace-analyze": {
        "text": 32, "visual": 32, "interleave": "block", "layers": 2, "heads": 2,
        "dim": 16, "steps": 4, "shift": 2.0, "obs": 32,
    },
}

WORKLOADS = tuple(SHAPES)


def budget_tokens(fraction: float, full_length: int, recent: int) -> int:
    """Token budget of a budget fraction, as the CLI documents it."""
    return max(recent + 1, int(math.floor(fraction * full_length + 0.5)))


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def trace_size(prefill: int, new_per_step: list, layers: int, heads: int, obs: int) -> int:
    """Bytes of a CSPT trace, from the layout in kvprune.traceio."""
    size = 4 + 16 + prefill
    length = prefill
    for new in new_per_step:
        length += new
        rows = min(obs, length)
        size += 4 + new + layers * heads * (8 + 4 * rows * length)
    return size


def _read_csv(path: str):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def _spec_flags(shape: dict) -> list:
    flags = []
    for key in ("text", "visual", "interleave", "layers", "heads", "dim", "steps", "shift"):
        if key in shape:
            flags += [f"--{key}", str(shape[key])]
    return flags


def run_commands(cli, commands) -> list:
    """Run CLI invocations in order, stopping at the first failure.

    Returns (argv, exit code or None if it raised, captured stdout, stderr).
    """
    results = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:  # a job that raises is a failed job, not a crashed run
                code = None
                err.write(traceback.format_exc())
        results.append((argv, code, out.getvalue(), err.getvalue()))
        if code != 0:
            break
    return results


class Workload:
    """One workload at one seed and shape, writing into `workdir`."""

    name = ""
    # Kernel that job times are calibrated against (worker.calibrate): the
    # kind whose speed follows the host's the way this workload's does.
    calibration = "compute"

    def __init__(self, workdir: str, seed: int, shape: dict | None = None):
        self.workdir = workdir
        self.seed = int(seed)
        self.shape = dict(SHAPES[self.name] if shape is None else shape)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    @property
    def prefill(self) -> int:
        return self.shape["text"] + self.shape["visual"]

    @property
    def full_length(self) -> int:
        return self.prefill + self.shape["steps"]

    def setup_commands(self) -> list:
        return []

    def check_setup(self) -> list:
        return []

    def job_commands(self) -> list:
        raise NotImplementedError

    def outputs(self) -> list:
        """Files a job writes; removed before each job so none is stale."""
        raise NotImplementedError

    def step_layers(self) -> int:
        """Decode steps x layers x policy runs that one job processes."""
        raise NotImplementedError

    def check_outputs(self, reference: dict | None) -> list:
        raise NotImplementedError

    def clear_outputs(self) -> None:
        for path in self.outputs():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

    def check(self, results, reference: dict | None) -> list:
        errors = []
        for argv, code, out, err in results:
            if code != 0:
                errors.append(f"{argv[0]} exited {code}: {err.strip()[-400:]}")
        if errors or len(results) != len(self.job_commands()):
            return errors or ["job stopped early"]
        try:
            return self.check_outputs(reference)
        except (OSError, ValueError, KeyError, IndexError, ET.ParseError) as err:
            return [f"unreadable output: {type(err).__name__}: {err}"]

    def _check_sidecar(self, out_path: str, outputs: list, errors: list) -> dict:
        with open(out_path + ".config.json", encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("outputs") != outputs:
            errors.append(f"{os.path.basename(out_path)}: sidecar lists {payload.get('outputs')}")
        return payload

    @staticmethod
    def _check_svg(path: str, errors: list) -> None:
        if not ET.parse(path).getroot().tag.endswith("svg"):
            errors.append(f"{os.path.basename(path)} is not an SVG document")

    def _check_digests(self, reference: dict | None, errors: list) -> None:
        if reference is None:
            return
        for name, digest in reference["sha256"].items():
            if sha256(self.path(name)) != digest:
                errors.append(f"{name} differs from the reference bytes")

    def _check_trace_file(self, path: str, obs: int, errors: list) -> None:
        expected = trace_size(self.prefill, [0] + [1] * self.shape["steps"],
                              self.shape["layers"], self.shape["heads"], obs)
        actual = os.path.getsize(path)
        if actual != expected:
            errors.append(f"{os.path.basename(path)} holds {actual} bytes, expected {expected}")


class SweepLive(Workload):
    """Budget sweep over a live synthetic decode, once per policy."""

    name = "sweep-live"

    def _out(self, policy: str) -> str:
        return self.path(f"sweep-{policy}.csv")

    def job_commands(self) -> list:
        s = self.shape
        grid = ",".join(str(v) for v in s["grid"])
        return [
            ["sweep", "--axis", "budget_fraction", "--grid", grid, "--svg", "--policy", policy,
             *_spec_flags(s), "--recent", str(s["recent"]), "--obs", str(s["obs"]),
             "--seed", str(self.seed), "--out", self._out(policy)]
            for policy in s["policies"]
        ]

    def outputs(self) -> list:
        files = []
        for policy in self.shape["policies"]:
            out = self._out(policy)
            files += [out, out[:-4] + ".svg", out + ".config.json"]
        return files

    def step_layers(self) -> int:
        s = self.shape
        return len(s["policies"]) * len(s["grid"]) * (s["steps"] + 1) * s["layers"]

    def check_outputs(self, reference) -> list:
        s = self.shape
        errors = []
        for policy in s["policies"]:
            out = self._out(policy)
            tag = os.path.basename(out)
            header, rows = _read_csv(out)
            if header != RESULTS_COLUMNS:
                errors.append(f"{tag}: header {header}")
                continue
            if len(rows) != len(s["grid"]):
                errors.append(f"{tag}: {len(rows)} rows for {len(s['grid'])} grid points")
                continue
            for fraction, row in zip(s["grid"], rows):
                cell = dict(zip(header, row))
                if cell["policy"] != policy or cell["seed"] != str(self.seed):
                    errors.append(f"{tag}: row labelled {cell['policy']}/{cell['seed']}")
                if float(cell["budget_fraction"]) != fraction:
                    errors.append(f"{tag}: budget_fraction {cell['budget_fraction']} != {fraction}")
                occupancy = float(cell["achieved_occupancy"])
                recon = float(cell["mean_recon_error"])
                if not (math.isfinite(recon) and recon >= 0.0):
                    errors.append(f"{tag}: mean_recon_error {recon}")
                if policy == "full":
                    if occupancy != self.full_length or recon > 1e-9:
                        errors.append(f"{tag}: full cache kept {occupancy} tokens, error {recon}")
                elif occupancy > budget_tokens(fraction, self.full_length, s["recent"]):
                    errors.append(f"{tag}: occupancy {occupancy} over budget at {fraction}")
                if int(cell["bytes_cached"]) <= 0:
                    errors.append(f"{tag}: bytes_cached {cell['bytes_cached']}")
            svg = out[:-4] + ".svg"
            self._check_sidecar(out, [out, svg], errors)
            self._check_svg(svg, errors)
        self._check_digests(reference, errors)
        return errors


class ReplayWiden(Workload):
    """Three policies with widening over one large pre-recorded trace."""

    name = "replay-widen"

    @property
    def trace(self) -> str:
        return self.path("input.trace")

    @property
    def out(self) -> str:
        return self.path("compare.csv")

    def setup_commands(self) -> list:
        s = self.shape
        return [["gen-trace", *_spec_flags(s), "--obs", str(s["obs"]), "--seed", str(self.seed),
                 "--out", self.trace]]

    def check_setup(self) -> list:
        errors = []
        self._check_trace_file(self.trace, self.shape["obs"], errors)
        return errors

    def job_commands(self) -> list:
        s = self.shape
        return [["compare", "--policies", ",".join(s["policies"]), "--trace", self.trace,
                 "--budget", str(s["budget"]), "--recent", str(s["recent"]), "--obs", str(s["obs"]),
                 "--widen", "--seed", str(self.seed), "--out", self.out]]

    def outputs(self) -> list:
        return [self.out, self.out + ".config.json"]

    def step_layers(self) -> int:
        s = self.shape
        return len(s["policies"]) * (s["steps"] + 1) * s["layers"]

    def check_outputs(self, reference) -> list:
        s = self.shape
        errors = []
        header, rows = _read_csv(self.out)
        if header != STEP_COLUMNS:
            return [f"compare.csv: header {header}"]
        expected = len(s["policies"]) * (s["steps"] + 1) * s["layers"]
        if len(rows) != expected:
            errors.append(f"compare.csv: {len(rows)} rows, expected {expected}")
        budget = budget_tokens(s["budget"], self.full_length, s["recent"])
        order = [row[2] for row in rows[:: (s["steps"] + 1) * s["layers"]]]
        if order != s["policies"]:
            errors.append(f"compare.csv: policy order {order}")
        for row in rows:
            cell = dict(zip(header, row))
            if int(cell["cache_len"]) > budget:
                errors.append(f"compare.csv: step {cell['step']} layer {cell['layer']} "
                              f"{cell['policy']} keeps {cell['cache_len']} > budget {budget}")
                break
            if cell["recon_error"] != "":
                errors.append("compare.csv: a trace replay reported a reconstruction error")
                break
        payload = self._check_sidecar(self.out, [self.out], errors)
        if payload.get("config", {}).get("budget_tokens") != budget:
            errors.append(f"compare.csv: sidecar budget {payload.get('config')}")
        self._check_digests(reference, errors)
        return errors


class TraceAnalyze(Workload):
    """Record a small trace, then run the divergence diagnostics on it."""

    name = "trace-analyze"
    calibration = "mixed"

    @property
    def trace(self) -> str:
        return self.path("job.trace")

    @property
    def out(self) -> str:
        return self.path("divergence.csv")

    def job_commands(self) -> list:
        s = self.shape
        return [
            ["gen-trace", *_spec_flags(s), "--obs", str(s["obs"]), "--seed", str(self.seed),
             "--out", self.trace],
            ["analyze", self.trace, "--svg", "--out", self.out],
        ]

    def _svgs(self) -> list:
        return [self.path("divergence_js.svg")] + [
            self.path(f"divergence_kde_layer{layer}.svg") for layer in range(self.shape["layers"])
        ]

    def outputs(self) -> list:
        return [self.trace, self.trace + ".config.json", self.out, self.path("divergence_kde.csv"),
                self.out + ".config.json", *self._svgs()]

    def step_layers(self) -> int:
        return (self.shape["steps"] + 1) * self.shape["layers"]

    def check_outputs(self, reference) -> list:
        s = self.shape
        errors = []
        self._check_trace_file(self.trace, s["obs"], errors)
        self._check_sidecar(self.trace, [self.trace], errors)

        header, rows = _read_csv(self.out)
        if header != DIVERGENCE_COLUMNS or len(rows) != s["layers"]:
            errors.append(f"divergence.csv: header {header}, {len(rows)} rows")
        for row in rows:
            if not 0.0 <= float(row[1]) <= math.log(2.0) + 1e-12:
                errors.append(f"divergence.csv: layer {row[0]} divergence {row[1]}")

        kde_path = self.path("divergence_kde.csv")
        curves = read_kde_curves(kde_path, errors)
        if set(curves) != {(layer, pairing) for layer in range(s["layers"])
                           for pairing in ("intra", "inter")}:
            errors.append(f"divergence_kde.csv: curves {sorted(curves)}")
        for key, (grid, density) in curves.items():
            mass = sum((grid[i + 1] - grid[i]) * (density[i + 1] + density[i]) / 2.0
                       for i in range(len(grid) - 1))
            if abs(mass - 1.0) > KDE_MASS_TOL or min(density) < 0.0:
                errors.append(f"divergence_kde.csv: curve {key} has mass {mass:.4f}")

        self._check_sidecar(self.out, [self.out, kde_path, *self._svgs()], errors)
        for svg in self._svgs():
            self._check_svg(svg, errors)
        if reference is not None:
            self._check_digests(reference, errors)
            ref_curves = read_kde_curves(os.path.join(HERE, reference["kde_csv"]), errors)
            for key, (ref_grid, ref_density) in ref_curves.items():
                if key in curves:
                    error = curve_error(curves[key], ref_grid, ref_density)
                    if error > KDE_RTOL:
                        errors.append(f"kde curve {key} off its reference by {error:.2e} of its peak")
        return errors


def read_kde_curves(path: str, errors: list) -> dict:
    """{(layer, pairing): (grid, density)} from an analyze `_kde.csv`."""
    header, rows = _read_csv(path)
    if header != KDE_COLUMNS:
        errors.append(f"{os.path.basename(path)}: header {header}")
        return {}
    curves: dict = {}
    for layer, pairing, weight, density in rows:
        grid, values = curves.setdefault((int(layer), pairing), ([], []))
        grid.append(float(weight))
        values.append(float(density))
    return curves


def curve_error(curve, ref_grid, ref_density) -> float:
    """Max |curve - reference| on the reference grid, over the reference peak.

    The curve is linearly interpolated onto the reference grid and is zero
    outside its own grid, so a changed grid is compared fairly.
    """
    grid, density = curve
    worst = 0.0
    j = 0
    for x, ref in zip(ref_grid, ref_density):
        while j + 1 < len(grid) and grid[j + 1] < x:
            j += 1
        if x < grid[0] or x > grid[-1]:
            value = 0.0
        elif j + 1 < len(grid) and grid[j + 1] != grid[j]:
            t = (x - grid[j]) / (grid[j + 1] - grid[j])
            value = density[j] + t * (density[j + 1] - density[j])
        else:
            value = density[j]
        worst = max(worst, abs(value - ref))
    return worst / max(ref_density)


CLASSES = {cls.name: cls for cls in (SweepLive, ReplayWiden, TraceAnalyze)}


def make(name: str, workdir: str, seed: int, shape: dict | None = None) -> Workload:
    return CLASSES[name](workdir, seed, shape)


def load_reference(path: str, workload: Workload) -> dict | None:
    """The workload's reference entry, if it was recorded at this seed and shape."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    entry = data.get("workloads", {}).get(workload.name)
    if entry is None or data.get("seed") != workload.seed or entry.get("shape") != workload.shape:
        return None
    return entry
