"""Command-line front end.

Five subcommands: gen-trace records a synthetic decode to a trace file,
simulate runs one policy over a trace or a fresh synthetic decode, sweep
varies one config axis over a grid, analyze computes distribution
diagnostics from a trace, compare runs several policies over one trace.

Exit codes: 0 success, 1 usage error (bad flags, bad parameter values),
2 data error (unreadable/malformed files, dimension drift).

Every run writes a JSON sidecar next to its output file with the fully
resolved configuration and the kvprune, numpy and Python versions. A JSON
config file (--config) supplies defaults for any flag not given on the
command line; explicit flags win. Each config-file value must have the
type of its flag: true or false for --widen, an integer for integer flags,
a number for float flags, a string for choices.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

import numpy as np

from .core import HEAD_MODES, PruneConfig
from .diagnostics import DEFAULT_BINS, DEFAULT_EPSILON, MAX_BINS, layer_report
from .policies import POLICY_LABELS, POLICY_NAMES
from .simulator import (
    INTERLEAVE_MODES,
    SWEEP_AXES,
    SynthSpec,
    budget_for_fraction,
    record_trace,
    run_decode,
    sweep,
)
from .traceio import MAX_U16, TraceError, read_trace, write_trace
from . import __version__, plots, reports


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this CLI reserves 2 for data errors."""

    def error(self, message):
        raise UsageError(message)


SPEC_DEFAULTS = {
    "text": 64,
    "visual": 64,
    "interleave": "alternating",
    "layers": 2,
    "heads": 4,
    "dim": 32,
    "steps": 32,
    "shift": 2.0,
    "spread": 1.0,
}

CONFIG_DEFAULTS = {
    "budget": 0.3,
    "ratio": 0.5,
    "recent": 32,
    "obs": 32,
    "n": 1.0,
    "recency_bias": 1.0,
    "widen": False,
    "head_mode": "averaged",
    "seed": 0,
}

POLICY_DEFAULTS = {
    "policy": "csp",
    "pool_width": 1,
    "baseline_n": 0.0,
}

_FILE_DEFAULTS = {**SPEC_DEFAULTS, **CONFIG_DEFAULTS, **POLICY_DEFAULTS}

# A config-file value must have its default's type. bool is an int
# subclass, so booleans are accepted for bool keys only, and a float key
# also takes an integer.
_FILE_VALUE_TYPES = {
    bool: (bool, "true or false"),
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    str: (str, "a string"),
}


def _add_spec_flags(parser):
    g = parser.add_argument_group("synthetic decode")
    g.add_argument("--text", type=int, help="prefill text token count")
    g.add_argument("--visual", type=int, help="prefill visual token count")
    g.add_argument("--interleave", choices=INTERLEAVE_MODES, help="prefill modality layout")
    g.add_argument("--layers", type=int)
    g.add_argument("--heads", type=int)
    g.add_argument("--dim", type=int, help="head dimension")
    g.add_argument("--steps", type=int, help="decode step count")
    g.add_argument("--shift", type=float, help="logit offset subtracted from cross-modality pairs")
    g.add_argument("--spread", type=float, help="logit scale factor")


def _add_config_flags(parser):
    g = parser.add_argument_group("pruning config")
    g.add_argument("--budget", type=float, help="cache budget as a fraction of the final length")
    g.add_argument("--ratio", type=float, help="share of the candidate pool ranked cross-modally")
    g.add_argument("--recent", type=int, help="newest keys always kept")
    g.add_argument("--obs", type=int, help="observation window (query rows that vote)")
    g.add_argument("--n", type=float, help="smoothing constant added to softmax denominators")
    g.add_argument("--recency-bias", type=float, dest="recency_bias")
    g.add_argument("--widen", action=argparse.BooleanOptionalAction, default=None,
                   help="grow top-k sizes until the intersection fills the budget")
    g.add_argument("--head-mode", choices=HEAD_MODES, dest="head_mode")
    g.add_argument("--seed", type=int)


def _add_policy_flag(parser):
    choices = ", ".join(POLICY_LABELS[name] for name in POLICY_NAMES)
    parser.add_argument("--policy", choices=POLICY_NAMES, help=f"one of: {choices}")
    parser.add_argument("--pool-width", type=int, dest="pool_width",
                        help="global-topk: width of the 1-D max pool over column sums")
    parser.add_argument("--baseline-n", type=float, dest="baseline_n",
                        help="smoothing constant for the baseline policies")


def build_parser() -> _Parser:
    parser = _Parser(prog="kvprune", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON file of flag defaults")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("gen-trace", help="record a synthetic decode to a trace file")
    _add_spec_flags(p)
    p.add_argument("--obs", type=int, help="observation rows recorded per step")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="trace file to write")

    p = sub.add_parser("simulate", help="run one policy over a trace or synthetic decode")
    p.add_argument("--trace", help="trace file; omit to decode synthetically")
    _add_spec_flags(p)
    _add_config_flags(p)
    _add_policy_flag(p)
    p.add_argument("--out", required=True, help="per-step CSV to write")

    p = sub.add_parser("sweep", help="vary one config axis over a grid")
    p.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p.add_argument("--grid", required=True, help="comma-separated axis values")
    p.add_argument("--svg", action="store_true", help="also plot the sweep curve")
    _add_spec_flags(p)
    _add_config_flags(p)
    _add_policy_flag(p)
    p.add_argument("--out", required=True, help="summary CSV to write")

    p = sub.add_parser("analyze", help="distribution diagnostics from a trace")
    p.add_argument("trace", help="trace file to analyze")
    p.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--bandwidth", type=float, help="fixed KDE bandwidth (default: Silverman)")
    p.add_argument("--obs", type=int, help="limit samples to this many query rows per step")
    p.add_argument("--recent", type=int, default=0, help="drop the newest keys from sampling")
    p.add_argument("--svg", action="store_true", help="also plot divergence bars and KDE overlays")
    p.add_argument("--out", required=True, help="divergence CSV to write")

    p = sub.add_parser("compare", help="run several policies over one trace")
    p.add_argument("--policies", required=True, help="comma-separated policy names")
    p.add_argument("--trace", required=True, help="trace file all policies replay")
    _add_config_flags(p)
    p.add_argument("--pool-width", type=int, dest="pool_width")
    p.add_argument("--baseline-n", type=float, dest="baseline_n")
    p.add_argument("--out", required=True, help="joined per-step CSV to write")

    return parser


def _load_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    unknown = set(data) - set(_FILE_DEFAULTS)
    if unknown:
        raise UsageError(f"config file {path}: unknown keys {sorted(unknown)}")
    for key, value in data.items():
        expected = type(_FILE_DEFAULTS[key])
        accepted, what = _FILE_VALUE_TYPES[expected]
        if not isinstance(value, accepted) or isinstance(value, bool) != (expected is bool):
            raise UsageError(
                f"config file {path}: {key!r} must be {what}, got {json.dumps(value)}"
            )
    return data


def _resolve(args, file_cfg: dict, defaults: dict) -> dict:
    """Flag value if given, else config-file value, else default."""
    out = {}
    for key, default in defaults.items():
        value = getattr(args, key, None)
        if value is None:
            value = file_cfg.get(key, default)
        out[key] = value
    return out


def _spec_from(resolved: dict, seed: int) -> SynthSpec:
    try:
        return SynthSpec(
            seed=seed,
            text_len=int(resolved["text"]),
            visual_len=int(resolved["visual"]),
            interleave=resolved["interleave"],
            layers=int(resolved["layers"]),
            heads=int(resolved["heads"]),
            head_dim=int(resolved["dim"]),
            steps=int(resolved["steps"]),
            shift=float(resolved["shift"]),
            spread=float(resolved["spread"]),
        )
    except ValueError as err:
        raise UsageError(str(err))


def _config_from(resolved: dict, fraction: float, full_length: int) -> PruneConfig:
    try:
        return PruneConfig(
            budget=budget_for_fraction(fraction, full_length, int(resolved["recent"])),
            recent=int(resolved["recent"]),
            obs_window=int(resolved["obs"]),
            cross_ratio=float(resolved["ratio"]),
            smoothing=float(resolved["n"]),
            recency_bias=float(resolved["recency_bias"]),
            widen_to_budget=bool(resolved["widen"]),
            head_mode=resolved["head_mode"],
            seed=int(resolved["seed"]),
        )
    except ValueError as err:
        raise UsageError(str(err))


def _check_fraction(value: float) -> float:
    if not 0 < value < np.inf:
        raise UsageError(f"--budget must be a finite positive fraction, got {value}")
    return float(value)


def _policy_kwargs(name: str, resolved: dict) -> dict:
    if name not in ("global-topk", "accum"):
        return {}
    smoothing = float(resolved["baseline_n"])
    if not 0 <= smoothing < np.inf:
        raise UsageError(f"--baseline-n must be finite and >= 0, got {smoothing}")
    if name == "accum":
        return {"smoothing": smoothing}
    pool_width = int(resolved["pool_width"])
    if pool_width < 1:
        raise UsageError(f"--pool-width must be >= 1, got {pool_width}")
    return {"pool_width": pool_width, "smoothing": smoothing}


def _config_payload(cfg: PruneConfig, budget_fraction: float) -> dict:
    return {
        "budget_fraction": budget_fraction,
        "budget_tokens": cfg.budget,
        "recent": cfg.recent,
        "obs_window": cfg.obs_window,
        "cross_ratio": cfg.cross_ratio,
        "smoothing": cfg.smoothing,
        "recency_bias": cfg.recency_bias,
        "widen_to_budget": cfg.widen_to_budget,
        "head_mode": cfg.head_mode,
        "seed": cfg.seed,
    }


def _spec_payload(spec: SynthSpec) -> dict:
    return {
        "seed": spec.seed,
        "text_len": spec.text_len,
        "visual_len": spec.visual_len,
        "interleave": spec.interleave,
        "layers": spec.layers,
        "heads": spec.heads,
        "head_dim": spec.head_dim,
        "steps": spec.steps,
        "shift": spec.shift,
        "spread": spec.spread,
    }


def _write_sidecar(out_path: str, payload: dict) -> None:
    versions = {
        "kvprune": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    reports.write_config_sidecar(out_path, {**payload, "versions": versions})


def _stem(path: str) -> str:
    root, _ = os.path.splitext(path)
    return root


def _cmd_gen_trace(args, file_cfg) -> int:
    resolved = _resolve(args, file_cfg, SPEC_DEFAULTS)
    seed = _resolve(args, file_cfg, {"seed": CONFIG_DEFAULTS["seed"]})["seed"]
    obs = _resolve(args, file_cfg, {"obs": CONFIG_DEFAULTS["obs"]})["obs"]
    if obs < 1:
        raise UsageError(f"--obs must be >= 1, got {obs}")
    # The trace header stores these as u16; check before decoding anything.
    for key in ("layers", "heads", "dim"):
        if resolved[key] > MAX_U16:
            raise UsageError(f"--{key} must be at most {MAX_U16} in a trace, got {resolved[key]}")
    spec = _spec_from(resolved, int(seed))
    trace = record_trace(spec, int(obs))
    write_trace(trace, args.out)
    _write_sidecar(
        args.out,
        {"command": "gen-trace", "spec": _spec_payload(spec), "obs_window": int(obs),
         "outputs": [args.out]},
    )
    print(f"wrote {args.out} ({len(trace.steps)} steps, {trace.final_length} tokens)")
    return 0


def _simulation_source(args, file_cfg, resolved_cfg):
    """Returns (source, full_length, source_payload)."""
    if getattr(args, "trace", None):
        trace = read_trace(args.trace)
        return trace, trace.final_length, {"trace": args.trace}
    resolved_spec = _resolve(args, file_cfg, SPEC_DEFAULTS)
    spec = _spec_from(resolved_spec, int(resolved_cfg["seed"]))
    return spec, spec.final_len, {"spec": _spec_payload(spec)}


def _cmd_simulate(args, file_cfg) -> int:
    resolved = _resolve(args, file_cfg, {**CONFIG_DEFAULTS, **POLICY_DEFAULTS})
    fraction = _check_fraction(float(resolved["budget"]))
    policy = resolved["policy"]
    if policy not in POLICY_NAMES:
        raise UsageError(f"unknown policy {policy!r}; choices: {', '.join(POLICY_NAMES)}")
    kwargs = _policy_kwargs(policy, resolved)

    source, full_length, source_payload = _simulation_source(args, file_cfg, resolved)
    cfg = _config_from(resolved, fraction, full_length)
    report = run_decode(source, policy, cfg, **kwargs)

    reports.write_text(args.out, reports.steps_csv(report, fraction))
    _write_sidecar(
        args.out,
        {"command": "simulate", "policy": policy, "policy_options": kwargs,
         "config": _config_payload(cfg, fraction), **source_payload,
         "outputs": [args.out]},
    )
    print(f"wrote {args.out} ({report.steps} steps x {len(report.retained_ids)} layers)")
    return 0


def _parse_grid(text: str) -> list:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise UsageError(f"--grid must be comma-separated numbers, got {text!r}")
    if not values:
        raise UsageError("--grid is empty")
    return values


def _cmd_sweep(args, file_cfg) -> int:
    resolved = _resolve(args, file_cfg, {**CONFIG_DEFAULTS, **POLICY_DEFAULTS})
    fraction = _check_fraction(float(resolved["budget"]))
    policy = resolved["policy"]
    kwargs = _policy_kwargs(policy, resolved)
    grid = _parse_grid(args.grid)

    resolved_spec = _resolve(args, file_cfg, SPEC_DEFAULTS)
    spec = _spec_from(resolved_spec, int(resolved["seed"]))
    cfg = _config_from(resolved, fraction, spec.final_len)
    try:
        results = sweep(args.axis, grid, spec, cfg, policy, **kwargs)
    except ValueError as err:
        raise UsageError(str(err))

    rows = [
        reports.summarize(report, value if args.axis == "budget_fraction" else None)
        for value, report in results
    ]
    reports.write_text(args.out, reports.results_csv(rows))
    outputs = [args.out]
    if args.svg:
        svg_path = _stem(args.out) + ".svg"
        xs = [value for value, _ in results]
        ys = [row.mean_recon_error if row.mean_recon_error is not None else 0.0 for row in rows]
        svg = plots.line_chart(
            [(policy, xs, ys)],
            title=f"{args.axis} sweep",
            x_label=args.axis,
            y_label="mean reconstruction error",
        )
        reports.write_text(svg_path, svg)
        outputs.append(svg_path)
    _write_sidecar(
        args.out,
        {"command": "sweep", "axis": args.axis, "grid": grid, "policy": policy,
         "policy_options": kwargs, "config": _config_payload(cfg, fraction),
         "spec": _spec_payload(spec), "outputs": outputs},
    )
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _cmd_analyze(args, file_cfg) -> int:
    if not 2 <= args.bins <= MAX_BINS:
        raise UsageError(f"--bins must lie in [2, {MAX_BINS}], got {args.bins}")
    if not (args.epsilon > 0 and args.bins <= sys.float_info.max / args.epsilon):
        raise UsageError(
            f"--epsilon must be positive with --bins x --epsilon finite, got {args.epsilon}"
        )
    if args.bandwidth is not None and not 0 < args.bandwidth < np.inf:
        raise UsageError(f"--bandwidth must be finite and positive, got {args.bandwidth}")
    if args.obs is not None and args.obs < 1:
        raise UsageError(f"--obs must be >= 1, got {args.obs}")
    if args.recent < 0:
        raise UsageError(f"--recent must be >= 0, got {args.recent}")

    trace = read_trace(args.trace)
    report = layer_report(
        trace,
        bins=args.bins,
        epsilon=args.epsilon,
        bandwidth=args.bandwidth,
        obs_window=args.obs,
        recent=args.recent,
    )
    reports.write_text(args.out, reports.divergence_csv(report))
    kde_path = _stem(args.out) + "_kde.csv"
    reports.write_text(kde_path, reports.density_csv(report))
    outputs = [args.out, kde_path]
    if args.svg:
        js_path = _stem(args.out) + "_js.svg"
        layers = [str(layer) for layer, _ in report.divergence.per_layer]
        svg = plots.bar_chart(
            layers,
            report.divergence.values(),
            title="intra vs inter modality divergence",
            x_label="layer",
            y_label="JS divergence (nats)",
        )
        reports.write_text(js_path, svg)
        outputs.append(js_path)
        for layer, (intra, inter) in enumerate(report.curves):
            overlay_path = _stem(args.out) + f"_kde_layer{layer}.svg"
            svg = plots.line_chart(
                [("intra", intra.grid, intra.density), ("inter", inter.grid, inter.density)],
                title=f"attention weight densities, layer {layer}",
                x_label="attention weight",
                y_label="density",
            )
            reports.write_text(overlay_path, svg)
            outputs.append(overlay_path)
    _write_sidecar(
        args.out,
        {"command": "analyze", "trace": args.trace, "bins": args.bins,
         "epsilon": args.epsilon, "bandwidth": args.bandwidth, "obs_window": args.obs,
         "recent": args.recent, "outputs": outputs},
    )
    print(f"wrote {args.out} ({len(report.curves)} layers)")
    return 0


def _cmd_compare(args, file_cfg) -> int:
    resolved = _resolve(args, file_cfg, {**CONFIG_DEFAULTS, **POLICY_DEFAULTS})
    fraction = _check_fraction(float(resolved["budget"]))
    names = [part.strip() for part in args.policies.split(",") if part.strip()]
    if len(names) < 2:
        raise UsageError("--policies needs at least two comma-separated names")
    for name in names:
        if name not in POLICY_NAMES:
            raise UsageError(f"unknown policy {name!r}; choices: {', '.join(POLICY_NAMES)}")

    trace = read_trace(args.trace)
    cfg = _config_from(resolved, fraction, trace.final_length)
    runs = [run_decode(trace, name, cfg, **_policy_kwargs(name, resolved)) for name in names]
    reports.write_text(args.out, reports.steps_csv(runs, fraction))
    _write_sidecar(
        args.out,
        {"command": "compare", "policies": names, "trace": args.trace,
         "config": _config_payload(cfg, fraction),
         "policy_options": {name: _policy_kwargs(name, resolved) for name in names},
         "outputs": [args.out]},
    )
    print(f"wrote {args.out} ({len(names)} policies)")
    return 0


_COMMANDS = {
    "gen-trace": _cmd_gen_trace,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "analyze": _cmd_analyze,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1

    try:
        file_cfg = _load_config_file(args.config) if args.config else {}
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read config file: {err}", file=sys.stderr)
        return 2

    try:
        return _COMMANDS[args.command](args, file_cfg)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except TraceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
