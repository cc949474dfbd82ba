"""Command-line front end.

Five subcommands: gen-trace records a synthetic decode to a trace file,
simulate runs one policy over a trace or a fresh synthetic decode, sweep
varies one config axis over a grid, analyze computes distribution
diagnostics from a trace, compare runs several policies over one trace.

Exit codes: 0 success, 1 usage error (bad flags, bad parameter values),
2 data error (unreadable/malformed files, dimension drift).

A parameter value is refused by the library check that owns it, with
that check's message, and before the work it guards: gen-trace checks the
sizes of the trace it would write (traceio.pack_header) before decoding, analyze
checks its options (diagnostics.check_options) before reading the trace,
and sweep leaves an empty grid to simulator.sweep. The CLI checks only its
own syntax: flag types and choices, the --policies list, the --grid
numbers and the config file's JSON types.

Every run writes a JSON sidecar next to its output file with the fully
resolved configuration and the kvprune, numpy and Python versions. A JSON
config file (--config) supplies defaults for any flag not given on the
command line; explicit flags win. Each config-file value must have the
type of its flag (true or false for --widen, an integer for integer flags,
a number for float flags, a string for the others) and be one of its
choices, if it has any.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import namedtuple
from dataclasses import asdict, fields

from .core import PruneConfig
from .diagnostics import DEFAULT_BINS, check_options, layer_report
from .policies import POLICIES, get_policy
from .simulator import (
    INTERLEAVE_MODES,
    SWEEP_AXES,
    SynthSpec,
    budget_for_fraction,
    record_trace,
    run_decode,
    run_decodes,
    sweep,
)
from .traceio import TraceError, pack_header, read_trace, write_trace
from . import plots, reports


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this CLI reserves 2 for data errors."""

    def error(self, message):
        raise UsageError(message)


Flag = namedtuple("Flag", "default help choices field", defaults=(None, None))


def _field(field: str, help: str, choices=None) -> Flag:
    """A flag that sets the SynthSpec and PruneConfig fields of that name,
    with their default, which a dataclass keeps as a class attribute."""
    owner = SynthSpec if hasattr(SynthSpec, field) else PruneConfig
    return Flag(getattr(owner, field), help, choices, field)


# Every flag a config file may set, under its --help group title. A flag's
# type is its default's type. Each flag but budget and policy sets one
# SynthSpec or PruneConfig field, every policy's knobs included (pool_width
# is global-topk's); only budget, recent, obs and policy have defaults of
# their own here, and the others take their field's. The argparse default
# of each is None, so resolution can tell a flag that was not given: flag
# value, else config-file value, else the default here.
FLAGS = {
    "synthetic decode": {
        "text": _field("text_len", "prefill text token count"),
        "visual": _field("visual_len", "prefill visual token count"),
        "interleave": _field("interleave", "prefill modality layout", INTERLEAVE_MODES),
        "layers": _field("layers", "decoder layer count"),
        "heads": _field("heads", "attention heads per layer"),
        "dim": _field("head_dim", "head dimension"),
        "steps": _field("steps", "decode step count"),
        "shift": _field("shift", "logit offset subtracted from cross-modality pairs"),
        "spread": _field("spread", "logit scale factor"),
    },
    "pruning config": {
        "budget": Flag(0.3, "cache budget as a fraction of the final length"),
        "ratio": _field("cross_ratio", "share of the candidate pool ranked cross-modally"),
        "recent": Flag(32, "newest keys always kept, and not sampled by analyze (default 0 there)",
                       field="recent"),
        "obs": Flag(32, "query rows per step that vote, are recorded or sampled (analyze: all)",
                    field="obs_window"),
        "n": _field("smoothing", "csp: smoothing constant n added to softmax denominators"),
        "recency_bias": _field("recency_bias", "weight on the newest obs-window candidates' scores"),
        "widen": _field("widen_to_budget", "grow top-k sizes until the intersection fills the budget"),
        "seed": _field("seed", "RNG seed of the synthetic decode, recorded with results"),
    },
    "policy": {
        "policy": Flag(next(iter(POLICIES)),
                       "one of: " + ", ".join(policy.label for policy in POLICIES.values()),
                       tuple(POLICIES)),
        "pool_width": _field("pool_width",
                             "global-topk: width of the 1-D max pool over column sums"),
    },
}
_FILE_FLAGS = {name: flag for group in FLAGS.values() for name, flag in group.items()}

# A config-file value must have its default's type. bool is an int
# subclass, so booleans are accepted for bool keys only, and a float key
# also takes an integer.
_FILE_VALUE_TYPES = {
    bool: (bool, "true or false"),
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    str: (str, "a string"),
}


def _add_flags(parser, names) -> None:
    """Add the table's flags among names, in table order, grouped as there."""
    for title, flags in FLAGS.items():
        chosen = [name for name in flags if name in names]
        if not chosen:
            continue
        group = parser.add_argument_group(title)
        for name in chosen:
            flag, option = flags[name], "--" + name.replace("_", "-")
            if isinstance(flag.default, bool):
                group.add_argument(option, action=argparse.BooleanOptionalAction, help=flag.help)
            else:
                group.add_argument(option, type=type(flag.default), choices=flag.choices,
                                   help=flag.help)


def build_parser() -> _Parser:
    parser = _Parser(prog="kvprune", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON file of flag defaults")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("gen-trace", help="record a synthetic decode to a trace file")
    p.set_defaults(run=_cmd_gen_trace)
    _add_flags(p, (*FLAGS["synthetic decode"], "obs", "seed"))
    p.add_argument("--out", required=True, help="trace file to write")

    p = sub.add_parser("simulate", help="run one policy over a trace or synthetic decode")
    p.set_defaults(run=_cmd_simulate)
    p.add_argument("--trace", help="trace file; omit to decode synthetically")
    _add_flags(p, _FILE_FLAGS)
    p.add_argument("--out", required=True, help="per-step CSV to write")

    p = sub.add_parser("sweep", help="vary one config axis over a grid")
    p.set_defaults(run=_cmd_sweep)
    p.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p.add_argument("--grid", required=True, help="comma-separated axis values")
    p.add_argument("--svg", action="store_true", help="also plot the sweep curve")
    _add_flags(p, _FILE_FLAGS)
    p.add_argument("--out", required=True, help="summary CSV to write")

    p = sub.add_parser("analyze", help="distribution diagnostics from a trace")
    p.set_defaults(run=_cmd_analyze)
    p.add_argument("trace", help="trace file to analyze")
    p.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p.add_argument("--bandwidth", type=float, help="fixed KDE bandwidth (default: Silverman)")
    _add_flags(p, ("obs", "recent"))
    p.add_argument("--svg", action="store_true", help="also plot divergence bars and KDE overlays")
    p.add_argument("--out", required=True, help="divergence CSV to write")

    p = sub.add_parser("compare", help="run several policies over one trace")
    p.set_defaults(run=_cmd_compare)
    p.add_argument("--policies", required=True, help="comma-separated policy names")
    p.add_argument("--trace", required=True, help="trace file all policies replay")
    _add_flags(p, {*FLAGS["pruning config"], *FLAGS["policy"]} - {"policy"})
    p.add_argument("--out", required=True, help="joined per-step CSV to write")

    return parser


def _load_config_file(path) -> dict:
    """The file's values, checked against the table, as their defaults' types."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    unknown = set(data) - set(_FILE_FLAGS)
    if unknown:
        raise UsageError(f"config file {path}: unknown keys {sorted(unknown)}")
    out = {}
    for key, value in data.items():
        flag = _FILE_FLAGS[key]
        kind = type(flag.default)
        accepted, what = _FILE_VALUE_TYPES[kind]
        if not isinstance(value, accepted) or isinstance(value, bool) != (kind is bool):
            raise UsageError(f"config file {path}: {key!r} must be {what}, got {json.dumps(value)}")
        if flag.choices and value not in flag.choices:
            raise UsageError(f"config file {path}: {key!r} must be one of "
                             f"{', '.join(flag.choices)}, got {json.dumps(value)}")
        try:
            out[key] = kind(value)
        except OverflowError:
            raise UsageError(f"config file {path}: {key!r} is too large for a float")
    return out


def _resolve(args, file_cfg: dict, **defaults) -> dict:
    """Every table flag of the subcommand: its value if given, else the
    config file's, else the default given here, else the table's. Each
    has its table default's type."""
    out = {}
    for name, flag in _FILE_FLAGS.items():
        if hasattr(args, name):
            value = getattr(args, name)
            if value is None:
                value = file_cfg.get(name, defaults.get(name, flag.default))
            out[name] = value
    return out


def _usage(fn, /, *args, **kwargs):
    """fn(*args, **kwargs), where a ValueError means a bad flag value and a
    MemoryError or OverflowError means flag values too large to build."""
    try:
        return fn(*args, **kwargs)
    except ValueError as err:
        raise UsageError(str(err))
    except (MemoryError, OverflowError) as err:
        raise UsageError(f"too large to build: {str(err) or type(err).__name__}")


def _build(owner, resolved: dict, **given):
    """A SynthSpec or PruneConfig of the given values and the resolved
    flags that set its other fields."""
    names = {field.name for field in fields(owner)}
    return _usage(owner, **given, **{flag.field: resolved[key] for key, flag in _FILE_FLAGS.items()
                                     if flag.field in names})


def _config_from(resolved: dict, fraction: float, full_length: int) -> PruneConfig:
    budget = _usage(budget_for_fraction, fraction, full_length, resolved["recent"])
    return _build(PruneConfig, resolved, budget=budget)


def _config_payload(cfg: PruneConfig, budget_fraction: float) -> dict:
    payload = asdict(cfg)
    payload["budget_tokens"] = payload.pop("budget")
    return {**payload, "budget_fraction": budget_fraction}


def _stem(path: str) -> str:
    root, _ = os.path.splitext(path)
    return root


def _cmd_gen_trace(args, file_cfg) -> int:
    resolved = _resolve(args, file_cfg)
    spec = _build(SynthSpec, resolved)
    # Refuse sizes no trace can hold before decoding anything; the trace
    # records the prefill observation and then every step.
    _usage(pack_header, spec.layers, spec.heads, spec.steps + 1, spec.head_dim, spec.prefill_len,
           spec.final_len)
    trace = _usage(record_trace, spec, resolved["obs"])
    write_trace(trace, args.out)
    reports.write_config_sidecar(
        args.out,
        {"command": "gen-trace", "spec": asdict(spec), "obs_window": resolved["obs"],
         "outputs": [args.out]},
    )
    print(f"wrote {args.out} ({len(trace.steps)} steps, {trace.final_length} tokens)")
    return 0


def _cmd_simulate(args, file_cfg) -> int:
    resolved = _resolve(args, file_cfg)
    fraction = resolved["budget"]
    policy = resolved["policy"]

    if args.trace:
        source = read_trace(args.trace)
        full_length, source_payload = source.final_length, {"trace": args.trace}
    else:
        source = _build(SynthSpec, resolved)
        full_length, source_payload = source.final_len, {"spec": asdict(source)}
    cfg = _config_from(resolved, fraction, full_length)
    if args.trace:
        report = run_decode(source, policy, cfg)
    else:  # flags alone define a synthetic decode, so its errors are usage errors
        report = _usage(run_decode, source, policy, cfg)

    reports.write_text(args.out, reports.steps_csv(report, fraction))
    reports.write_config_sidecar(
        args.out,
        {"command": "simulate", "policy": policy, "config": _config_payload(cfg, fraction),
         **source_payload, "outputs": [args.out]},
    )
    print(f"wrote {args.out} ({report.steps} steps x {len(report.retained_ids)} layers)")
    return 0


def _parse_grid(text: str) -> list:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise UsageError(f"--grid must be comma-separated numbers, got {text!r}")


def _cmd_sweep(args, file_cfg) -> int:
    resolved = _resolve(args, file_cfg)
    fraction = resolved["budget"]
    policy = resolved["policy"]
    grid = _parse_grid(args.grid)

    spec = _build(SynthSpec, resolved)
    cfg = _config_from(resolved, fraction, spec.final_len)
    results = _usage(sweep, args.axis, grid, spec, cfg, policy)

    rows = [
        reports.summarize(report, value if args.axis == "budget_fraction" else None)
        for value, report in results
    ]
    reports.write_text(args.out, reports.results_csv(rows))
    outputs = [args.out]
    if args.svg:
        svg_path = _stem(args.out) + ".svg"
        xs = [value for value, _ in results]
        # A live decode always has a reconstruction error to plot.
        ys = [row.mean_recon_error for row in rows]
        svg = plots.line_chart(
            [(policy, xs, ys)],
            title=f"{args.axis} sweep",
            x_label=args.axis,
            y_label="mean reconstruction error",
        )
        reports.write_text(svg_path, svg)
        outputs.append(svg_path)
    reports.write_config_sidecar(
        args.out,
        {"command": "sweep", "axis": args.axis, "grid": grid, "policy": policy,
         "config": _config_payload(cfg, fraction), "spec": asdict(spec), "outputs": outputs},
    )
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _cmd_analyze(args, file_cfg) -> int:
    resolved = _resolve(args, file_cfg, obs=None, recent=0)
    options = {"bins": args.bins, "bandwidth": args.bandwidth, "obs_window": resolved["obs"],
               "recent": resolved["recent"]}
    _usage(check_options, **options)
    report = layer_report(read_trace(args.trace), **options)
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
    reports.write_config_sidecar(
        args.out,
        {"command": "analyze", "trace": args.trace, **options, "outputs": outputs},
    )
    print(f"wrote {args.out} ({len(report.curves)} layers)")
    return 0


def _cmd_compare(args, file_cfg) -> int:
    resolved = _resolve(args, file_cfg)
    fraction = resolved["budget"]
    names = [part.strip() for part in args.policies.split(",") if part.strip()]
    if len(names) < 2:
        raise UsageError("--policies needs at least two comma-separated names")
    for index, name in enumerate(names):
        if name in names[:index]:
            raise UsageError(f"--policies lists {name!r} more than once")
        _usage(get_policy, name)

    trace = read_trace(args.trace)
    cfg = _config_from(resolved, fraction, trace.final_length)
    runs = run_decodes(trace, [(name, cfg) for name in names])
    reports.write_text(args.out, reports.steps_csv(runs, fraction))
    reports.write_config_sidecar(
        args.out,
        {"command": "compare", "policies": names, "trace": args.trace,
         "config": _config_payload(cfg, fraction), "outputs": [args.out]},
    )
    print(f"wrote {args.out} ({len(names)} policies)")
    return 0


# argparse keeps no state between parses, so one parser serves every call
# of main in a process; building it costs more than most parses.
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    try:
        file_cfg = _load_config_file(args.config) if args.config else {}
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as err:  # ValueError: undecodable bytes or JSON
        print(f"error: cannot read config file: {err}", file=sys.stderr)
        return 2

    try:
        return args.run(args, file_cfg)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (TraceError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
