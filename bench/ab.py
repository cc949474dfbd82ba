"""A/B benchmark of two revisions with perfbench, in alternating pairs.

    python3 bench/ab.py --base REV [--change REV] --workload W --pairs N [--seconds S]
    python3 bench/ab.py --base REV [--change REV] --workload W --pairs N --inproc

Run from anywhere inside the repository. Both revisions (the change
defaults to HEAD) are checked out as detached git worktrees under
.bench_build/, at paths of equal length, since sweep-live's job times and
peak RSS move with the length of the checkout path. Each pair runs

    python3 perfbench/run.py --workload W --seed 7 --seconds S

once in each worktree; the side that runs first alternates from pair to
pair. A run whose outputs fail perfbench's checks stops the comparison.

For each end-to-end metric of BENCHMARK.json it prints each side's
median, the base's quartiles and how many pairs the change won; a tie
counts for neither side. `clear` marks a metric whose change won at least
nine pairs in ten and whose median beats the base's by more than the
base's quartile spread. The last line is one JSON object with every
summary row. The worktrees are removed at the end. Exit code 0 when every
run checked out, 1 when a run failed its checks, 2 when a run or a
checkout could not be made.

With --inproc, one process times both revisions' jobs instead, so that
where each process lays out its memory cannot favour one side. It imports
each worktree's kvprune under a package name of its own (the package
imports itself only relatively), and a second copy of the base's as the
null side. Each side runs the workload's set-up and one job through
perfbench/workloads.py's run_commands, and its outputs are checked
against perfbench's reference once. Then, N times, it times one job of
the base and one of the change, and one of the base and one of the null,
each pair in the order A B, then B A in the next round. It prints, for the
change and for the null against the base, the median job time of each
side, their ratio, the median of the paired ratios, the pairs in which
that side was faster and a two-sided sign-test p-value. A null pairing
that reads other than 1 shows the bias of the method itself. --seconds is
not used.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
# One directory name per side, of equal length.
SIDES = {"base": "ab-base", "change": "ab-chng"}
SEED = 7
# The in-process sides, each the kvprune of a worktree imported under a
# package name of its own; the null is a second copy of the base.
INPROC = {"base": ("base", "kvprune_ab_base"), "change": ("change", "kvprune_ab_chng"),
          "null": ("base", "kvprune_ab_null")}


class BenchError(Exception):
    """A checkout or a perfbench run could not be made."""


class ChecksFailed(BenchError):
    """A run's outputs failed perfbench's checks."""


def quartiles(values: list) -> tuple[float, float]:
    """(first, third) quartile of values, inclusive method; a single value
    is both."""
    if len(values) < 2:
        return values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4, method="inclusive")
    return first, third


def summarize(pairs: list, metrics: list) -> list:
    """One summary row per metric over pairs of (base, change) metric dicts,
    name -> value.

    metrics are BENCHMARK.json's end-to-end entries (name, unit, better).
    A row holds each side's median, the base's quartiles, the change's
    wins (pairs where it is strictly better; ties count for neither), the
    pair count, and clear: at least nine wins in ten pairs and a median
    better than the base's by more than the base's quartile spread.
    """
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        q1, q3 = quartiles(base)
        base_median, change_median = statistics.median(base), statistics.median(change)
        gain = base_median - change_median if lower else change_median - base_median
        rows.append({
            "name": name,
            "unit": metric["unit"],
            "better": metric["better"],
            "base_median": base_median,
            "base_q1": q1,
            "base_q3": q3,
            "change_median": change_median,
            "wins": wins,
            "pairs": len(pairs),
            "clear": 10 * wins >= 9 * len(pairs) and gain > q3 - q1,
        })
    return rows


def format_row(row: dict) -> str:
    change = (row["change_median"] / row["base_median"] - 1.0) * 100 if row["base_median"] else 0.0
    return (f"{row['name']}: base {row['base_median']:.6g} [{row['base_q1']:.6g}, "
            f"{row['base_q3']:.6g}] change {row['change_median']:.6g} {row['unit']} "
            f"({change:+.1f} %, {row['better']} is better); change wins "
            f"{row['wins']}/{row['pairs']}{'; clear' if row['clear'] else ''}")


def sign_p(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of wins against losses, ties dropped."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def summarize_inproc(pairs: list) -> dict:
    """Summary of (base, other) job times in seconds: each side's median,
    their ratio other/base, the median of the paired ratios, the pairs in
    which other was faster (wins) and slower (losses), and the sign-test
    p-value of wins against losses."""
    base, other = [b for b, _ in pairs], [o for _, o in pairs]
    wins, losses = sum(o < b for b, o in pairs), sum(o > b for b, o in pairs)
    return {
        "pairs": len(pairs),
        "base_median": statistics.median(base),
        "other_median": statistics.median(other),
        "ratio": statistics.median(other) / statistics.median(base),
        "paired_ratio": statistics.median(o / b for b, o in pairs),
        "wins": wins,
        "losses": losses,
        "sign_p": sign_p(wins, losses),
    }


def format_inproc(side: str, row: dict) -> str:
    return (f"{side} against base: median {row['other_median']:.6g} s against "
            f"{row['base_median']:.6g} s, ratio {row['ratio']:.4f} (paired "
            f"{row['paired_ratio']:.4f}); faster in {row['wins']}/{row['pairs']}, slower in "
            f"{row['losses']}, sign test p = {row['sign_p']:.3g}")


def import_module(name: str, path: str, package: bool = False):
    """The module or package at path, imported as name."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py") if package else path,
        submodule_search_locations=[path] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def import_cli(checkout_path: str, name: str):
    """The cli module of the checkout's kvprune, imported as package name."""
    import_module(name, os.path.join(checkout_path, "src", "kvprune"), package=True)
    return importlib.import_module(f"{name}.cli")


def inproc_workdir(name: str) -> str:
    """The work directory of an in-process side; all are of equal length."""
    return os.path.join(BUILD, "inproc-" + name[-4:])


def run_inproc(paths: dict, workload: str, pairs: int) -> dict:
    """{"change": summary, "null": summary} of summarize_inproc over pairs
    rounds in this process (see the module docstring). ChecksFailed when
    a side's outputs fail perfbench's checks or a timed job fails."""
    workloads = import_module("ab_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    jobs = {}
    for side, (tree, name) in INPROC.items():
        cli = import_cli(paths[tree], name)
        wl = workloads.make(workload, inproc_workdir(name), SEED)
        os.makedirs(wl.workdir, exist_ok=True)
        errors = [f"set-up {argv[0]} exited {code}: {err.strip()[-400:]}"
                  for argv, code, _, err in workloads.run_commands(cli, wl.setup_commands())
                  if code != 0] or wl.check_setup()
        if not errors:
            reference = workloads.load_reference(workloads.REFERENCE_PATH, wl)
            errors = wl.check(workloads.run_commands(cli, wl.job_commands()), reference)
            if reference is None:
                errors.append("no reference recorded for this workload")
        if errors:
            raise ChecksFailed(f"{side} outputs failed their checks: {'; '.join(errors)}")
        jobs[side] = (cli, wl)

    def timed(side: str) -> float:
        cli, wl = jobs[side]
        wl.clear_outputs()
        start = time.perf_counter()
        results = workloads.run_commands(cli, wl.job_commands())
        elapsed = time.perf_counter() - start
        if len(results) != len(wl.job_commands()) or results[-1][1] != 0:
            raise ChecksFailed(f"{side} job failed: {results[-1][3].strip()[-400:]}")
        return elapsed

    times = {"change": [], "null": []}
    for pair in range(pairs):
        for other in times:
            order = ("base", other) if pair % 2 == 0 else (other, "base")
            seconds = {side: timed(side) for side in order}
            times[other].append((seconds["base"], seconds[other]))
    return {other: summarize_inproc(times[other]) for other in times}


def git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def remove_worktree(path: str) -> None:
    subprocess.run(["git", "worktree", "remove", "--force", path], cwd=ROOT,
                   capture_output=True)
    shutil.rmtree(path, ignore_errors=True)
    subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)


def checkout(rev: str, path: str) -> str:
    """A detached worktree of rev at path, replacing any left there; returns
    the commit."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    remove_worktree(path)
    git("worktree", "add", "--detach", path, commit)
    return commit


def perfbench(path: str, workload: str, seconds: float) -> dict:
    """The result object of one perfbench run in the checkout at path."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", repr(seconds)]
    proc = subprocess.run(cmd, cwd=path, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        raise BenchError(f"perfbench in {path} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="revision to compare against")
    p.add_argument("--change", default="HEAD", help="revision under test (default HEAD)")
    p.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    p.add_argument("--pairs", type=int, required=True, help="pairs of runs, one run per side")
    p.add_argument("--seconds", type=float, default=20.0, help="perfbench --seconds per run")
    p.add_argument("--inproc", action="store_true",
                   help="time both revisions' jobs alternately in this one process")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        args.benchmark = json.load(fh)
    workloads = [w["name"] for w in args.benchmark["workloads"]]
    if args.workload not in workloads:
        p.error(f"--workload must be one of {', '.join(workloads)}")
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    paths = {side: os.path.join(BUILD, name) for side, name in SIDES.items()}
    pairs = []
    try:
        commits = {side: checkout(getattr(args, side), paths[side]) for side in SIDES}
        for side in SIDES:
            print(f"{side}: {commits[side]} at {paths[side]}")
        if args.inproc:
            rows = run_inproc(paths, args.workload, args.pairs)
        for pair in range(0 if args.inproc else args.pairs):
            order = list(SIDES) if pair % 2 == 0 else list(SIDES)[::-1]
            results = {}
            for side in order:
                results[side] = perfbench(paths[side], args.workload, args.seconds)
                if not results[side]["correct"]:
                    print(f"pair {pair}: {side} failed {results[side]['failed']} of "
                          f"{results[side]['attempted']} jobs", file=sys.stderr)
                    return 1
            values = {side: {name: metric["value"]
                             for name, metric in results[side]["metrics"].items()}
                      for side in SIDES}
            pairs.append((values["base"], values["change"]))
            print(f"pair {pair} ({order[0]} first): job_s.p50 base "
                  f"{values['base']['job_s.p50']:.6g} change {values['change']['job_s.p50']:.6g}")
    except ChecksFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        for path in paths.values():
            remove_worktree(path)
        for _, name in INPROC.values():
            shutil.rmtree(inproc_workdir(name), ignore_errors=True)
    if args.inproc:
        for side, row in rows.items():
            print(format_inproc(side, row))
        print(json.dumps({"workload": args.workload, "mode": "inproc", "seed": SEED,
                          "base": commits["base"], "change": commits["change"], "rows": rows}))
        return 0
    rows = summarize(pairs, args.benchmark["end_to_end"])
    for row in rows:
        print(format_row(row))
    print(json.dumps({"workload": args.workload, "seconds": args.seconds, "seed": SEED,
                      "base": commits["base"], "change": commits["change"], "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
