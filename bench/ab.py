"""A/B benchmark of two revisions with perfbench, in alternating pairs.

    python3 bench/ab.py --base REV [--change REV] --workload W --pairs N [--seconds S]

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
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
# One directory name per side, of equal length.
SIDES = {"base": "ab-base", "change": "ab-chng"}
SEED = 7


class BenchError(Exception):
    """A checkout or a perfbench run could not be made."""


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
        for pair in range(args.pairs):
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
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        for path in paths.values():
            remove_worktree(path)
    rows = summarize(pairs, args.benchmark["end_to_end"])
    for row in rows:
        print(format_row(row))
    print(json.dumps({"workload": args.workload, "seconds": args.seconds, "seed": SEED,
                      "base": commits["base"], "change": commits["change"], "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
