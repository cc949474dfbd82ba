"""kvprune benchmark: time one workload through the public CLI, check outputs.

    python3 perfbench/run.py --workload sweep-live|replay-widen|trace-analyze \
        [--seed 7] [--seconds 20] [--trace 0|1]

Run from the root of a checkout; the program is imported from its src/.
Each workload runs in fresh interpreters started one after another (see
worker.py): with `--trace 0`, six set-up-only processes and then the
measured one, so `setup_s` is a median of seven set-ups; with `--trace 1`,
one process whose second half is traced. Nothing else runs meanwhile and
no thread is started beyond the program's own.

Human-readable lines come first: the environment, the resolved shape, any
failed check, and every metric with its unit. The last line is one JSON
object with the keys correct, attempted, failed and metrics. The exit code
is 0 when every job's outputs checked out, 1 when any job failed, and 2
when the benchmark could not run at all (no src/kvprune, a crashed
worker); then no result line is printed. Metric definitions are in
README.md.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUPS = 7
SETUP_TIMEOUT_S = 60
# The measured process stops its loop by 1.5x --seconds of real time on a
# slow host (worker.MAX_STRETCH); the timeout leaves ample room on top.
RUN_SLACK_S = 60


class BenchError(Exception):
    """The benchmark could not produce a result."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def git_commit(root: str) -> str | None:
    """HEAD's commit read from .git without running git; None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(root: str) -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "kvprune", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return digest.hexdigest()


def spawn(cmd: list, timeout: float) -> dict:
    """Run one worker to completion and return its result object."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"worker printed no result: {proc.stdout[-500:]!r}")


def tail(walls: list) -> tuple[float, float]:
    """(value, percentile): the highest percentile with >= 10 jobs beyond it.

    With n jobs that is the 11th slowest, the 100 (n - 10) / n percentile.
    Below 11 jobs no such percentile exists and the slowest job stands in.
    """
    ordered = sorted(walls)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setups: list, result: dict) -> dict:
    """Every end-to-end metric; job times are calibrated (see worker.py)."""
    jobs = result["jobs"]
    walls = [job["wall_cal"] for job in jobs]
    tail_s, _ = tail(walls)
    attempted, failed = count_jobs(result)
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "job_s.p50": _metric(statistics.median(walls), "s"),
        "job_s.tail": _metric(tail_s, "s"),
        "job_cpu_s.p50": _metric(statistics.median(job["cpu_cal"] for job in jobs), "s"),
        "step_layers_per_s": _metric(result["step_layers_per_job"] * len(jobs) / sum(walls), "1/s"),
        "peak_rss_mb": _metric(result["peak_rss_kib"] / 1024.0, "MiB"),
        "failed_share": _metric((failed + 0.5) / (attempted + 1), "ratio"),
    }


def per_layer(result: dict) -> dict:
    metrics = {name: _metric(value, unit) for name, (value, unit) in result["layers"].items()}
    traced = [job["wall_cal"] for job in result["jobs"] if job["traced"]]
    untraced = [job["wall_cal"] for job in result["jobs"] if not job["traced"]]
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.overhead_share"] = _metric(overhead, "ratio")
    return metrics


def count_jobs(result: dict) -> tuple[int, int]:
    """(attempted, failed) over every warm-up and timed job of the run."""
    jobs = result["jobs"] + result["warmups"]
    return len(jobs), sum(1 for job in jobs if job["errors"])


def run(args, shape=None, reference=None) -> tuple[dict, dict, list]:
    """Run the worker processes; returns (result, environment, set-up times)."""
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    base = [sys.executable, WORKER, "--root", ROOT, "--workdir", workdir,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if shape is not None:
        base += ["--shape", json.dumps(shape)]
    if reference is not None:
        base += ["--reference", reference]
    setups, warmups = [], []
    try:
        if not args.trace:
            for _ in range(SETUPS - 1):
                child = spawn(base + ["--setup-only"], SETUP_TIMEOUT_S)
                setups.append(child["setup_s"])
                warmups.append(child["warmup"])
        else:
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            base += ["--spans", os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")]
        result = spawn(base, 3 * args.seconds + RUN_SLACK_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    setups.append(result["setup_s"])
    warmups.append(result["warmup"])
    result["warmups"] = warmups
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT),
        "shape": result["shape"],
        "reference_checked": result["reference_checked"],
        **result["env"],
    }
    return result, env, setups


def main(argv=None, shape=None, reference=None) -> int:
    """Entry point; `shape` and `reference` let self-tests run tiny, doctored cases."""
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kvprune", "cli.py")):
        print(f"error: no program to benchmark: {ROOT}/src/kvprune is missing", file=sys.stderr)
        return 2
    try:
        result, env, setups = run(args, shape, reference)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    attempted, failed = count_jobs(result)
    metrics = per_layer(result) if args.trace else end_to_end(setups, result)
    print("environment: " + json.dumps(env, sort_keys=True))
    errors = Counter(error for job in result["warmups"] + result["jobs"] for error in job["errors"])
    for error, count in errors.items():
        print(f"check failed in {count} jobs: {error}")
    if args.trace:
        if result["missing_targets"]:
            print("missing wrap targets (reported as 0 calls): " + ", ".join(result["missing_targets"]))
        for name, error in result["hook_errors"].items():
            print(f"counter hook failed on {name}: {error}")
        traced = [job["wall_cal"] for job in result["jobs"] if job["traced"]]
        print(f"per-layer metrics are per traced job over {len(traced)} jobs; "
              f"calibrated traced job_s.p50 = {statistics.median(traced):.6g} s")
    else:
        walls = [job["wall"] for job in result["jobs"]]
        _, pct = tail(walls)
        print("set-ups: " + ", ".join(f"{s:.3f}" for s in setups) + " s")
        print(f"jobs: {len(walls)} timed in {sum(walls):.1f} s; raw job_s.p50 = "
              f"{statistics.median(walls):.6g} s; job_s.tail is p{pct:.1f} of {len(walls)}")
        print(f"jobs: {attempted} attempted, {failed} failed (warm-ups included); "
              "failed_share = (failed + 0.5) / (attempted + 1)")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
