"""One workload in a fresh interpreter; run.py starts it and reads its result.

    python3 perfbench/worker.py --root DIR --workdir DIR --workload NAME \
        --seed N --seconds S --trace 0|1 --t0 T [--setup-only] [--shape JSON]
        [--reference PATH] [--spans PATH]

Set-up is everything from the parent's `--t0` (a CLOCK_MONOTONIC reading
taken just before this process was started) to the first timed job:
interpreter start, imports, input traces and one untimed warm-up job. Then
jobs run back to back until their calibrated times add up to `--seconds`.
With `--trace 1` the first half runs untraced and the second half traced,
so the tracing overhead is measured in the same process.

Calibration: the speed of a shared host drifts by 10-30 % over minutes,
which no median over one run can remove. So a fixed kernel that shares no
code with kvprune (`calibrate`, of the kind the workload names) is timed
before and after every job, and each job's times are also reported as
`time * CAL_REF_S / kernel time`: seconds on a host where the kernel takes
CAL_REF_S. Raw times are kept next to the calibrated ones. Set-up time
stays raw: neither a kernel run in the short set-up process nor the
measured process's factor tracked it, both widened its spread.

The last line of standard output is one JSON object with every job's wall
and CPU time, its failures, set-up time, peak RSS, environment and, when
traced, per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import workloads

# Kernel times on the reference host (2 vCPU x86-64, Python 3.11, numpy
# 2.4). Changing one rescales every calibrated time; they must stay fixed.
CAL_REF_S = {"compute": 0.015, "mixed": 0.037}
# A run stops after this many times --seconds of real time however slow
# the host is, which bounds how long a series of runs takes.
MAX_STRETCH = 1.5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True, help="checkout holding src/kvprune")
    p.add_argument("--workdir", required=True, help="directory for inputs and outputs")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--shape", help="JSON shape overriding the workload's own")
    p.add_argument("--reference", default=workloads.REFERENCE_PATH)
    p.add_argument("--spans", help="file to write the traced spans to")
    return p.parse_args(argv)


def import_program(root: str):
    """Import kvprune from the checkout's src/, never from elsewhere."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import kvprune.cli

    where = os.path.realpath(kvprune.cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"kvprune imported from {where}, not from {src}")
    return kvprune.cli


def environment() -> dict:
    import numpy

    blas = {}
    config = numpy.show_config(mode="dicts") or {}
    info = config.get("Build Dependencies", {}).get("blas", {})
    for key in ("name", "version", "openblas configuration"):
        if key in info:
            blas[key] = info[key]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {key: os.environ.get(key) for key in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "KVPRUNE_THREADS")},
    }


_SMALL = np.random.default_rng(0).standard_normal((48, 48))
_VECTOR = np.random.default_rng(1).standard_normal(512)
_GRID = np.linspace(-3.0, 3.0, 512)
_SAMPLES = np.random.default_rng(2).standard_normal(1024)


def calibrate(kind: str) -> float:
    """Seconds for a fixed kernel of the given kind.

    "compute": small numpy calls and a Python loop, which fit in cache like
    the decode loop's work. "mixed": that plus Gaussian kernel sums over
    4 MiB temporaries, which also stream through memory like the KDE.
    """
    start = time.perf_counter()
    for _ in range(250):
        b = _SMALL @ _SMALL
        np.argsort(_VECTOR, kind="stable")
        np.exp(b).sum(axis=1)
        np.unique(_VECTOR[:200])
        total = 0
        for i in range(300):
            total += i
    if kind == "mixed":
        for _ in range(4):
            z = (_GRID[:, None] - _SAMPLES[None, :]) / 0.3
            np.exp(-0.5 * z * z).sum(axis=1)
    return time.perf_counter() - start


class Runner:
    def __init__(self, cli, workload, reference):
        self.cli = cli
        self.workload = workload
        self.reference = reference
        self.jobs = []

    def job(self, tracer=None) -> dict:
        """Run and time one job, then check its outputs outside the timing."""
        wl = self.workload
        wl.clear_outputs()
        commands = wl.job_commands()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        # The job span lies inside the timed interval, so the self times of
        # one thread's spans never add up to more than the job's wall time.
        if tracer is not None:
            tracer.begin_job(len(self.jobs))
        results = workloads.run_commands(self.cli, commands)
        if tracer is not None:
            tracer.end_job()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        record = {"wall": wall, "cpu": cpu, "traced": tracer is not None,
                  "errors": wl.check(results, self.reference)}
        self.jobs.append(record)
        return record

    def loop(self, seconds: float, tracer=None) -> list:
        """Jobs until their calibrated walls add up to `seconds`."""
        start = time.perf_counter()
        timed = []
        total = 0.0
        kind = self.workload.calibration
        cal = calibrate(kind)
        while True:
            record = self.job(tracer)
            after = calibrate(kind)
            scale = CAL_REF_S[kind] / ((cal + after) / 2.0)
            cal = after
            record["wall_cal"] = record["wall"] * scale
            record["cpu_cal"] = record["cpu"] * scale
            timed.append(record)
            total += record["wall_cal"]
            if total >= seconds or time.perf_counter() - start >= MAX_STRETCH * seconds:
                return timed


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_program(args.root)
    shape = json.loads(args.shape) if args.shape else None
    wl = workloads.make(args.workload, args.workdir, args.seed, shape)
    reference = workloads.load_reference(args.reference, wl)
    os.makedirs(args.workdir, exist_ok=True)

    setup_errors = []
    for argv_, code, _, err in workloads.run_commands(cli, wl.setup_commands()):
        if code != 0:
            setup_errors.append(f"set-up {argv_[0]} exited {code}: {err.strip()[-400:]}")
    if not setup_errors:
        setup_errors += wl.check_setup()

    runner = Runner(cli, wl, reference)
    warmup = runner.job()
    warmup["errors"] = setup_errors + warmup["errors"]
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "warmup": warmup, "shape": wl.shape,
              "step_layers_per_job": wl.step_layers(),
              "reference_checked": reference is not None}

    if not args.setup_only:
        runner.jobs.clear()
        if args.trace:
            from tracer import Tracer, layer_metrics, thread_self_sums

            runner.loop(args.seconds / 2.0)
            tracer = Tracer()
            tracer.install()
            traced = runner.loop(args.seconds / 2.0, tracer)
            if args.spans:
                tracer.write(args.spans)
            # One scale for the traced half: its median calibration.
            scale = statistics.median(job["wall_cal"] / job["wall"] for job in traced)
            layers = {}
            for name, (value, unit) in layer_metrics(tracer.spans, len(traced)).items():
                if unit.startswith("s/"):
                    value *= scale
                elif unit.endswith("/s"):
                    value /= scale
                layers[name] = [value, unit]
            result["layers"] = layers
            result["missing_targets"] = tracer.missing
            result["hook_errors"] = tracer.hook_errors
            result["thread_self_s"] = [[job, thread, total] for (job, thread), total in
                                       thread_self_sums(tracer.spans).items()]
        else:
            runner.loop(args.seconds)
        result["jobs"] = runner.jobs
        result["env"] = environment()
        result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
