"""Self-tests of the benchmark at tiny shapes.

    python3 -m pytest perfbench -q

They check the contract with BENCHMARK.json, that a failed output check
fails the run, and that traced self times fit inside job wall time.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

import run
import tracer
import workloads
from worker import import_program

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")

TINY = {
    "sweep-live": {
        "text": 8, "visual": 8, "interleave": "alternating", "layers": 1, "heads": 1, "dim": 4,
        "steps": 2, "recent": 4, "obs": 4, "grid": [0.5, 1.0],
        "policies": ["csp", "global-topk", "accum", "full"],
    },
    "replay-widen": {
        "text": 16, "visual": 16, "interleave": "alternating", "layers": 1, "heads": 2, "dim": 4,
        "steps": 2, "shift": 2.0, "obs": 4, "recent": 4, "budget": 0.5,
        "policies": ["csp", "global-topk", "accum"],
    },
    "trace-analyze": {
        "text": 8, "visual": 8, "interleave": "block", "layers": 1, "heads": 1, "dim": 4,
        "steps": 1, "shift": 2.0, "obs": 4,
    },
}


@pytest.fixture
def workdir():
    """A scratch directory inside the checkout, removed afterwards."""
    path = os.path.join(run.ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _benchmark() -> dict:
    with open(BENCHMARK, encoding="utf-8") as fh:
        return json.load(fh)


def _run(capsys, workload, trace=0, seed=7, reference=None):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace)]
    code = run.main(argv, shape=TINY[workload], reference=reference)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in _benchmark()["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(capsys, workload, trace):
    code, lines, result = _run(capsys, workload, trace)
    assert code == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = _benchmark()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.startswith(f"{metric['name']} = ") and line.endswith(f" {metric['unit']}")
                   for line in lines[:-1])


def _tiny_digest(path) -> str:
    """sha256 of the tiny sweep-live csp output, from one in-process job."""
    cli = import_program(run.ROOT)
    wl = workloads.make("sweep-live", path, 7, TINY["sweep-live"])
    results = workloads.run_commands(cli, wl.job_commands())
    assert wl.check(results, None) == []
    return workloads.sha256(wl.path("sweep-csp.csv"))


def test_reference_digest_gates_the_run(capsys, workdir):
    digest = _tiny_digest(workdir)
    reference = os.path.join(workdir, "reference.json")

    def write(value):
        entry = {"shape": TINY["sweep-live"], "sha256": {"sweep-csp.csv": value}}
        with open(reference, "w", encoding="utf-8") as fh:
            json.dump({"seed": 7, "workloads": {"sweep-live": entry}}, fh)

    write(digest)
    code, _, result = _run(capsys, "sweep-live", reference=str(reference))
    assert code == 0 and result["failed"] == 0

    write("0" * 64)
    code, lines, result = _run(capsys, "sweep-live", reference=str(reference))
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    share = result["metrics"]["failed_share"]["value"]
    assert share > 0.5 / (result["attempted"] + 1)
    assert any("sweep-csp.csv differs from the reference bytes" in line for line in lines)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_fit_in_job_wall(workload):
    args = run.parse_args(["--workload", workload, "--seconds", "0.3", "--trace", "1"])
    result, _, _ = run.run(args, shape=TINY[workload])
    walls = {index: job["wall"] for index, job in enumerate(result["jobs"]) if job["traced"]}
    assert walls
    per_job = {}
    for job, _thread, total in result["thread_self_s"]:
        assert total <= walls[job]
        per_job[job] = per_job.get(job, 0.0) + total
    threads = max(1, result["layers"]["simulator.sweep.threads"][0])
    for job, total in per_job.items():
        assert total <= walls[job] * threads
    # Reported self times are per traced job, scaled by the median calibration.
    traced = [job for job in result["jobs"] if job["traced"]]
    scale = statistics.median(job["wall_cal"] / job["wall"] for job in traced)
    mean_wall = sum(job["wall"] for job in traced) / len(traced)
    self_sum = sum(value for name, (value, _) in result["layers"].items()
                   if name.endswith(".self_s"))
    assert self_sum <= mean_wall * scale * threads


def test_missing_wrap_target_is_listed_not_fatal():
    import_program(run.ROOT)
    t = tracer.Tracer()
    t.install((("core.kv_append", "kvprune.core", "KvCacheState.no_such_method", None),
               ("gone.fn", "kvprune.no_such_module", "fn", None)))
    assert t.missing == ["kvprune.core.KvCacheState.no_such_method", "kvprune.no_such_module.fn"]
    metrics = tracer.layer_metrics(t.spans, 1)
    assert metrics["core.kv_append.calls"] == (0.0, "count/job")


def test_no_result_without_the_program(workdir):
    shutil.copy(BENCHMARK, os.path.join(workdir, "BENCHMARK.json"))
    shutil.copytree(run.HERE, os.path.join(workdir, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-live", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
