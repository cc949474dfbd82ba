"""Record reference.json: output digests and KDE curves at the default seed.

    python3 perfbench/make_reference.py

Runs one job of every workload at seed 7 and its default shape, requires
the seed-independent checks to pass, and stores the sha256 of the CSVs the
benchmark compares byte for byte plus the KDE curves it compares within
workloads.KDE_RTOL. Run it only when an output is meant to change, and say
why in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import workloads
from worker import import_program

DIGESTED = {
    "sweep-live": [f"sweep-{policy}.csv" for policy in workloads.SHAPES["sweep-live"]["policies"]],
    "replay-widen": ["compare.csv"],
    "trace-analyze": ["divergence.csv"],
}
KDE_REFERENCE = "reference/trace-analyze_kde.csv"


def main() -> int:
    root = os.path.dirname(workloads.HERE)
    cli = import_program(root)
    workdir = os.path.join(root, ".perfbench_work", "reference")
    entries = {}
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.make(name, os.path.join(workdir, name), workloads.DEFAULT_SEED)
            os.makedirs(wl.workdir, exist_ok=True)
            results = workloads.run_commands(cli, wl.setup_commands() + wl.job_commands())
            errors = wl.check(results[len(wl.setup_commands()):], None)
            if errors:
                print(f"{name}: {errors}", file=sys.stderr)
                return 1
            entry = {"shape": wl.shape,
                     "sha256": {f: workloads.sha256(wl.path(f)) for f in DIGESTED[name]}}
            if name == "trace-analyze":
                os.makedirs(os.path.join(workloads.HERE, "reference"), exist_ok=True)
                shutil.copyfile(wl.path("divergence_kde.csv"),
                                os.path.join(workloads.HERE, KDE_REFERENCE))
                entry["kde_csv"] = KDE_REFERENCE
            entries[name] = entry
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"seed": workloads.DEFAULT_SEED, "workloads": entries}, fh, indent=2)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
