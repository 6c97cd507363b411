"""Regenerate the benchmark's recorded data from the current program.

Usage, from the repository root::

    PYTHONPATH=src:.:perfbench python3 perfbench/make_golden.py

Writes two files next to this script:

* ``golden.json`` — the sha256 of every section ``repro-experiments all``
  prints, and the reference interpreter's (exit code, output sha256) for
  each workload's smallest dataset.  The sweeps fail a run whose output
  differs.  Regenerate only when a change is meant to alter what the
  program computes, and say so in that change.
* ``profiles.json`` — the branch profile of every (workload, dataset)
  run, the upload payloads of ``serve-mix``.
"""
from __future__ import annotations

import hashlib
import json
import os
import tempfile

from common import HERE, OUT, remove_dir
from layers import SECTIONS
from refcheck import check
from repro.core.runner import WorkloadRunner
from repro.profiling.branch_profile import BranchProfile
from repro.workloads.registry import all_workloads
from sweep_child import render


def write(name: str, payload: dict, indent=None) -> None:
    with open(os.path.join(HERE, name), "w") as handle:
        json.dump(payload, handle, indent=indent, sort_keys=True)
        handle.write("\n")


def main() -> None:
    reference = check()
    bad = [name for name, entry in reference.items() if not entry["ok"]]
    if bad:
        raise SystemExit(f"pipeline disagrees with the interpreter on {bad}")
    os.makedirs(OUT, exist_ok=True)
    cache = tempfile.mkdtemp(prefix="golden-", dir=OUT)
    try:
        runner = WorkloadRunner(cache_dir=cache, jobs=2)
        sections = {
            name: hashlib.sha256(render(runner, name).encode("utf-8")).hexdigest()
            for name in SECTIONS
        }
        profiles = [
            {
                "program": workload.name,
                "dataset": dataset,
                "profile": BranchProfile.from_run(
                    runner.run(workload.name, dataset)
                ).to_dict(),
            }
            for workload in all_workloads()
            for dataset in workload.dataset_names()
        ]
    finally:
        remove_dir(cache)
    write("golden.json", {
        "sections": sections,
        "reference": {
            name: {"dataset": entry["dataset"], "answer": entry["reference"]}
            for name, entry in reference.items()
        },
    }, indent=1)
    write("profiles.json", {"profiles": profiles})


if __name__ == "__main__":
    main()
