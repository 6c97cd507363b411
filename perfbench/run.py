"""The repository benchmark: one command, two workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``sweep``      every section of ``repro-experiments all``: the tables
                 and figures on an empty private run cache with two pool
                 workers, then the monitored analyses serially in a
                 second process on that cache;
* ``serve-mix``  a seeded closed loop of upload and predict requests
                 against a ``repro-serve serve`` subprocess.

A run measures whole units for ``--seconds`` (at least one unit; a
sweep unit is longer than the window ``BENCHMARK.json`` sets, so a sweep
run is one unit).  It checks every output, prints a readable report and, as its
last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The traced run
also writes Chrome trace-event JSON to ``perfbench/out/``.

A failed check makes the run fail: ``correct`` is false and the exit
code is 1.  So does a process of the program that crashes or hangs
mid-run: the sections it did not render, or the requests it did not
answer, count as failed.  A run that cannot start (no ``src/`` to
benchmark, a process that does not come up) exits 2 without a result
line.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from common import ROOT, BenchError, make_workdir, remove_dir

WORKLOADS = ("sweep", "serve-mix")


def declared_metrics(trace: bool) -> dict:
    """name -> unit, from BENCHMARK.json: the run must emit exactly these."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in spec[key]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object (see module doc)."""
    declared = declared_metrics(trace)
    workdir = make_workdir()
    try:
        if workload == "serve-mix":
            from serve_mix import run_serve_mix

            outcome = run_serve_mix(workdir, seconds, trace, seed)
            attempted = outcome["attempted"]
            failures = outcome["failures"]
        else:
            from sweeps import run_sweep

            outcome = run_sweep(workdir, seconds, trace, seed)
            attempted = outcome["checks"].attempted
            failures = outcome["checks"].failures
    finally:
        remove_dir(workdir)

    values = (outcome["layers"] or {}) if trace else outcome["metrics"]
    unknown = sorted(set(values) - set(declared))
    if trace:
        # A workload reports the layers it drives; the others read zero.
        values = {name: values.get(name, 0) for name in declared}
    missing = sorted(set(declared) - set(values))
    if unknown or missing:
        raise BenchError(
            f"metrics differ from BENCHMARK.json: unknown {unknown}, "
            f"missing {missing}"
        )
    return {
        "report": outcome["report"] + [f"  FAILED {line}" for line in failures],
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {
                name: {"value": values[name], "unit": declared[name]}
                for name in declared
            },
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = os.path.join(ROOT, "src", "repro")
    if not os.path.isdir(source):
        print(f"run.py: no program to benchmark at {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    for line in outcome["report"]:
        print(line)
    for name, metric in outcome["result"]["metrics"].items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(outcome["result"]), flush=True)
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
