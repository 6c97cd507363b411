"""Run workloads under several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workload sweep serve-mix \
        --runs 10 --first-seed 2000 --save set1.json
    python3 perfbench/spread.py --workload sweep serve-mix \
        --runs 10 --first-seed 3000 --compare set1.json

Run ``k`` of every workload uses seed ``first-seed + k``, and the
workloads are interleaved run by run (all workloads at one seed, then all
at the next), so slow drift of the machine reaches every workload alike.
Each run is ``BENCHMARK.json``'s command with its ``run_seconds``.

For each workload and end-to-end metric it prints the median over the
runs and the distance between the first and third quartiles
(``statistics.quantiles(n=4)``) as a share of that median, next to the
metric's bound.  A steady benchmark keeps every spread but ``setup_s``'s
below a third of its bound.  ``--save`` writes the values as JSON;
``--compare`` reads a saved set and prints how far each median moved
from it, which must stay within the bound.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from common import ROOT


def run_once(spec: dict, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", help="write the values to this JSON file")
    parser.add_argument("--compare", help="a file --save wrote earlier")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    metrics = spec["end_to_end"]

    values = {workload: {metric["name"]: [] for metric in metrics}
              for workload in args.workload}
    started = time.monotonic()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in args.workload:
            result = run_once(spec, workload, seed)
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={samples[-1]:.5g}"
                for name, samples in values[workload].items()
            ), flush=True)
    print(f"{args.runs * len(args.workload)} runs took "
          f"{time.monotonic() - started:.0f} s")

    earlier = {}
    if args.compare:
        with open(args.compare) as handle:
            earlier = json.load(handle)
    steady = True
    for workload in args.workload:
        for metric in metrics:
            name = metric["name"]
            q1, median, q3 = statistics.quantiles(values[workload][name], n=4)
            share = (q3 - q1) / median
            ok = name == "setup_s" or share < metric["bound"] / 3
            line = (f"{workload} {name}: median {median:.5g} {metric['unit']}, "
                    f"spread {share:.4f} (bound {metric['bound']})")
            if workload in earlier:
                before = statistics.median(earlier[workload][name])
                change = (median - before) / before
                if metric["better"] == "higher":
                    change = -change
                ok &= change <= metric["bound"]
                line += f", median {change:+.4f} worse than before"
            steady &= ok
            print(line + (" ok" if ok else " NOT STEADY"))
    if args.save:
        with open(args.save, "w") as handle:
            json.dump(values, handle, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
