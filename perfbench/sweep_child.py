"""One sweep process: render experiment sections against a private cache.

Usage (from the repository root, with ``src`` and the root on
``PYTHONPATH``)::

    python3 perfbench/sweep_child.py --cache DIR --jobs N \\
        --sections table1,table2 [--trace-dir DIR] [--check-reference]

The process imports everything (and, with ``--trace-dir``, installs the
layer wrappers), prints ``ready`` and waits for one line on stdin:
``go`` runs the sections, anything else exits.  Splitting set-up from
the run lets the caller time them apart.  The result is one JSON line:
per section its sha256 and seconds, the wall time from ``go`` to the
last section and the moment it began (``perf_counter``, on Linux the
system-wide monotonic clock, so the caller can take out the time it kept
the process paused), and the peak RSS of this process and of its pool
workers.  With ``--trace-dir``, the spans of this process and of its pool workers
are left in that directory for the caller to merge.

Sections are rendered with the same ``run(runner)``/``format_text()``
calls as ``repro-experiments``; a section's digest covers exactly the
text that command prints for it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback

from layers import SECTIONS, Tracer, install
from repro.core.runner import WorkloadRunner
from repro.experiments import cli
from repro.workloads.registry import all_workloads


def render(runner: WorkloadRunner, name: str) -> str:
    """The text ``repro-experiments <name>`` prints for one section."""
    if name == "informal":
        sections = cli._run_informal(runner)
    elif name == "ablations":
        sections = cli._run_ablations(runner)
    else:
        sections = [cli._SIMPLE[name](runner).format_text()]
    return "".join(section + "\n\n" for section in sections)


def reference_answers(runner: WorkloadRunner) -> dict:
    """(exit code, output digest) of each workload's smallest dataset, from
    the runs this sweep already memoized.  A run that raises gives an
    ``error`` instead, a failed answer."""
    answers = {}
    for workload in all_workloads():
        dataset = min(workload.datasets, key=lambda data: len(data.data))
        answer = answers[workload.name] = {"dataset": dataset.name}
        try:
            result = runner.run(workload.name, dataset.name)
        except Exception as exc:
            traceback.print_exc()
            answer["error"] = repr(exc)
            continue
        answer["exit_code"] = result.exit_code
        answer["output_sha256"] = hashlib.sha256(result.output).hexdigest()
    return answers


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cache", required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--sections", required=True)
    parser.add_argument("--trace-dir", default="")
    parser.add_argument("--check-reference", action="store_true")
    args = parser.parse_args()
    names = args.sections.split(",")
    for name in names:
        if name not in SECTIONS:
            parser.error(f"unknown section {name!r}")

    tracer = None
    if args.trace_dir:
        tracer = Tracer(spill_dir=args.trace_dir)
        install(tracer)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    started = time.perf_counter()
    runner = WorkloadRunner(cache_dir=args.cache, jobs=args.jobs)
    sections = {}
    for name in names:
        section_started = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span(f"experiments.{name}"):
                    text = render(runner, name)
            else:
                text = render(runner, name)
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        except Exception:
            # A section that raises is a failed operation, not a crash of
            # the benchmark: report it and render the rest.
            traceback.print_exc()
            digest = "raised"
        sections[name] = {
            "sha256": digest,
            "seconds": time.perf_counter() - section_started,
        }
    wall = time.perf_counter() - started

    result = {
        "started": started,
        "wall_s": wall,
        "sections": sections,
        "maxrss_kb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ),
    }
    if args.check_reference:
        result["reference"] = reference_answers(runner)
    if tracer is not None:
        # This process's spans join its pool workers' in the trace
        # directory, where the caller reads them all.
        tracer.spill()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
