"""Command-line entry point: regenerate every table and figure.

Usage::

    repro-experiments [table1|...|figure3|runlengths|coverage|dynamic|proofs|all]
    repro-experiments figure2 --chart      # ASCII bar charts
    repro-experiments dynamic --jobs 2     # static vs hardware predictors
    repro-experiments export --out results.json
"""
from __future__ import annotations

import argparse
import sys
import time
from typing import List

from repro.core.runner import WorkloadRunner
from repro.experiments import (
    ablations,
    coverage,
    dynamic_compare,
    figure1,
    figure2,
    figure3,
    informal,
    overview,
    proofs,
    runlengths,
    scaling,
    table1,
    table2,
    table3,
)

_SIMPLE = {
    "table1": table1.run,
    "table2": table2.run,
    "table3": table3.run,
    "figure1": figure1.run,
    "figure2": figure2.run,
    "figure3": figure3.run,
    "runlengths": runlengths.run,
    "coverage": coverage.run,
    "scaling": scaling.run,
    "dynamic": dynamic_compare.run,
    "overview": overview.run,
    "proofs": proofs.run,
}


def _run_informal(runner: WorkloadRunner) -> List[str]:
    sections = [
        informal.combine_modes(runner).format_text(),
        informal.heuristics(runner).format_text(),
        informal.percent_taken(runner).format_text(),
        informal.compress_cross(runner).format_text(),
        informal.wrong_measure(runner).format_text(),
        informal.dynamic_comparison(
            runner, programs=["li", "gcc", "compress", "tomcatv", "lfk", "doduc"]
        ).format_text(),
    ]
    return sections


def _run_ablations(runner: WorkloadRunner) -> List[str]:
    return [
        ablations.inlining(runner).format_text(),
        ablations.if_conversion(runner).format_text(),
    ]


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Reproduce the paper's tables and figures."
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default="all",
        choices=sorted(_SIMPLE) + ["informal", "ablations", "export", "all"],
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk run cache",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help="fan independent runs across N worker processes "
        "(0 = all cores; default: the REPRO_JOBS env var, else 1)",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="render figures as ASCII bar charts instead of tables",
    )
    parser.add_argument(
        "--out",
        default="results.json",
        help="output path for the export subcommand",
    )
    args = parser.parse_args(argv)

    try:
        runner = WorkloadRunner(
            cache_dir=None if args.no_cache else "auto", jobs=args.jobs
        )
    except ValueError as exc:
        parser.error(str(exc))
    names = (
        sorted(_SIMPLE) + ["informal", "ablations"] if args.experiment == "all"
        else [args.experiment]
    )
    for name in names:
        started = time.time()
        if name == "informal":
            sections = _run_informal(runner)
        elif name == "ablations":
            sections = _run_ablations(runner)
        elif name == "export":
            from repro.experiments.export import export_json

            export_json(args.out, runner)
            sections = [f"wrote {args.out}"]
        else:
            result = _SIMPLE[name](runner)
            if args.chart and hasattr(result, "format_chart"):
                sections = [result.format_chart()]
            else:
                sections = [result.format_text()]
        for section in sections:
            print(section)
            print()
        print(f"[{name} done in {time.time() - started:.1f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
