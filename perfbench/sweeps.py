"""The ``sweep`` workload: every section of ``repro-experiments all``.

A measured unit renders the sections in two fresh ``sweep_child.py``
processes that share one private run cache, empty when the unit starts,
so in-process memos start empty and only the on-disk cache carries over:

1. ``tables`` renders the tables and figures with two pool workers:
   unmonitored simulation, compiling, fan-out, cache writes.  It then
   checks each workload's smallest-dataset answer (already computed by
   the sweep) against the one the reference interpreter gave, as
   ``golden.json`` records it.
2. ``analyses`` renders the monitored analyses serially, reading the
   runs the first process cached: monitored simulation with the
   predictor callbacks, cache reads.

The unit's wall time is the sum of the two processes' times from ``go``
to their last section; starting a process is set-up.  While a measured
process runs, it is stopped every ``PAUSE_EVERY_S`` for one reference
pass (``common.machine_pass``); the stopped time is not in the unit's
time, and ``wall_rel`` is that time over the mean pass.  Every rendered
section must match its golden digest.  A sweep process that exits
non-zero or runs past the run's deadline is the program's failure: each
section it did not render counts as a failed check.
"""
from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import (
    BenchError,
    OUT,
    HERE,
    child_env,
    dir_bytes,
    fresh_dir,
    describe,
    load_json,
    Reference,
    machine_pass,
)
from layers import Tracer, layer_metrics, missing_spans, pass_metric, write_chrome_trace

#: The two processes of a unit: (name, sections, pool size), in order.
PARTS = (
    ("tables", ("table1", "table2", "table3", "figure1", "figure2", "figure3",
                "coverage", "scaling", "overview", "ablations"), 2),
    ("analyses", ("dynamic", "informal", "runlengths", "proofs"), 1),
)
#: Pool size of the unit, the share ``parallel.utilization`` is taken of.
JOBS = max(jobs for _, _, jobs in PARTS)

#: How often a measured sweep process is paused for a reference pass.
PAUSE_EVERY_S = 0.5
#: Spawn-to-ready samples of the first process before the measured units.
SETUP_REPS = 3
#: A run must end within 180 s: a sweep process still running this long
#: after the run started has failed.
BUDGET_S = 165.0


class Child:
    """A ``sweep_child.py`` process, held between ``ready`` and ``go``."""

    def __init__(self, workdir: str, cache: str, jobs: int, sections,
                 trace_dir: str = "", check_reference: bool = False) -> None:
        command = [
            sys.executable, os.path.join(HERE, "sweep_child.py"),
            "--cache", cache, "--jobs", str(jobs),
            "--sections", ",".join(sections),
        ]
        if trace_dir:
            command += ["--trace-dir", trace_dir]
        if check_reference:
            command.append("--check-reference")
        started = time.perf_counter()
        # Its own process group, so a kill reaches its pool workers too.
        self.proc = subprocess.Popen(
            command, cwd=workdir, env=child_env(), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            start_new_session=True,
        )
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            self.kill()
            raise BenchError(f"sweep process did not start: {line!r}")
        self.setup_s = time.perf_counter() - started

    def run(self, deadline: float,
            reference: Optional[Reference] = None) -> dict:
        """Run the sections and wait for the result.  A process that
        exits non-zero or is still running at ``deadline``
        (``time.monotonic``) yields a result with an ``error`` and no
        sections.

        With ``reference``, every ``PAUSE_EVERY_S`` the process group is
        stopped for one of its passes; the result's ``wall_s`` excludes
        those pauses."""
        began = time.perf_counter()
        pauses = []
        try:
            try:
                self.proc.stdin.write("go\n")
                self.proc.stdin.close()
            except BrokenPipeError:
                pass  # it already exited; its exit code tells how
            while True:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise subprocess.TimeoutExpired(self.proc.args, BUDGET_S)
                try:
                    self.proc.wait(PAUSE_EVERY_S if reference is not None
                                   else left)
                    break
                except subprocess.TimeoutExpired:
                    pass
                if reference is not None:
                    pauses.append(self.pause(reference))
            out = self.proc.stdout.read()
            error = (f"exited {self.proc.returncode}"
                     if self.proc.returncode else None)
        except subprocess.TimeoutExpired:
            error = "ran past the run's deadline"
        finally:
            self.kill()
        if error:
            return {"error": f"sweep process {error}", "sections": {},
                    "wall_s": time.perf_counter() - began, "maxrss_kb": 0}
        result = json.loads(out.strip().splitlines()[-1])
        result["wall_s"] -= paused_within(
            result["started"], result["started"] + result["wall_s"], pauses
        )
        return result

    def pause(self, reference: Reference) -> Tuple[float, float]:
        """Stop the process group, make one reference pass, resume it;
        returns when it was stopped and resumed (``perf_counter``)."""
        stopped = time.perf_counter()
        try:
            os.killpg(self.proc.pid, signal.SIGSTOP)
            try:
                reference.sample()
            finally:
                os.killpg(self.proc.pid, signal.SIGCONT)
        except ProcessLookupError:
            pass  # the group is gone: the process has ended
        return stopped, time.perf_counter()

    def cancel(self) -> None:
        try:
            self.proc.communicate("exit\n", timeout=30)
        finally:
            self.kill()

    def kill(self) -> None:
        """Kill the process group: the process and any pool worker it
        left behind."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()


def paused_within(start: float, end: float,
                  pauses: List[Tuple[float, float]]) -> float:
    """Seconds of the (stopped, resumed) pauses that fall between
    ``start`` and ``end``."""
    return sum(max(0.0, min(end, resumed) - max(start, stopped))
               for stopped, resumed in pauses)


class Checks:
    """Operations attempted and failed, with a line per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def check_sections(checks: Checks, result: dict, sections,
                   golden: Dict[str, str], label: str) -> None:
    for name in sections:
        section = result["sections"].get(name)
        if section is None:
            checks.check(False, f"{label}: section {name} not rendered: "
                                f"{result['error']}")
            continue
        checks.check(
            section["sha256"] == golden[name],
            f"{label}: section {name} digest {section['sha256'][:16]} "
            f"!= golden {golden[name][:16]}",
        )


def check_reference(checks: Checks, answers: dict, golden: dict) -> None:
    for name, expected in golden.items():
        actual = answers.get(name, {})
        checks.check(
            actual.get("dataset") == expected["dataset"]
            and [actual.get("exit_code"), actual.get("output_sha256")]
            == expected["answer"],
            f"reference: {name}/{expected['dataset']} answer differs from "
            f"the reference interpreter's"
            + (f" ({actual['error']})" if "error" in actual else ""),
        )


def run_unit(workdir: str, cache: str, first: Child, checks: Checks,
             golden: dict, label: str, deadline: float,
             trace_dir: str = "") -> dict:
    """Both processes of one unit on ``cache``, the first already
    started; returns the unit's wall time, peak RSS, cache size,
    per-section results, the set-up time of the second process and, for
    an untraced unit, the reference passes made while it ran."""
    unit = {"wall_s": 0.0, "maxrss_kb": 0, "sections": {}, "setup_s": [],
            "reference": None if trace_dir else Reference(machine_pass)}
    child = first
    for index, (part, sections, jobs) in enumerate(PARTS):
        if index:
            child = Child(workdir, cache, jobs, sections, trace_dir=trace_dir)
            unit["setup_s"].append(child.setup_s)
        result = child.run(deadline, unit["reference"])
        unit["wall_s"] += result["wall_s"]
        unit["maxrss_kb"] = max(unit["maxrss_kb"], result["maxrss_kb"])
        unit["sections"].update(result["sections"])
        check_sections(checks, result, sections, golden["sections"],
                       f"{label} {part}")
        if index == 0:
            check_reference(checks, result.get("reference", {}),
                            golden["reference"])
        if "error" in result:
            unit["error"] = result["error"]
            # The rest of the unit counts as not rendered.
            for _, rest, _ in PARTS[index + 1:]:
                check_sections(checks, result, rest, golden["sections"],
                               f"{label} {part}")
            break
    unit["disk_bytes"] = dir_bytes(cache)
    shutil.rmtree(cache, ignore_errors=True)
    return unit


def first_child(workdir: str, cache: str, trace_dir: str = "") -> Child:
    """The first process of a unit, started on the unit's empty cache."""
    _, sections, jobs = PARTS[0]
    return Child(workdir, cache, jobs, sections, trace_dir=trace_dir,
                 check_reference=True)


def run_sweep(workdir: str, seconds: float, trace: bool, seed: int) -> dict:
    deadline = time.monotonic() + BUDGET_S
    golden = load_json("golden.json")
    checks = Checks()

    # -- set-up ----------------------------------------------------------------
    setups = []
    for _ in range(SETUP_REPS):
        cache = fresh_dir(workdir, "cache-")
        child = first_child(workdir, cache)
        setups.append(child.setup_s)
        child.cancel()
        shutil.rmtree(cache, ignore_errors=True)

    # -- measured units --------------------------------------------------------
    # As many whole units as fit in ``seconds`` at the pace so far, and at
    # least one: a unit that ran over would push a traced run, which adds
    # a traced unit, past the run's deadline.
    units = []
    measure_started = time.perf_counter()
    while True:
        cache = fresh_dir(workdir, "cache-")
        child = first_child(workdir, cache)
        setups.append(child.setup_s)
        unit = run_unit(workdir, cache, child, checks, golden,
                        f"unit {len(units) + 1}", deadline)
        setups.extend(unit["setup_s"])
        units.append(unit)
        elapsed = time.perf_counter() - measure_started
        if "error" in unit or elapsed * (len(units) + 1) / len(units) > seconds:
            break

    walls = [unit["wall_s"] for unit in units]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_rel": statistics.median(
            unit["wall_s"] / unit["reference"].mean() for unit in units
        ),
        "peak_rss_mb": max(unit["maxrss_kb"] for unit in units) / 1024.0,
        "disk_mb": statistics.median(
            unit["disk_bytes"] for unit in units
        ) / 1e6,
    }
    outcome = {
        "checks": checks,
        # After the metrics: a unit too short to be paused got its one
        # reference pass from ``Reference.mean``.
        "report": report_lines(units, setups, checks),
        "metrics": metrics,
        "layers": {},
    }
    if trace and "error" not in units[-1]:
        outcome["layers"] = traced_unit(
            workdir, golden, checks, statistics.median(walls), seed, deadline,
        )
    return outcome


def traced_unit(workdir: str, golden: dict, checks: Checks,
                untraced_wall: float, seed: int, deadline: float) -> dict:
    """One more unit with the layer wrappers on; returns its per-layer
    metrics and writes the spans of both processes and their pool workers
    as Chrome trace-event JSON."""
    from repro.opt.pipeline import PASSES

    trace_dir = fresh_dir(workdir, "trace-")
    cache = fresh_dir(workdir, "cache-")
    unit = run_unit(workdir, cache, first_child(workdir, cache, trace_dir),
                    checks, golden, "traced unit", deadline, trace_dir)
    if "error" in unit:
        # Already a failed run; its per-layer metrics read zero.
        return {}
    tracer = Tracer(spill_dir=trace_dir)
    tracer.merge_spills()
    passes = [entry.name for entry in PASSES]
    extra = [f"experiments.{name}" for _, sections, _ in PARTS
             for name in sections]
    extra += [pass_metric(name) for name in passes]
    missing = missing_spans(tracer.calls, "sweep", extra)
    if missing:
        raise BenchError(f"traced sweep run never entered: {', '.join(missing)}")
    os.makedirs(OUT, exist_ok=True)
    write_chrome_trace(
        tracer, os.path.join(OUT, f"trace-sweep-seed{seed}.json"),
        {"parts": {part: list(sections) for part, sections, _ in PARTS}},
    )
    layers = layer_metrics(tracer, passes, JOBS)
    layers["trace.overhead_s"] = unit["wall_s"] - untraced_wall
    return layers


def report_lines(units: List[dict], setups: List[float],
                 checks: Checks) -> List[str]:
    references = [ref for unit in units for ref in unit["reference"].samples]
    lines = [
        "sweep: " + describe("wall_s", [unit["wall_s"] for unit in units]),
        "  " + describe("reference_s", references),
        "  " + describe("setup_s", setups),
    ]
    for name, section in units[-1]["sections"].items():
        lines.append(f"  section {name}: {section['seconds']:.3f} s")
    lines.append(
        f"  error_rate {len(checks.failures) / checks.attempted:.6f} ratio "
        f"({len(checks.failures)} of {checks.attempted} operations failed)"
    )
    return lines
