"""Paths, child-process environment, statistics and the reference passes
shared by the workloads."""
from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import tempfile
import time
from typing import Callable, Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: Environment variables the program reads for defaults; the benchmark
#: passes every such setting explicitly and removes them from its
#: children, so the caller's environment cannot change a run.
AMBIENT = ("REPRO_CACHE_DIR", "REPRO_JOBS")


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


def child_env() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key not in AMBIENT}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT, HERE]
    )
    return env


def load_json(name: str) -> dict:
    with open(os.path.join(HERE, name)) as handle:
        return json.load(handle)


def fresh_dir(parent: str, prefix: str) -> str:
    return tempfile.mkdtemp(prefix=prefix, dir=parent)


def make_workdir() -> str:
    """A private working directory for one run, inside the checkout."""
    os.makedirs(OUT, exist_ok=True)
    return fresh_dir(OUT, "run-")


def remove_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def dir_bytes(path: str) -> int:
    total = 0
    for directory, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


def describe(name: str, values: Sequence[float]) -> str:
    """Median, quartiles and sample count of one run's samples, in s."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return (f"{name} median {statistics.median(values):.4f} q1 {q1:.4f} "
            f"q3 {q3:.4f} s over {len(values)} sample(s)")


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a sample; 0 for an empty one (a run
    whose server died before it answered)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(round(fraction * len(ordered), 9))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


# -- reference passes -----------------------------------------------------------
#
# A reference pass is fixed interpreter work owned by the benchmark.  The
# workloads interleave passes with their own work, so the passes see the
# same host as the work around them, and report a unit's time divided by
# the mean pass time (``wall_rel``).  That cancels most of the host's
# speed, which on a shared machine drifts by half or more over minutes:
# the ratio changes when the program does, much less when the neighbours
# do.  Each workload uses the kind of pass that was measured to track it
# (see perfbench/README.md), through a ``Reference``.

#: The register machine's program: (op, target, source).
MACHINE_CODE = [(i % 4, (i * 7) % 8, (i * 3) % 8) for i in range(64)]
#: Times a machine pass runs it (about 15 ms on the baseline machine).
MACHINE_ROUNDS = 2_500
#: Entries a dict pass builds (about 20 ms on the baseline machine).
DICT_SIZE = 60_000


def machine_pass() -> float:
    """Seconds of one pass of a small register machine stepping through
    its program: the kind of work the VM does.  The ``sweep`` reference."""
    started = time.perf_counter()
    regs = [1] * 8
    for _ in range(MACHINE_ROUNDS):
        for op, target, source in MACHINE_CODE:
            if op == 0:
                regs[target] = (regs[target] + regs[source]) & 0xFFFF
            elif op == 1:
                regs[target] = (regs[target] * 3 + regs[source]) & 0xFFFF
            elif op == 2:
                regs[target] = regs[source] ^ regs[target]
            else:
                regs[target] = (regs[source] - regs[target]) & 0xFFFF
    return time.perf_counter() - started


def dict_pass() -> float:
    """Seconds of one pass building and walking a dict of small lists:
    the allocation-heavy work of decoding and aggregating profiles.  The
    ``serve-mix`` reference."""
    started = time.perf_counter()
    table = {}
    for key in range(DICT_SIZE):
        table[key] = [key, str(key)]
    total = 0
    for value in table.values():
        total += len(value[1])
    return time.perf_counter() - started



class Reference:
    """The passes of one kind made during a run, each pinned to the next
    of this process's CPUs in turn (the workloads run on all of them, and
    a shared host can slow one more than another); the process's CPU set
    is restored after each pass."""

    def __init__(self, kind: Callable[[], float]) -> None:
        self.kind = kind
        self.samples: List[float] = []
        self._turn = 0

    def sample(self) -> None:
        cpus = os.sched_getaffinity(0)
        ordered = sorted(cpus)
        self._turn = (self._turn + 1) % len(ordered)
        os.sched_setaffinity(0, {ordered[self._turn]})
        try:
            self.samples.append(self.kind())
        finally:
            os.sched_setaffinity(0, cpus)

    def mean(self) -> float:
        """Mean seconds of a pass; makes one if none was made yet."""
        if not self.samples:
            self.sample()
        return statistics.mean(self.samples)
