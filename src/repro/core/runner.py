"""The workload runner: compile once, run per dataset, cache everything."""
from __future__ import annotations

import dataclasses
import os
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.compiler import CompiledProgram, CompileOptions, compile_source
from repro.core.cache import DiskCache, run_digest
from repro.profiling.branch_profile import BranchProfile
from repro.vm.counters import RunResult
from repro.vm.machine import Machine
from repro.vm.monitors import BranchMonitor
from repro.workloads.base import Workload
from repro.workloads.registry import get_workload

#: Default on-disk cache location (override with the REPRO_CACHE_DIR
#: environment variable; set it to empty to disable).
DEFAULT_CACHE_DIR = ".repro-cache"


def _default_cache_dir() -> Optional[str]:
    value = os.environ.get("REPRO_CACHE_DIR")
    if value is None:
        return DEFAULT_CACHE_DIR
    return value or None


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Which compiler configuration a run uses.

    The default is the paper's measurement configuration; ``dce`` is the
    Table 1 variant; ``inline`` and ``if_conversion`` drive the ablation
    experiments for the switches the paper's compiler had but kept off.
    """

    dce: bool = False
    inline: bool = False
    if_conversion: bool = False

    def tag(self) -> str:
        return (
            f"dce={self.dce}|inline={self.inline}|ifconv={self.if_conversion}"
        )

    def compile_options(self) -> CompileOptions:
        return CompileOptions.from_switches(
            self.dce, self.inline, self.if_conversion
        )


class WorkloadRunner:
    """Compiles and executes workloads, memoizing runs in memory and on disk.

    ``jobs`` sets the fan-out of the batched ``run_many`` path
    (``None`` consults the ``REPRO_JOBS`` environment variable, ``0``
    means all cores); single ``run`` calls are always in-process.

    ``publish`` is an optional profile-publish hook,
    ``callable(result, dataset_name)``, invoked exactly once per
    (workload, dataset, config) triple when its result is first
    memoized — whether it came from a fresh execution, the disk cache,
    or a parallel worker.  The profile-feedback service's upload path
    (``ProfileClient.publisher()``) plugs in here.  Monitored runs are
    never memoized and therefore never published.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = "auto",
        jobs: Optional[int] = None,
        publish: Optional[Callable[[RunResult, str], None]] = None,
    ):
        from repro.core.parallel import resolve_jobs

        if cache_dir == "auto":
            cache_dir = _default_cache_dir()
        self._disk = DiskCache(cache_dir)
        self._programs: Dict[Tuple[str, RunConfig], CompiledProgram] = {}
        self._runs: Dict[Tuple[str, str, RunConfig], RunResult] = {}
        self._machine = Machine()
        self.jobs = resolve_jobs(jobs)
        self.publish = publish

    def _memoize(
        self, key: Tuple[str, str, RunConfig], result: RunResult
    ) -> None:
        """Record a result in the in-memory memo, publishing it on first
        sight.  Every path that materializes a result — serial run, disk
        hit, parallel collection — funnels through here, so the publish
        hook fires exactly once per triple per runner."""
        fresh = key not in self._runs
        self._runs[key] = result
        if fresh and self.publish is not None:
            self.publish(result, key[1])

    # -- compilation ----------------------------------------------------------

    def compiled(
        self, workload_name: str, config: RunConfig = RunConfig()
    ) -> CompiledProgram:
        """The compiled program for a workload (cached per configuration)."""
        key = (workload_name, config)
        if key not in self._programs:
            workload = get_workload(workload_name)
            self._programs[key] = compile_source(
                workload.source,
                name=workload.name,
                options=config.compile_options(),
            )
        return self._programs[key]

    # -- execution ----------------------------------------------------------------

    def run(
        self,
        workload_name: str,
        dataset_name: str,
        config: RunConfig = RunConfig(),
        monitors: Sequence[BranchMonitor] = (),
    ) -> RunResult:
        """Run one (workload, dataset, configuration); results are cached
        unless monitors are attached (monitors observe the live stream)."""
        key = (workload_name, dataset_name, config)
        if monitors:
            return self._execute(key, monitors)
        if key not in self._runs:
            workload = get_workload(workload_name)
            dataset = workload.dataset(dataset_name)
            digest = run_digest(workload.source, dataset.data, config.tag())
            cached = self._disk.load(digest, workload_name)
            if cached is None:
                cached = self._execute(key, ())
                self._disk.store(digest, cached)
            self._memoize(key, cached)
        return self._runs[key]

    def _execute(
        self,
        key: Tuple[str, str, RunConfig],
        monitors: Sequence[BranchMonitor],
    ) -> RunResult:
        # Compiled programs are memoized per (workload, config), and the
        # fast engine caches its predecoded form on the LoweredProgram
        # itself — so a sweep over many datasets of one workload pays
        # compile + predecode exactly once per process.
        workload_name, dataset_name, run_config = key
        workload = get_workload(workload_name)
        dataset = workload.dataset(dataset_name)
        compiled = self.compiled(workload_name, config=run_config)
        return self._machine.run(
            compiled.lowered, input_data=dataset.data, monitors=monitors
        )

    def run_many(self, requests):
        """Run a batch of ``RunRequest`` triples, fanning cache misses
        across ``self.jobs`` worker processes when it exceeds 1.

        Results come back in request order and are memoized exactly as
        if each triple had gone through ``run`` — serial and parallel
        execution are byte-identical.  See ``repro.core.parallel``.
        """
        from repro.core.parallel import ParallelRunner

        return ParallelRunner(self).run_many(requests)

    def run_all(
        self, workload_name: str, config: RunConfig = RunConfig()
    ) -> Dict[str, RunResult]:
        """Run a workload on every dataset; dataset name -> result."""
        workload = get_workload(workload_name)
        names = workload.dataset_names()
        if self.jobs > 1:
            from repro.core.parallel import RunRequest

            self.run_many(
                [RunRequest(workload_name, name, config) for name in names]
            )
        return {
            name: self.run(workload_name, name, config=config)
            for name in names
        }

    # -- profiles -----------------------------------------------------------------

    def profile(
        self,
        workload_name: str,
        dataset_name: str,
        config: RunConfig = RunConfig(),
    ) -> BranchProfile:
        """The branch profile of one (workload, dataset) run."""
        return BranchProfile.from_run(
            self.run(workload_name, dataset_name, config=config)
        )

    def profiles(self, workload_name: str) -> Dict[str, BranchProfile]:
        """Branch profiles for every dataset of a workload."""
        return {
            name: BranchProfile.from_run(result)
            for name, result in self.run_all(workload_name).items()
        }

    def workload(self, workload_name: str) -> Workload:
        """Convenience pass-through to the registry."""
        return get_workload(workload_name)
