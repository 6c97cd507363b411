"""Process-pool fan-out for independent workload runs.

Every experiment sweep is arithmetic over many independent
(workload, dataset, RunConfig) triples, and simulating a triple takes
seconds while aggregating it takes microseconds.  ``ParallelRunner``
fans the *cache misses* of such a sweep across a
``concurrent.futures.ProcessPoolExecutor``.

Design points (see docs/PARALLEL.md for the long form):

* **Results over the pipe; one cache writer.**  A worker executes a miss
  on a runner with no cache and returns the ``RunResult`` in the run
  cache's dict form.  The parent decodes it exactly as it decodes a cache
  hit, stores it as it arrives, and is the only process that writes the
  cache — so serial and parallel execution return byte-identical
  results, with or without a disk cache.
* **Serial publish order.**  Results are memoized in request order once
  the batch is done, so the runner's publish hook fires in the same
  order as a serial run.
* **Deterministic seeding.**  Each worker seeds the global ``random``
  module from the run's digest before executing, so any stochastic code
  path is reproducible regardless of which worker picks up which run.
* **Graceful fallback.**  ``jobs <= 1`` or a single miss runs in-process
  through the exact serial path.  A broken pool (a worker killed by the
  OS, a platform that cannot start workers) retries the runs it did not
  return serially rather than failing.
* **Per-run error capture.**  A failing triple is reported as a
  ``RunFailure`` naming the triple; it never poisons the rest of the
  batch, which completes and is cached normally.
"""
from __future__ import annotations

import dataclasses
import os
import random
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.cache import run_digest, run_result_from_dict, run_result_to_dict
from repro.core.runner import RunConfig, WorkloadRunner
from repro.vm.counters import RunResult
from repro.workloads.base import Workload
from repro.workloads.registry import get_workload

#: Environment variable consulted when no explicit job count is given.
ENV_JOBS = "REPRO_JOBS"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: explicit value, else ``REPRO_JOBS``, else 1.

    ``0`` means "all cores" (``os.cpu_count()``); negative values and
    non-integer environment values raise ``ValueError``.
    """
    if jobs is None:
        raw = os.environ.get(ENV_JOBS)
        if raw is None or not raw.strip():
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"{ENV_JOBS} must be an integer, got {raw!r}"
            ) from None
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


@dataclasses.dataclass(frozen=True)
class RunRequest:
    """One (workload, dataset, configuration) triple of a sweep."""

    workload: str
    dataset: str
    config: RunConfig = RunConfig()

    def key(self) -> Tuple[str, str, RunConfig]:
        """The WorkloadRunner memoization key for this request."""
        return (self.workload, self.dataset, self.config)

    def describe(self) -> str:
        return f"{self.workload}/{self.dataset} [{self.config.tag()}]"


@dataclasses.dataclass
class RunFailure:
    """A captured per-run error: which triple failed, and why."""

    request: RunRequest
    error: str

    def summary(self) -> str:
        last_line = self.error.strip().splitlines()[-1] if self.error else ""
        return f"{self.request.describe()}: {last_line}"


class ParallelExecutionError(RuntimeError):
    """One or more runs of a batch failed; the rest completed normally."""

    def __init__(self, failures: Sequence[RunFailure]):
        self.failures = list(failures)
        lines = "\n".join(f"  - {failure.summary()}" for failure in self.failures)
        super().__init__(
            f"{len(self.failures)} of the batched runs failed:\n{lines}"
        )


def dataset_requests(
    workloads: Iterable[Workload],
    configs: Sequence[RunConfig] = (RunConfig(),),
) -> List[RunRequest]:
    """Expand workloads into one request per (dataset, config) pair."""
    return [
        RunRequest(workload.name, dataset, config)
        for workload in workloads
        for config in configs
        for dataset in workload.dataset_names()
    ]


# -- worker side ---------------------------------------------------------------

_WORKER_RUNNER: Optional[WorkloadRunner] = None


def _worker_init() -> None:
    """Build one runner per worker process so compiled programs — and the
    fast engine's predecoded form cached on them — are reused across the
    runs a worker executes."""
    global _WORKER_RUNNER
    _WORKER_RUNNER = WorkloadRunner(cache_dir=None)


def _worker_execute(
    workload: str, dataset: str, config: RunConfig, seed: int
) -> Tuple[Optional[dict], Optional[str]]:
    """Execute one cache miss.

    Returns ``(run_result_to_dict(result), None)`` on success or
    ``(None, traceback)`` on failure — never raises, so one bad triple
    cannot poison the pool.  ``_execute`` rather than ``run``: the worker
    has no cache to consult or fill.
    """
    random.seed(seed)
    try:
        result = _WORKER_RUNNER._execute((workload, dataset, config), ())
    except Exception:
        return None, traceback.format_exc()
    return run_result_to_dict(result), None


def _digest_seed(digest: str) -> int:
    """Deterministic per-run worker seed derived from the cache digest."""
    return int(digest[:16], 16)


# -- parent side ---------------------------------------------------------------


class ParallelRunner:
    """Batched execution of independent runs over a WorkloadRunner.

    The parent runner's in-memory memo and disk cache are consulted
    first; only genuine misses are executed, in a process pool when
    ``jobs > 1``, in-process otherwise.
    """

    def __init__(self, runner: WorkloadRunner):
        self.runner = runner
        self.jobs = runner.jobs

    # -- public API ------------------------------------------------------------

    def run_many(self, requests: Sequence[RunRequest]) -> List[RunResult]:
        """Run a batch of triples; results come back in request order.

        A failed triple raises ParallelExecutionError after the whole
        batch has been attempted, so the successful runs are already
        cached.
        """
        unique: Dict[Tuple[str, str, RunConfig], RunRequest] = {}
        for request in requests:
            unique.setdefault(request.key(), request)

        failures: Dict[Tuple[str, str, RunConfig], RunFailure] = {}
        digests = self._prepare(unique, failures)
        misses = self._serve_disk_hits(digests)
        if misses:
            if self.jobs > 1 and len(misses) > 1:
                self._run_pool(misses, unique, digests, failures)
            else:
                self._run_serial(misses, unique, failures)

        if failures:
            raise ParallelExecutionError(list(failures.values()))
        return [self.runner._runs[request.key()] for request in requests]

    # -- batch preparation ----------------------------------------------------

    def _prepare(self, unique, failures) -> Dict[tuple, str]:
        """Digest every request not already memoized; capture failures
        from unknown workloads/datasets without touching the rest."""
        digests: Dict[tuple, str] = {}
        for key, request in unique.items():
            if key in self.runner._runs:
                continue
            try:
                workload = get_workload(request.workload)
                dataset = workload.dataset(request.dataset)
            except Exception:
                failures[key] = RunFailure(request, traceback.format_exc())
                continue
            digests[key] = run_digest(
                workload.source, dataset.data, request.config.tag()
            )
        return digests

    def _serve_disk_hits(self, digests: Dict[tuple, str]) -> List[tuple]:
        """Memoize disk-cached results; return the keys still missing."""
        misses = []
        for key, digest in digests.items():
            cached = self.runner._disk.load(digest, key[0])
            if cached is not None:
                self.runner._memoize(key, cached)
            else:
                misses.append(key)
        return misses

    # -- execution -------------------------------------------------------------

    def _run_serial(self, misses, unique, failures) -> None:
        """The in-process fallback: the exact serial path, with the same
        per-run error capture the pool provides."""
        for key in misses:
            request = unique[key]
            try:
                self.runner.run(
                    request.workload, request.dataset, config=request.config
                )
            except Exception:
                failures[key] = RunFailure(request, traceback.format_exc())

    def _run_pool(self, misses, unique, digests, failures) -> None:
        results: Dict[tuple, RunResult] = {}
        try:
            with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(misses)),
                initializer=_worker_init,
            ) as pool:
                futures = {
                    pool.submit(
                        _worker_execute,
                        unique[key].workload,
                        unique[key].dataset,
                        unique[key].config,
                        _digest_seed(digests[key]),
                    ): key
                    for key in misses
                }
                for future in as_completed(futures):
                    key = futures[future]
                    data, error = future.result()
                    if error is not None:
                        failures[key] = RunFailure(unique[key], error)
                        continue
                    results[key] = run_result_from_dict(data)
                    self.runner._disk.store(digests[key], results[key])
        except Exception:
            # A broken pool (worker killed, spawn failure) is not a result
            # error: the runs it did not return are retried in-process.
            pass
        for key in misses:
            if key in results:
                self.runner._memoize(key, results[key])
            elif key not in failures:
                self._run_serial([key], unique, failures)
