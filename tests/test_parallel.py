"""Parallel runner tests: equivalence, error isolation, jobs resolution."""
import os

import pytest

from repro.core import parallel
from repro.core.cache import run_result_to_dict
from repro.core.parallel import (
    ParallelExecutionError,
    ParallelRunner,
    RunRequest,
    dataset_requests,
    resolve_jobs,
)
from repro.core.runner import RunConfig, WorkloadRunner

#: A small sweep spanning three workloads (fast to simulate cold).
SWEEP = [
    RunRequest("doduc", "tiny"),
    RunRequest("doduc", "small"),
    RunRequest("lfk", "default"),
    RunRequest("spice2g6", "circuit2"),
]


def _dicts(results):
    return [run_result_to_dict(result) for result in results]


def test_serial_and_parallel_results_identical(tmp_path):
    serial = WorkloadRunner(cache_dir=str(tmp_path / "serial"))
    fanout = WorkloadRunner(cache_dir=str(tmp_path / "fanout"), jobs=2)
    assert _dicts(serial.run_many(SWEEP)) == _dicts(fanout.run_many(SWEEP))


def test_run_many_memoizes_like_run(tmp_path):
    runner = WorkloadRunner(cache_dir=str(tmp_path), jobs=2)
    results = runner.run_many(SWEEP)
    # Later single runs are served from the same memo objects.
    assert runner.run("doduc", "tiny") is results[0]
    assert runner.run("lfk", "default") is results[2]


def test_run_many_preserves_request_order_and_duplicates(tmp_path):
    runner = WorkloadRunner(cache_dir=str(tmp_path), jobs=2)
    doubled = SWEEP + [SWEEP[0]]
    results = runner.run_many(doubled)
    assert len(results) == len(doubled)
    assert results[-1] is results[0]


def test_error_isolation_bad_triple_does_not_poison_batch(tmp_path):
    runner = WorkloadRunner(cache_dir=str(tmp_path), jobs=2)
    requests = SWEEP + [
        RunRequest("doduc", "nope"), RunRequest("no-such-workload", "x")
    ]
    with pytest.raises(ParallelExecutionError) as info:
        runner.run_many(requests)
    assert "doduc/nope" in str(info.value)
    assert "no-such-workload/x" in str(info.value)
    assert len(info.value.failures) == 2
    # The good triples completed and were memoized despite the failure.
    for request in SWEEP:
        assert request.key() in runner._runs


def test_fans_out_without_a_disk_cache(monkeypatch):
    fanouts = []
    run_pool = ParallelRunner._run_pool

    def spy(self, misses, *args):
        fanouts.append(len(misses))
        return run_pool(self, misses, *args)

    monkeypatch.setattr(ParallelRunner, "_run_pool", spy)
    published = {"serial": [], "fanout": []}

    def publishing_runner(name, jobs):
        return WorkloadRunner(
            cache_dir=None, jobs=jobs,
            publish=lambda run, dataset: published[name].append(
                (run.program, dataset)
            ),
        )

    fanout = publishing_runner("fanout", 2).run_many(SWEEP)
    assert fanouts == [len(SWEEP)]
    serial = publishing_runner("serial", 1).run_many(SWEEP)
    assert _dicts(fanout) == _dicts(serial)
    # Results are memoized in request order, as a serial run publishes.
    assert published["fanout"] == published["serial"]


def _exit_worker(*args):
    os._exit(1)


def test_broken_pool_retries_in_process(monkeypatch):
    monkeypatch.setattr(parallel, "_worker_execute", _exit_worker)
    retried = WorkloadRunner(cache_dir=None, jobs=2).run_many(SWEEP[:2])
    serial = WorkloadRunner(cache_dir=None).run_many(SWEEP[:2])
    assert _dicts(retried) == _dicts(serial)


def test_run_all_routes_through_batch_when_parallel(tmp_path):
    serial = WorkloadRunner(cache_dir=str(tmp_path / "serial"))
    fanout = WorkloadRunner(cache_dir=str(tmp_path / "fanout"), jobs=2)
    serial_runs = serial.run_all("doduc")
    fanout_runs = fanout.run_all("doduc")
    assert list(serial_runs) == list(fanout_runs)
    assert _dicts(serial_runs.values()) == _dicts(fanout_runs.values())


def test_dataset_requests_expands_configs(runner):
    workload = runner.workload("doduc")
    configs = (RunConfig(), RunConfig(dce=True))
    requests = dataset_requests([workload], configs=configs)
    assert len(requests) == 2 * len(workload.dataset_names())
    assert {request.config for request in requests} == set(configs)


class TestResolveJobs:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_var_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs(None) == 4
        assert WorkloadRunner(cache_dir=None).jobs == 4

    def test_blank_env_var_means_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "  ")
        assert resolve_jobs(None) == 1

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_invalid_values_raise(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "two")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs(None)
        with pytest.raises(ValueError, match=">= 0"):
            resolve_jobs(-1)


def test_cli_jobs_output_matches_serial(tmp_path, capsys, monkeypatch):
    from repro.experiments.cli import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
    assert main(["table3", "--jobs", "2"]) == 0
    parallel_out = capsys.readouterr().out
    assert main(["table3"]) == 0
    serial_out = capsys.readouterr().out
    assert parallel_out == serial_out
    assert "Table 3" in parallel_out
