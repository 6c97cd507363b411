"""Core runner and cross-dataset experiment machinery tests."""
import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.core.cache import (
    DiskCache,
    run_digest,
    run_result_from_dict,
    run_result_to_dict,
)
from repro.core.experiment import CrossDatasetExperiment
from repro.core.runner import WorkloadRunner


def test_run_results_are_memoized_in_process(runner):
    first = runner.run("lfk", "default")
    second = runner.run("lfk", "default")
    assert first is second


def test_disk_cache_round_trip(tmp_path, runner):
    result = runner.run("lfk", "default")
    cache = DiskCache(str(tmp_path))
    cache.store("abc", result)
    loaded = cache.load("abc", "lfk")
    assert loaded is not None
    assert loaded.instructions == result.instructions
    assert loaded.branch_exec == result.branch_exec
    assert loaded.branch_table == result.branch_table
    assert loaded.output == result.output


def test_disk_cache_miss_and_corrupt_entry(tmp_path):
    cache = DiskCache(str(tmp_path))
    assert cache.load("missing", "lfk") is None
    (tmp_path / "bad.json").write_text("{not json")
    assert cache.load("bad", "lfk") is None


def test_disk_cache_disabled():
    cache = DiskCache(None)
    assert cache.load("x", "lfk") is None
    cache.store("x", None)  # no-op, must not raise


def test_run_result_serialization_is_lossless(runner):
    result = runner.run("doduc", "tiny")
    restored = run_result_from_dict(run_result_to_dict(result))
    assert restored.program == result.program
    assert restored.instructions == result.instructions
    assert restored.branch_taken == result.branch_taken
    assert restored.events == result.events
    assert restored.exit_code == result.exit_code


def _taken_exceeds_executed(data):
    index = next(i for i, hits in enumerate(data["branch_taken"]) if hits)
    data["branch_taken"][index] = data["branch_exec"][index] + 1


#: Edits that turn a genuine cache entry into one no run can produce.
MALFORMED_ENTRY_EDITS = {
    "short-branch-exec": lambda data: data["branch_exec"].pop(),
    "negative-instructions": lambda data: data.update(instructions=-1),
    "taken-exceeds-executed": _taken_exceeds_executed,
    "float-count": lambda data: data["branch_exec"].__setitem__(0, 1.5),
    "bool-count": lambda data: data.update(instructions=True),
    "missing-event": lambda data: data["events"].pop("jumps"),
    "unknown-key": lambda data: data.update(extra=0),
}


@pytest.fixture(scope="module")
def fresh_doduc_tiny():
    return WorkloadRunner(cache_dir=None).run("doduc", "tiny")


@pytest.mark.parametrize("edit", sorted(MALFORMED_ENTRY_EDITS))
def test_malformed_cache_entry_is_rejected_and_recomputed(
    tmp_path, fresh_doduc_tiny, edit
):
    """A cache entry no run can produce is a miss: decoding raises
    ValueError, and the runner recomputes the true result."""
    WorkloadRunner(cache_dir=str(tmp_path)).run("doduc", "tiny")
    (path,) = tmp_path.glob("*.json")
    data = json.loads(path.read_text())
    MALFORMED_ENTRY_EDITS[edit](data)
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="malformed run entry"):
        run_result_from_dict(data)
    rerun = WorkloadRunner(cache_dir=str(tmp_path)).run("doduc", "tiny")
    assert run_result_to_dict(rerun) == run_result_to_dict(fresh_doduc_tiny)


def test_run_config_tag_is_injective_over_flags():
    # run_digest keys on tag() while in-memory memoization keys on the
    # dataclass itself; injectivity keeps the two keyspaces aligned.
    import itertools

    from repro.core.runner import RunConfig

    configs = [
        RunConfig(dce=dce, inline=inline, if_conversion=ifconv)
        for dce, inline, ifconv in itertools.product((False, True), repeat=3)
    ]
    assert len({config.tag() for config in configs}) == len(configs)
    assert len(set(configs)) == len(configs)


def test_disk_cache_hit_equals_fresh_execution(tmp_path):
    first = WorkloadRunner(cache_dir=str(tmp_path)).run("doduc", "tiny")
    fresh = WorkloadRunner(cache_dir=None).run("doduc", "tiny")
    cached = WorkloadRunner(cache_dir=str(tmp_path)).run("doduc", "tiny")
    assert run_result_to_dict(cached) == run_result_to_dict(first)
    assert run_result_to_dict(cached) == run_result_to_dict(fresh)


def test_run_digest_sensitivity():
    base = run_digest("src", b"input", "dce=False")
    assert run_digest("src2", b"input", "dce=False") != base
    assert run_digest("src", b"input2", "dce=False") != base
    assert run_digest("src", b"input", "dce=True") != base
    assert run_digest("src", b"input", "dce=False") == base


def test_run_digest_is_injective_across_field_boundaries():
    # Mirrors the RunConfig.tag() injectivity test: without length
    # prefixes, content containing the old '|' separator could shift
    # across field boundaries and serve the wrong cached run.
    assert run_digest("x|y", b"z", "cfg") != run_digest("x", b"y|z", "cfg")
    assert run_digest("s", b"in", "c|") != run_digest("|s", b"in", "c")
    assert run_digest("c|", b"", "") != run_digest("c", b"", "|")
    assert run_digest("", b"a", "b") != run_digest("b", b"a", "")
    # Digits migrating between a field and its length prefix must differ.
    assert run_digest("1", b"", "") != run_digest("", b"1", "")


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def _digest_in(src):
    """``run_digest`` of fixed fields, computed by a fresh interpreter
    importing ``repro`` from ``src`` (the fingerprint is per process)."""
    done = subprocess.run(
        [sys.executable, "-c",
         "from repro.core.cache import run_digest; "
         "print(run_digest('src', b'input', 'cfg'))"],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src),
             "PYTHONDONTWRITEBYTECODE": "1"},
    )
    return done.stdout.strip()


def test_run_digest_keys_on_toolchain_code(tmp_path):
    # A changed compiler pass must miss the cache; a changed experiment
    # (which only reads run results) must not.
    src = tmp_path / "src"
    shutil.copytree(
        SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info")
    )
    base = _digest_in(src)
    with open(src / "repro" / "experiments" / "table1.py", "a") as handle:
        handle.write("# an edit outside the toolchain\n")
    assert _digest_in(src) == base
    with open(src / "repro" / "opt" / "cse.py", "a") as handle:
        handle.write("# an edit to a compiler pass\n")
    assert _digest_in(src) != base


def test_cache_entry_of_another_program_is_recomputed(tmp_path):
    fresh = WorkloadRunner(cache_dir=str(tmp_path)).run("doduc", "tiny")
    [entry] = tmp_path.glob("*.json")
    data = json.loads(entry.read_text())
    data["program"] = "li"
    entry.write_text(json.dumps(data))
    served = WorkloadRunner(cache_dir=str(tmp_path)).run("doduc", "tiny")
    assert run_result_to_dict(served) == run_result_to_dict(fresh)
    assert json.loads(entry.read_text())["program"] == "doduc"


def test_disk_cache_store_is_safe_under_concurrent_writers(tmp_path, runner):
    # Two parallel workers storing the same digest used to share one
    # "<digest>.json.tmp" path, interleaving writes and racing the final
    # rename; per-writer temp files make every store atomic.
    import json
    import threading

    result = runner.run("lfk", "default")
    cache = DiskCache(str(tmp_path))
    errors = []

    def hammer():
        try:
            for _ in range(50):
                cache.store("shared", result)
        except Exception as exc:  # pragma: no cover - the regression
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    loaded = cache.load("shared", "lfk")
    assert loaded is not None
    assert run_result_to_dict(loaded) == run_result_to_dict(result)
    # The entry parses as clean JSON (no interleaved writes) and no
    # orphaned temp files survive.
    with open(tmp_path / "shared.json") as handle:
        json.load(handle)
    assert [p.name for p in tmp_path.glob("*.tmp")] == []


def test_disk_cache_used_across_runner_instances(tmp_path):
    first = WorkloadRunner(cache_dir=str(tmp_path))
    result = first.run("lfk", "default")
    # A fresh runner with the same cache dir must load, not re-simulate.
    second = WorkloadRunner(cache_dir=str(tmp_path))
    from repro.core.runner import RunConfig

    digest = run_digest(
        second.workload("lfk").source,
        second.workload("lfk").dataset("default").data,
        RunConfig().tag(),
    )
    assert second._disk.load(digest, "lfk") is not None
    reloaded = second.run("lfk", "default")
    assert reloaded.instructions == result.instructions


def test_runner_profile_matches_run(runner):
    result = runner.run("doduc", "tiny")
    profile = runner.profile("doduc", "tiny")
    assert profile.total_executed == float(result.total_branch_execs)
    assert profile.total_taken == float(result.total_branch_taken)


def test_monitored_runs_bypass_cache(runner):
    from repro.dynamic import BimodalPredictor, DynamicScoreMonitor

    monitor = DynamicScoreMonitor(
        [BimodalPredictor(table_size=None, num_bits=2)],
        runner.compiled("lfk").lowered.branch_table,
    )
    result = runner.run("lfk", "default", monitors=[monitor])
    assert monitor.hits[0] + monitor.mispredicts[0] == result.total_branch_execs


class TestCrossDatasetExperiment:
    @pytest.fixture(scope="class")
    def doduc(self, runner):
        return CrossDatasetExperiment(runner, "doduc")

    def test_dataset_names(self, doduc):
        assert doduc.dataset_names() == ["tiny", "small", "ref"]

    def test_self_prediction_is_upper_bound(self, doduc):
        for target in doduc.dataset_names():
            self_ipb = doduc.ipb(target, doduc.self_predictor(target))
            for other in doduc.dataset_names():
                if other == target:
                    continue
                cross = doduc.ipb(target, doduc.single_predictor(other))
                assert cross <= self_ipb + 1e-9

    def test_combined_predictor_excludes_target(self, doduc):
        predictor = doduc.combined_predictor("tiny")
        # Its profile totals must equal the sum of the scaled others: each
        # dataset contributes weight 1 after scaling.
        assert predictor.profile.total_executed == pytest.approx(2.0)

    def test_dataset_prediction_fields(self, doduc):
        prediction = doduc.dataset_prediction("ref")
        assert prediction.workload == "doduc"
        assert prediction.ipb_self >= prediction.ipb_combined > 0
        assert 0 < prediction.combined_fraction_of_self <= 1.0
        assert prediction.ipb_unpredicted < prediction.ipb_combined

    def test_best_worst_bounds(self, doduc):
        for target in doduc.dataset_names():
            best_worst = doduc.best_worst(target)
            assert best_worst.worst_percent <= best_worst.best_percent
            assert best_worst.best_percent <= 100.0 + 1e-9
            assert best_worst.best_other != target
            assert best_worst.worst_other != target

    def test_pairwise_matrix_diagonal_is_self(self, doduc):
        matrix = doduc.pairwise_matrix()
        for target in doduc.dataset_names():
            self_ipb = doduc.ipb(target, doduc.self_predictor(target))
            assert matrix[(target, target)] == pytest.approx(self_ipb)

    def test_best_worst_requires_multiple_datasets(self, runner):
        experiment = CrossDatasetExperiment(runner, "lfk")
        with pytest.raises(ValueError, match="2\\+ datasets"):
            experiment.best_worst("default")
