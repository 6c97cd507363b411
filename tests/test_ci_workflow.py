"""The CI workflow must stay parseable and keep its jobs wired up."""
import os

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = os.path.join(
    os.path.dirname(__file__), "..", ".github", "workflows", "ci.yml"
)


@pytest.fixture(scope="module")
def workflow():
    with open(WORKFLOW) as handle:
        return yaml.safe_load(handle)


def test_workflow_parses_and_triggers(workflow):
    # YAML 1.1 may load a bare `on:` key as the boolean True; accept both.
    triggers = workflow.get("on", workflow.get(True))
    assert "push" in triggers
    assert "pull_request" in triggers


def test_workflow_has_all_jobs(workflow):
    assert {
        "tests", "lint", "benchmark-smoke", "serve-smoke", "examples"
    } <= set(workflow["jobs"])


def test_test_matrix_covers_supported_pythons(workflow):
    matrix = workflow["jobs"]["tests"]["strategy"]["matrix"]["python-version"]
    assert {"3.9", "3.11", "3.13"} <= {str(version) for version in matrix}


def _run_lines(job):
    return [step.get("run", "") for step in job["steps"]]


def test_jobs_run_the_advertised_commands(workflow):
    jobs = workflow["jobs"]
    assert any("pytest -x -q" in line for line in _run_lines(jobs["tests"]))
    assert any("ruff check" in line for line in _run_lines(jobs["lint"]))
    assert any(
        "mypy --strict" in line for line in _run_lines(jobs["lint"])
    ), "the lint job must type-check the IR and analysis layers"
    assert any(
        "pytest benchmarks" in line
        for line in _run_lines(jobs["benchmark-smoke"])
    )
    assert any(
        "benchmarks/bench_vm.py" in line
        for line in _run_lines(jobs["benchmark-smoke"])
    ), "the smoke job must enforce the VM fast-engine speedup floor"
    serve_lines = _run_lines(jobs["serve-smoke"])
    assert any(
        "repro-serve serve" in line for line in serve_lines
    ), "the serve-smoke job must start a live aggregation server"
    assert any(
        "upload-sweep" in line and "predict" in line for line in serve_lines
    ), "the serve-smoke job must round-trip upload-sweep and predict"
    assert any(
        "--verify-offline" in line for line in serve_lines
    ), "served predictions must be checked byte-for-byte against offline"
    assert any(
        "--db state/" in line
        and line.count("start_server\n") == 2
        and "--verify-offline" in line
        and "repro-mf report --db state/profiles.json" in line
        for line in serve_lines
    ), "the serve-smoke job must verify predictions after a restart from --db"
    assert any(
        "benchmarks/bench_serve.py" in line for line in serve_lines
    ), "the serve-smoke job must enforce the upload throughput floor"
    assert any("examples/*.py" in line for line in _run_lines(jobs["examples"]))
    assert any(
        "repro-mf lint" in line for line in _run_lines(jobs["examples"])
    ), "the examples job must IR-lint the bundled programs"
    assert any(
        "export --no-cache --out" in line
        and "export --no-cache --jobs 2" in line
        and line.count("sha256sum -c tests/golden/export.sha256") == 2
        for line in _run_lines(jobs["examples"])
    ), "the examples job must check serial and pooled export bytes against "
    "the golden hash"


def test_setup_python_uses_pip_caching(workflow):
    for name, job in workflow["jobs"].items():
        setup_steps = [
            step for step in job["steps"]
            if "setup-python" in str(step.get("uses", ""))
        ]
        assert setup_steps, f"job {name} never sets up python"
        for step in setup_steps:
            assert step["with"].get("cache") == "pip", name
