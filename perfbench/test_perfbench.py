"""The benchmark's own tests.

Run from the repository root (they take a few minutes, mostly the
sweeps)::

    python3 -m pytest perfbench -q

They are outside the repository's ``tests/`` tree on purpose: the tier-1
suite does not pay for them.
"""
from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def bench(workload, seconds=1, trace=0, env=None, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
        env=env,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def checkout(path, with_program=True):
    """A copy of the benchmark (and the program) under ``path``, free to
    corrupt."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, path / "perfbench", ignore=ignore)
    if with_program:
        shutil.copytree(os.path.join(ROOT, "src"), path / "src", ignore=ignore)
    return path


def bench_in_process(capsys, workload):
    """``run.py`` in this process, so a test can patch the benchmark's
    client side; returns the exit code and the result line."""
    import run

    code = run.main(["--workload", workload, "--seed", "7",
                     "--seconds", "1", "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


@pytest.fixture
def serve_mix(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import serve_mix

    return serve_mix


def assert_metrics(result: dict, key: str) -> None:
    declared = {metric["name"]: metric["unit"] for metric in spec()[key]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert NAME.match(name), name
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))


def test_benchmark_json_follows_the_contract():
    data = spec()
    assert set(data) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert data["paths"] == ["perfbench"]
    assert 1 <= data["run_seconds"] <= 60
    assert 2 <= len(data["workloads"]) <= 8
    names = [w["name"] for w in data["workloads"]]
    names += [m["name"] for m in data["end_to_end"] + data["per_layer"]]
    assert len(names) == len(set(names))
    for workload in data["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in data["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in data["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in data["end_to_end"] + data["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in data["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in data["end_to_end"])


def test_only_pauses_inside_a_unit_come_off_its_time():
    from sweeps import paused_within

    pauses = [(0.0, 1.0), (2.0, 2.5), (9.5, 11.0), (12.0, 13.0)]
    assert paused_within(0.5, 10.0, pauses) == 0.5 + 0.5 + 0.5
    assert paused_within(3.0, 9.0, pauses) == 0.0


def test_reference_passes_take_time_and_leave_the_cpu_set_alone():
    from common import Reference, dict_pass, machine_pass

    before = os.sched_getaffinity(0)
    for kind in (machine_pass, dict_pass):
        reference = Reference(kind)
        reference.sample()
        reference.sample()
        assert len(reference.samples) == 2 and reference.mean() > 0
    assert os.sched_getaffinity(0) == before


def test_reference_answers_are_the_interpreters():
    """golden.json's answers are what the AST interpreter computes today,
    and the pipeline agrees with it."""
    proc = subprocess.run(
        [sys.executable, "perfbench/refcheck.py"], cwd=ROOT,
        capture_output=True, text=True, timeout=600,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT])),
    )
    assert proc.returncode == 0, proc.stderr
    live = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "golden.json")) as handle:
        golden = json.load(handle)["reference"]
    assert set(live) == set(golden)
    for name, entry in live.items():
        assert entry["ok"], name
        assert entry["dataset"] == golden[name]["dataset"]
        assert entry["reference"] == golden[name]["answer"], name


@pytest.mark.parametrize("workload", ["sweep", "serve-mix"])
def test_smoke(workload, tmp_path):
    """Each workload at minimal length, with hostile ambient settings that
    the benchmark must not pick up."""
    env = dict(os.environ, REPRO_JOBS="not-a-number",
               REPRO_CACHE_DIR=str(tmp_path / "ambient-cache"))
    proc, result = bench(workload, env=env)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert_metrics(result, "end_to_end")
    for metric in result["metrics"].values():
        assert metric["value"] > 0
    assert "error_rate 0.000000" in proc.stdout
    assert not (tmp_path / "ambient-cache").exists()


def test_traced_serve_mix_reports_every_layer_metric():
    proc, result = bench("serve-mix", trace=1)
    assert proc.returncode == 0, proc.stderr
    assert_metrics(result, "per_layer")
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    for name in ("serve.client.upload_p50_ms", "serve.client.predict_p99_ms",
                 "serve.client.encode_s", "serve.client.decode_s",
                 "serve.server.upload_p50_ms", "serve.server.inflight_peak"):
        assert values[name] > 0, name
    assert values["vm.fast_s"] == 0 and values["lang.compiles"] == 0


def test_corrupted_golden_digest_fails_the_run(tmp_path):
    root = checkout(tmp_path)
    golden_path = root / "perfbench" / "golden.json"
    golden = json.loads(golden_path.read_text())
    golden["sections"]["table1"] = "0" * 64
    golden_path.write_text(json.dumps(golden))
    proc, result = bench("sweep", cwd=str(root))
    assert proc.returncode == 1, proc.stderr
    assert not result["correct"] and result["failed"] == 1
    assert "FAILED unit 1 tables: section table1 digest" in proc.stdout


def test_crashing_sweep_process_fails_the_run(tmp_path):
    """A sweep process that dies after ``go`` is the program's failure:
    exit 1 with a result, not a benchmark that could not start."""
    root = checkout(tmp_path)
    with open(root / "src" / "repro" / "experiments" / "table1.py", "a") as f:
        f.write("\n\ndef run(runner):\n    import os\n    os._exit(3)\n")
    proc, result = bench("sweep", cwd=str(root))
    assert proc.returncode == 1, proc.stderr
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert "not rendered: sweep process exited 3" in proc.stdout


def test_refused_request_fails_the_run(monkeypatch, capsys, serve_mix):
    plan = serve_mix.Mix.plan
    refused = []

    def plan_with_a_bad_predict(self, count):
        ops = plan(self, count)
        if not refused:
            refused.append(ops[0])
            ops[0] = ("predict", "no-such-program", "scaled", None)
        return ops

    monkeypatch.setattr(serve_mix.Mix, "plan", plan_with_a_bad_predict)
    code, result, lines = bench_in_process(capsys, "serve-mix")
    assert code == 1
    assert not result["correct"] and result["failed"] == 1
    assert not any("error_rate 0.000000" in line for line in lines)


def test_server_killed_mid_run_fails_the_run(monkeypatch, capsys, serve_mix):
    servers = []
    init, plan = serve_mix.Server.__init__, serve_mix.Mix.plan

    def record(self, workdir):
        init(self, workdir)
        servers.append(self)

    def plan_then_kill(self, count):
        os.kill(servers[-1].proc.pid, signal.SIGKILL)
        return plan(self, count)

    monkeypatch.setattr(serve_mix.Server, "__init__", record)
    monkeypatch.setattr(serve_mix.Mix, "plan", plan_then_kill)
    code, result, lines = bench_in_process(capsys, "serve-mix")
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert any("server unreachable" in line for line in lines)
    assert all(server.proc.returncode is not None for server in servers)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    root = checkout(tmp_path, with_program=False)
    proc, result = bench("serve-mix", cwd=str(root))
    assert proc.returncode != 0
    assert result is None
