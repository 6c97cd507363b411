"""Profile-feedback service tests: protocol, aggregator, metrics, server
round trips, fault injection, client resilience, runner integration, CLI.
"""
import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.ir.instructions import BranchId
from repro.prediction.combine import combine_profiles
from repro.profiling.branch_profile import BranchProfile
from repro.profiling.database import ProfileDatabase
from repro.serve import protocol
from repro.serve.aggregator import Aggregator, database_predict
from repro.serve.client import (
    ProfileClient,
    RetryPolicy,
    ServiceError,
    ServiceUnavailable,
)
from repro.serve.metrics import LatencyHistogram, ServiceMetrics
from repro.serve.server import ServerThread

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def make_profile(program, counts, runs=1):
    profile = BranchProfile(program=program, runs=runs)
    for (func, index), (executed, taken) in counts.items():
        profile.counts[BranchId(func, index)] = (float(executed), float(taken))
    return profile


PROFILES = {
    "d1": {("f", 0): (10, 3), ("f", 1): (7, 7)},
    "d2": {("f", 0): (100, 90)},
    "d3": {("f", 1): (5, 1), ("g", 0): (3, 2)},
}


def upload_demo(client, program="demo"):
    for dataset, counts in PROFILES.items():
        client.upload_profile(program, dataset, make_profile(program, counts))


def demo_profiles(program="demo"):
    return [make_profile(program, PROFILES[name]) for name in sorted(PROFILES)]


@pytest.fixture()
def server():
    with ServerThread() as thread:
        yield thread


@pytest.fixture()
def client(server):
    with ProfileClient(
        server.host, server.port, retry=RetryPolicy(attempts=2, backoff=0.01)
    ) as instance:
        yield instance


# -- protocol ------------------------------------------------------------------


def test_frame_round_trip():
    payload = protocol.request("health")
    frame = protocol.encode_frame(payload)
    length = struct.unpack(">I", frame[:4])[0]
    assert length == len(frame) - 4
    assert protocol.decode_body(frame[4:]) == payload


def test_canonical_json_is_sorted_and_compact():
    assert protocol.canonical_json({"b": 1, "a": [1.5]}) == b'{"a":[1.5],"b":1}'


def test_oversized_frame_rejected_without_allocation():
    header = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
    with pytest.raises(protocol.ProtocolError, match="cap"):
        protocol._claimed_length(header)


def test_version_check_and_unknown_op():
    with pytest.raises(protocol.ProtocolError, match="version"):
        protocol.check_version({"v": 999, "op": "health"})
    with pytest.raises(protocol.ProtocolError, match="unknown operation"):
        protocol.request("bogus")


def test_decode_body_rejects_non_objects():
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_body(b"[1,2]")
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_body(b"\xff\xfe")


def test_profile_wire_round_trip():
    profile = make_profile("demo", PROFILES["d1"])
    restored = protocol.profile_from_wire(protocol.profile_to_wire(profile))
    assert restored.counts == profile.counts
    assert protocol.canonical_profile_bytes(
        restored
    ) == protocol.canonical_profile_bytes(profile)
    with pytest.raises(protocol.ProtocolError):
        protocol.profile_from_wire({"program": "x"})


# -- metrics -------------------------------------------------------------------


def test_latency_histogram_percentiles():
    histogram = LatencyHistogram()
    assert histogram.percentile(0.99) is None
    for _ in range(99):
        histogram.observe(0.0005)
    histogram.observe(2.0)
    assert histogram.percentile(0.50) == pytest.approx(0.001)
    assert histogram.percentile(0.99) == pytest.approx(0.001)
    assert histogram.total == 100
    assert histogram.as_dict()["max_s"] == pytest.approx(2.0)


def test_metrics_snapshot_shape():
    metrics = ServiceMetrics(ops=["upload"])
    metrics.start_request()
    metrics.record_request("upload", 0.001, error=False)
    metrics.finish_request()
    metrics.record_request("upload", 0.002, error=True)
    snapshot = metrics.snapshot()
    assert snapshot["requests"]["upload"] == 2
    assert snapshot["errors"]["upload"] == 1
    assert snapshot["queue"] == {"inflight": 0, "inflight_peak": 1}
    assert snapshot["latency"]["upload"]["count"] == 2


# -- aggregator ----------------------------------------------------------------


def test_aggregator_record_predict_and_epoch():
    aggregator = Aggregator()
    assert aggregator.epoch == 0
    for dataset, counts in PROFILES.items():
        aggregator.record_profile("demo", dataset, make_profile("demo", counts))
    assert aggregator.epoch == 3
    profile, datasets, epoch = aggregator.predict("demo", mode="scaled")
    assert datasets == ["d1", "d2", "d3"]
    assert epoch == 3
    offline = combine_profiles(demo_profiles(), mode="scaled")
    assert protocol.canonical_profile_bytes(
        profile
    ) == protocol.canonical_profile_bytes(offline)


def test_aggregator_predict_errors():
    aggregator = Aggregator()
    with pytest.raises(KeyError):
        aggregator.predict("missing")
    aggregator.record_profile("demo", "d1", make_profile("demo", PROFILES["d1"]))
    with pytest.raises(KeyError):
        aggregator.predict("demo", exclude="nope")
    with pytest.raises(ValueError):
        aggregator.predict("demo", exclude="d1")
    with pytest.raises(ValueError):
        aggregator.predict("demo", mode="bogus")


def test_aggregator_persistence_round_trip(tmp_path):
    persist = str(tmp_path / "agg")
    aggregator = Aggregator(persist_dir=persist)
    assert not aggregator.dirty
    for dataset, counts in PROFILES.items():
        aggregator.record_profile("demo", dataset, make_profile("demo", counts))
    aggregator.record_profile("other", "d", make_profile("other", PROFILES["d2"]))
    assert aggregator.dirty
    assert aggregator.flush() is True
    assert not aggregator.dirty
    assert aggregator.flush() is False  # write-behind: a clean database is skipped

    reloaded = Aggregator(persist_dir=persist)
    assert reloaded.programs() == ["demo", "other"]
    original = aggregator.predict("demo", mode="unscaled")[0]
    recovered = reloaded.predict("demo", mode="unscaled")[0]
    assert protocol.canonical_profile_bytes(
        recovered
    ) == protocol.canonical_profile_bytes(original)

    # The persisted file is the format repro-mf --db reads.
    database = ProfileDatabase.load(str(tmp_path / "agg" / "profiles.json"))
    assert database.programs() == ["demo", "other"]
    assert protocol.canonical_profile_bytes(
        database_predict(database, "demo", mode="unscaled")[0]
    ) == protocol.canonical_profile_bytes(original)


def test_old_shard_layout_refuses_to_start(tmp_path):
    # Starting empty on a directory of the old sharded layout would serve
    # silently wrong predictions.
    persist = tmp_path / "old"
    persist.mkdir()
    (persist / "shard-00.json").write_text('{"entries": []}')
    with pytest.raises(ValueError, match="shard-00.json"):
        Aggregator(persist_dir=str(persist))
    done = subprocess.run(
        [sys.executable, "-m", "repro.serve.cli", "serve",
         "--port", "0", "--db", str(persist)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == 2
    assert "shard-00.json" in done.stderr


def test_aggregator_stats_contents():
    aggregator = Aggregator()
    aggregator.record_profile("demo", "d1", make_profile("demo", PROFILES["d1"]))
    stats = aggregator.stats()
    assert stats["epoch"] == 1
    entry = stats["programs"]["demo"]["datasets"]["d1"]
    assert entry["runs"] == 1
    assert entry["branch_sites"] == 2
    assert entry["total_executed"] == 17.0


# -- server round trips --------------------------------------------------------


def test_server_upload_predict_round_trip(client):
    upload_demo(client)
    for mode in ("scaled", "unscaled", "polling"):
        prediction = client.predict("demo", mode=mode)
        offline = combine_profiles(demo_profiles(), mode=mode)
        assert protocol.canonical_profile_bytes(
            prediction.profile
        ) == protocol.canonical_profile_bytes(offline), mode
        assert prediction.datasets == ["d1", "d2", "d3"]
        assert not prediction.degraded
    health = client.health()
    assert health["status"] == "ok"
    assert health["epoch"] == 3


def test_server_stats_reports_uploads_and_metrics(client):
    upload_demo(client)
    response = client.stats()
    assert response["stats"]["programs"]["demo"]["datasets"]["d2"]["runs"] == 1
    assert response["metrics"]["requests"]["upload"] == 3
    assert response["metrics"]["errors"]["upload"] == 0


def test_server_error_responses_do_not_mutate_state(client):
    upload_demo(client)
    epoch_before = client.health()["epoch"]
    # Unknown program, unknown mode, malformed profile: all answered, none
    # recorded, connection stays usable.
    with pytest.raises(ServiceError, match="no profiles"):
        client.predict("missing")
    with pytest.raises(ServiceError, match="unknown combine mode"):
        client.predict("demo", mode="bogus")
    with pytest.raises(ServiceError, match="malformed profile"):
        client.request(
            protocol.request(
                "upload", program="demo", dataset="dx", profile={"nope": 1}
            )
        )
    with pytest.raises(ServiceError, match="unknown operation"):
        client.request({"v": protocol.PROTOCOL_VERSION, "op": "explode"})
    with pytest.raises(ServiceError, match="version"):
        client.request({"v": 999, "op": "health"})
    assert client.health()["epoch"] == epoch_before
    metrics = client.stats()["metrics"]
    assert metrics["errors"]["predict"] == 2
    assert metrics["errors"]["invalid"] == 1


@pytest.mark.parametrize(
    "counts",
    [(-1.0, 0.0), (4.0, -1.0), (3.0, 5.0), (float("nan"), 0.0),
     (float("inf"), 1.0)],
    ids=["negative-executed", "negative-taken", "taken-over-executed",
         "nan", "inf"],
)
def test_server_rejects_invalid_profile_counts(client, counts):
    # Before validation, one such upload was summed into the database and
    # poisoned every later prediction for the program.
    upload_demo(client)
    before = client.stats()["stats"]
    predicted = client.predict("demo", mode="unscaled").profile
    wire = protocol.profile_to_wire(make_profile("demo", PROFILES["d1"]))
    wire["counts"]["f#0"] = list(counts)
    with pytest.raises(ServiceError, match="0 <= taken <= executed"):
        client.request(
            protocol.request("upload", program="demo", dataset="d1", profile=wire)
        )
    after = client.stats()["stats"]
    assert after == before  # same epoch, same per-dataset counts
    assert protocol.canonical_profile_bytes(
        client.predict("demo", mode="unscaled").profile
    ) == protocol.canonical_profile_bytes(predicted)
    assert client.health()["status"] == "ok"


# -- fault injection -----------------------------------------------------------


def _raw_connect(server):
    return socket.create_connection((server.host, server.port), timeout=5.0)


def test_dropped_connection_mid_header(server, client):
    upload_demo(client)
    before = client.stats()["stats"]
    raw = _raw_connect(server)
    raw.sendall(b"\x00\x00")  # 2 of 4 header bytes
    raw.close()
    time.sleep(0.05)
    assert client.stats()["stats"] == before  # state untouched, server alive


def test_dropped_connection_mid_frame(server, client):
    upload_demo(client)
    before = client.stats()["stats"]
    raw = _raw_connect(server)
    raw.sendall(struct.pack(">I", 4096) + b'{"v":1,')  # claim 4096, send 7
    raw.close()
    time.sleep(0.05)
    assert client.stats()["stats"] == before
    assert client.health()["status"] == "ok"


def test_garbage_and_oversized_frames_cost_only_the_connection(server, client):
    upload_demo(client)
    before = client.stats()["stats"]
    garbage = _raw_connect(server)
    garbage.sendall(struct.pack(">I", 9) + b"not json!")
    assert garbage.recv(1) == b""  # server closes the poisoned connection
    garbage.close()
    oversized = _raw_connect(server)
    oversized.sendall(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1))
    assert oversized.recv(1) == b""
    oversized.close()
    assert client.stats()["stats"] == before
    assert client.stats()["metrics"]["protocol_errors"] >= 2


def test_slow_client_does_not_block_fast_clients(server, client):
    frame = protocol.encode_frame(
        protocol.request(
            "upload",
            program="slow",
            dataset="d",
            profile=protocol.profile_to_wire(make_profile("slow", PROFILES["d1"])),
        )
    )
    slow_response = {}

    def dribble():
        raw = _raw_connect(server)
        for index in range(0, len(frame), 16):
            raw.sendall(frame[index:index + 16])
            time.sleep(0.005)
        slow_response["payload"] = protocol.read_frame_sync(raw)
        raw.close()

    thread = threading.Thread(target=dribble)
    thread.start()
    # The fast client is served while the slow upload dribbles in.
    for _ in range(20):
        assert client.health()["status"] == "ok"
    thread.join(timeout=10.0)
    assert slow_response["payload"]["ok"] is True
    profile, _, _ = server.server.aggregator.predict("slow", mode="unscaled")
    assert profile.counts[BranchId("f", 0)] == (10.0, 3.0)


def test_concurrent_clients_are_served_one_request_at_a_time():
    with ServerThread() as server:
        clients = [
            ProfileClient(server.host, server.port) for _ in range(4)
        ]
        errors = []

        def spam(instance):
            try:
                for _ in range(25):
                    instance.health()
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=spam, args=(instance,))
            for instance in clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        snapshot = server.server.metrics.snapshot()
        assert snapshot["requests"]["health"] == 100
        assert snapshot["queue"]["inflight_peak"] == 1
        for instance in clients:
            instance.close()


def test_client_retries_with_exponential_backoff():
    delays = []
    client = ProfileClient(
        "127.0.0.1", 9,  # discard port: nothing listens
        retry=RetryPolicy(attempts=4, backoff=0.05),
        sleep=delays.append,
    )
    with pytest.raises(ServiceUnavailable, match="after 4 attempts"):
        client.health()
    assert delays == [0.05, 0.1, 0.2]
    assert client.transport_failures == 4


def test_retry_policy_caps_backoff():
    policy = RetryPolicy(attempts=6, backoff=0.1, max_backoff=0.3)
    assert list(policy.delays()) == [0.1, 0.2, 0.3, 0.3, 0.3]
    with pytest.raises(ValueError):
        RetryPolicy(attempts=0)


def test_client_reconnects_after_server_restart():
    first = ServerThread().start()
    host, port = first.host, first.port
    client = ProfileClient(
        host, port, retry=RetryPolicy(attempts=8, backoff=0.05)
    )
    upload_demo(client)
    reference = protocol.canonical_profile_bytes(
        client.predict("demo").profile
    )
    first.stop()
    second = ServerThread(port=port).start()
    try:
        upload_demo(client)  # reconnects transparently on the same client
        served = protocol.canonical_profile_bytes(client.predict("demo").profile)
        assert served == reference
        assert client.transport_failures >= 1
    finally:
        client.close()
        second.stop()


def test_graceful_drain_flushes_persistence(tmp_path):
    persist = str(tmp_path / "drain")
    aggregator = Aggregator(persist_dir=persist)
    # Long flush interval: only the drain path can have written the data.
    with ServerThread(aggregator, flush_interval=3600.0) as server:
        with ProfileClient(server.host, server.port) as client:
            upload_demo(client)
    reloaded = Aggregator(persist_dir=persist)
    assert reloaded.programs() == ["demo"]
    assert reloaded.datasets("demo") == ["d1", "d2", "d3"]


def test_degraded_client_serves_offline_bytes():
    database = ProfileDatabase()
    client = ProfileClient(
        "127.0.0.1", 9,
        retry=RetryPolicy(attempts=2, backoff=0.01),
        fallback=database,
        sleep=lambda _: None,
    )
    upload_demo(client)  # absorbed by the fallback mirror
    prediction = client.predict("demo", mode="scaled")
    assert prediction.degraded and client.degraded
    offline = combine_profiles(demo_profiles(), mode="scaled")
    assert protocol.canonical_profile_bytes(
        prediction.profile
    ) == protocol.canonical_profile_bytes(offline)
    # health/stats have no offline analog and must still raise.
    with pytest.raises(ServiceUnavailable):
        client.health()


def test_fallback_mirror_does_not_alias_uploaded_profiles():
    database = ProfileDatabase()
    client = ProfileClient(
        "127.0.0.1", 9, retry=RetryPolicy(attempts=1),
        fallback=database, sleep=lambda _: None,
    )
    mine = make_profile("demo", PROFILES["d1"])
    client.upload_profile("demo", "d1", mine)
    mirrored = database.dataset_profile("demo", "d1")
    assert mirrored.counts == mine.counts
    assert mirrored is not mine
    mirrored.counts[BranchId("f", 0)] = (0.0, 0.0)
    assert mine.counts[BranchId("f", 0)] == (10.0, 3.0)


# -- runner integration --------------------------------------------------------


def test_runner_publish_hook_fires_once_per_triple(runner):
    published = []
    from repro.core.runner import WorkloadRunner

    publishing = WorkloadRunner(
        publish=lambda run, dataset: published.append((run.program, dataset))
    )
    publishing.run("doduc", "tiny")
    publishing.run("doduc", "tiny")  # memoized: no second publish
    publishing.run("doduc", "small")
    assert published == [("doduc", "tiny"), ("doduc", "small")]


def test_runner_publish_hook_covers_run_many(runner):
    from repro.core.parallel import RunRequest
    from repro.core.runner import WorkloadRunner

    published = []
    publishing = WorkloadRunner(
        publish=lambda run, dataset: published.append((run.program, dataset))
    )
    requests = [
        RunRequest("doduc", name) for name in ("tiny", "small", "ref")
    ]
    publishing.run_many(requests)
    publishing.run_many(requests)  # second sweep is fully memoized
    publishing.run("doduc", "ref")
    assert sorted(published) == [
        ("doduc", "ref"), ("doduc", "small"), ("doduc", "tiny"),
    ]


def test_runner_monitored_runs_are_not_published(runner):
    from repro.core.runner import WorkloadRunner
    from repro.vm.monitors import OutcomeRecorder

    published = []
    publishing = WorkloadRunner(
        publish=lambda run, dataset: published.append(dataset)
    )
    publishing.run("doduc", "tiny", monitors=(OutcomeRecorder(),))
    assert published == []


def test_server_aggregation_matches_offline_database(runner):
    """Publishing runs through the hook accumulates exactly what an
    offline ProfileDatabase would."""
    offline = ProfileDatabase()
    with ServerThread() as server:
        with ProfileClient(server.host, server.port) as client:
            from repro.core.runner import WorkloadRunner

            publishing = WorkloadRunner(publish=client.publisher())
            for dataset, result in publishing.run_all("doduc").items():
                offline.record(result, dataset)
            for mode in ("scaled", "unscaled", "polling"):
                served = client.predict("doduc", mode=mode).profile
                local, _ = database_predict(offline, "doduc", mode=mode)
                assert protocol.canonical_profile_bytes(
                    served
                ) == protocol.canonical_profile_bytes(local), mode


# -- CLI -----------------------------------------------------------------------


def test_cli_parse_server_validation():
    from repro.serve.cli import _parse_server

    assert _parse_server("127.0.0.1:7381") == ("127.0.0.1", 7381)
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        _parse_server("no-port")
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_server(":123")


def test_cli_round_trip_against_live_server(runner, capsys):
    from repro.serve.cli import main

    with ServerThread() as server:
        address = f"{server.host}:{server.port}"
        assert main([
            "upload-sweep", "--server", address, "--workloads", "doduc",
        ]) == 0
        out = capsys.readouterr().out
        assert "uploaded doduc/tiny" in out
        assert "3 uploads" in out
        assert main([
            "predict", "--server", address, "--program", "doduc",
            "--exclude", "ref", "--verify-offline",
        ]) == 0
        captured = capsys.readouterr()
        assert "served bytes == offline bytes" in captured.err
        served = json.loads(captured.out)
        assert served["program"] == "doduc"
        assert main(["stats", "--server", address, "--metrics"]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["requests"]["upload"] == 3
        assert main(["health", "--server", address]) == 0
        health = json.loads(capsys.readouterr().out)
        assert health["status"] == "ok"


def test_cli_upload_sweep_rejects_empty_workloads(capsys):
    from repro.serve.cli import main

    assert main(["upload-sweep", "--workloads", ",", "--server", "x:1"]) == 2
