"""The ``serve-mix`` workload: a closed loop of uploads and predicts.

A ``repro-serve serve`` subprocess runs with persistence on and a private
``--db``.  This process is the only client, over one connection: it sends
a request, waits for the reply, then sends the next.  Requests are a
seeded 50/50 mix:

* ``upload`` carries one of the 51 real per-(workload, dataset) branch
  profiles in ``profiles.json``, its counts multiplied by a factor drawn
  from the seed for that profile;
* ``predict`` names one of the 15 programs and a combine mode, and leaves
  one dataset out (``exclude``) half the time on programs with two or
  more datasets (the server refuses it on the others, by design).

Set-up starts the server and uploads every profile once, so every
predict has data.  A measured unit is a batch of ``BATCH`` requests,
and a reference pass (``common.dict_pass``) follows each batch:
``wall_rel`` is the mean batch time over the mean pass time.
After the run, every (program, mode, exclude) prediction the server
serves must be byte-identical to ``database_predict`` over a local
``ProfileDatabase`` fed the same upload sequence.

A refused request is a failed operation.  So is a request the server
cannot answer at all (it died or hung, and the client's retries ran
out); after that the loop sends nothing more, and each prediction left
to verify counts as failed too.
"""
from __future__ import annotations

import os
import random
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import (
    BenchError,
    child_env,
    describe,
    dir_bytes,
    fresh_dir,
    load_json,
    percentile,
    Reference,
    dict_pass,
)
from layers import Tracer, install, layer_metrics, missing_spans
from repro.prediction.combine import COMBINE_MODES
from repro.profiling.branch_profile import BranchProfile
from repro.profiling.database import ProfileDatabase
from repro.serve import protocol
from repro.serve.aggregator import database_predict
from repro.serve.client import ProfileClient, ServiceError, ServiceUnavailable

BATCH = 200
SETUP_REPS = 3
START_TIMEOUT = 30.0
STOP_TIMEOUT = 30.0


class Server:
    """A ``repro-serve serve`` subprocess on a free loopback port."""

    def __init__(self, workdir: str) -> None:
        self.db = fresh_dir(workdir, "db-")
        ready = os.path.join(self.db + ".ready")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.cli", "serve",
             "--host", "127.0.0.1", "--port", "0",
             "--db", self.db, "--ready-file", ready],
            cwd=workdir, env=child_env(), stdout=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            if os.path.exists(ready):
                with open(ready) as handle:
                    address = handle.read()
                if address.endswith("\n"):
                    break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError("repro-serve did not start")
            time.sleep(0.005)
        host, _, port = address.strip().rpartition(":")
        self.host, self.port = host, int(port)

    def stop(self) -> float:
        """Drain and stop the server; returns its peak RSS in MB.

        Signals go by pid, not through ``Popen``, which would reap a
        server that already died and lose its resource usage."""
        if self.proc.returncode is not None:
            return 0.0
        os.kill(self.proc.pid, signal.SIGTERM)
        deadline = time.monotonic() + STOP_TIMEOUT
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                return usage.ru_maxrss / 1024.0
            if time.monotonic() > deadline:
                os.kill(self.proc.pid, signal.SIGKILL)
            time.sleep(0.01)


class Mix:
    """The seeded request stream and the record of what was uploaded."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        entries = load_json("profiles.json")["profiles"]
        self.uploads: List[Tuple[str, str, BranchProfile]] = []
        for entry in entries:
            factor = self.rng.randint(1, 16)
            data = entry["profile"]
            data = dict(data, counts={
                key: [executed * factor, taken * factor]
                for key, (executed, taken) in data["counts"].items()
            })
            self.uploads.append(
                (entry["program"], entry["dataset"], BranchProfile.from_dict(data))
            )
        self.datasets: Dict[str, List[str]] = {}
        for program, dataset, _ in self.uploads:
            self.datasets.setdefault(program, []).append(dataset)
        self.programs = sorted(self.datasets)
        self.sent: List[int] = []

    def plan(self, count: int) -> List[tuple]:
        """The next ``count`` requests: ("upload", index) or
        ("predict", program, mode, exclude)."""
        ops = []
        for _ in range(count):
            if self.rng.random() < 0.5:
                ops.append(("upload", self.rng.randrange(len(self.uploads))))
                continue
            program = self.rng.choice(self.programs)
            mode = self.rng.choice(COMBINE_MODES)
            datasets = self.datasets[program]
            exclude = None
            if len(datasets) >= 2 and self.rng.random() < 0.5:
                exclude = self.rng.choice(datasets)
            ops.append(("predict", program, mode, exclude))
        return ops

    def local_database(self) -> ProfileDatabase:
        database = ProfileDatabase()
        for index in self.sent:
            program, dataset, profile = self.uploads[index]
            database.record_profile(program, dataset, profile)
        return database


class Loop:
    """One client connection and the latencies it saw."""

    def __init__(self, server: Server, mix: Mix) -> None:
        self.client = ProfileClient(server.host, server.port, timeout=10.0)
        self.mix = mix
        self.latency: Dict[str, List[float]] = {"upload": [], "predict": []}
        self.attempted = 0
        self.failures: List[str] = []
        #: Set once the server could not be reached: nothing more is sent.
        self.lost = ""

    def send(self, op: tuple) -> None:
        self.attempted += 1
        try:
            if op[0] == "upload":
                program, dataset, profile = self.mix.uploads[op[1]]
                self.mix.sent.append(op[1])
                self.client.upload_profile(program, dataset, profile)
            else:
                self.client.predict(op[1], mode=op[2], exclude=op[3])
        except ServiceError as exc:
            self.failures.append(f"{op}: {exc}")
        except ServiceUnavailable as exc:
            self.lost = f"server unreachable: {exc}"
            self.failures.append(f"{op}: {self.lost}")

    def batch(self, ops: List[tuple]) -> float:
        started = time.perf_counter()
        for op in ops:
            if self.lost:
                break
            sent = time.perf_counter()
            self.send(op)
            self.latency[op[0]].append(time.perf_counter() - sent)
        return time.perf_counter() - started

    def verify(self) -> None:
        """Every served prediction against the offline computation."""
        local = self.mix.local_database()
        for program in self.mix.programs:
            datasets = self.mix.datasets[program]
            excludes = [None] + (sorted(datasets) if len(datasets) >= 2 else [])
            for mode in COMBINE_MODES:
                for exclude in excludes:
                    self.attempted += 1
                    if self.lost:
                        self.failures.append(f"verify {program}: {self.lost}")
                        continue
                    expected, names = database_predict(
                        local, program, mode=mode, exclude=exclude
                    )
                    try:
                        served = self.client.predict(
                            program, mode=mode, exclude=exclude
                        )
                    except ServiceError as exc:
                        self.failures.append(f"verify {program}: {exc}")
                        continue
                    except ServiceUnavailable as exc:
                        self.lost = f"server unreachable: {exc}"
                        self.failures.append(f"verify {program}: {self.lost}")
                        continue
                    if (protocol.canonical_profile_bytes(served.profile)
                            != protocol.canonical_profile_bytes(expected)
                            or served.datasets != names):
                        self.failures.append(
                            f"verify {program} mode={mode} exclude={exclude}: "
                            "served bytes differ from database_predict"
                        )


def start(workdir: str, mix: Mix) -> Tuple[Server, Loop]:
    """Set-up: a server, a connection, and one upload of every profile."""
    server = Server(workdir)
    try:
        loop = Loop(server, mix)
        for index in range(len(mix.uploads)):
            if loop.lost:
                break
            loop.send(("upload", index))
    except BaseException:
        server.stop()
        raise
    return server, loop


def measure(loop: Loop, mix: Mix, seconds: float,
            reference: Optional[Reference] = None) -> List[float]:
    """Batch times for ``seconds``; with ``reference``, one of its passes
    after each batch."""
    walls = []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        walls.append(loop.batch(mix.plan(BATCH)))
        if reference is not None:
            reference.sample()
        if loop.lost:
            break
    return walls


def run_serve_mix(workdir: str, seconds: float, trace: bool, seed: int) -> dict:
    mix = Mix(seed)
    setups = []
    server = loop = None
    try:
        for _ in range(SETUP_REPS):
            if server is not None:
                loop.client.close()
                server.stop()
                mix.sent.clear()
            began = time.perf_counter()
            server, loop = start(workdir, mix)
            setups.append(time.perf_counter() - began)
            if loop.lost:
                break
        reference = Reference(dict_pass)
        walls = measure(loop, mix, seconds / 2 if trace else seconds,
                        reference)
        layers = None
        if trace and not loop.lost:
            tracer = Tracer()
            install(tracer)
            marks = {op: len(lat) for op, lat in loop.latency.items()}
            transport = loop.client.transport_failures
            traced = measure(loop, mix, seconds / 2)
            layers = client_layers(loop, marks, traced, transport)
            layers.update(layer_metrics(tracer, [], 1))
            missing = missing_spans(tracer.calls, "serve-mix", [])
            if missing:
                raise BenchError(f"traced serve-mix never entered: {missing}")
            layers["trace.overhead_s"] = (
                statistics.median(traced) - statistics.median(walls)
            )
        loop.verify()
        if layers is not None and not loop.lost:
            layers.update(server_layers(loop.client.stats()["metrics"]))
    finally:
        if loop is not None:
            loop.client.close()
        peak_rss_mb = server.stop() if server is not None else 0.0

    requests = BATCH * len(walls)
    rps = requests / sum(walls) if sum(walls) else 0.0
    upload = loop.latency["upload"]
    predict = loop.latency["predict"]
    report = [
        f"serve-mix: batches of {BATCH}: " + describe("wall_s", walls),
        "  " + describe("reference_s", reference.samples),
        "  " + describe("setup_s", setups),
        f"  serve_rps {rps:.1f} 1/s",
        f"  upload_p50_ms {percentile(upload, 0.5) * 1e3:.4f} ms, "
        f"p99 {percentile(upload, 0.99) * 1e3:.4f} ms ({len(upload)} samples)",
        f"  predict_p50_ms {percentile(predict, 0.5) * 1e3:.4f} ms, "
        f"p99 {percentile(predict, 0.99) * 1e3:.4f} ms ({len(predict)} samples)",
        f"  error_rate {len(loop.failures) / loop.attempted:.6f} ratio "
        f"({len(loop.failures)} of {loop.attempted} requests failed)",
    ]
    return {
        "attempted": loop.attempted,
        "failures": loop.failures,
        "report": report,
        "metrics": {
            "setup_s": statistics.median(setups),
            "wall_rel": statistics.mean(walls) / reference.mean(),
            "peak_rss_mb": peak_rss_mb,
            "disk_mb": dir_bytes(server.db) / 1e6,
        },
        "layers": layers,
    }


def client_layers(loop: Loop, marks: Dict[str, int], walls: List[float],
                  transport_before: int) -> Dict[str, float]:
    upload = loop.latency["upload"][marks["upload"]:]
    predict = loop.latency["predict"][marks["predict"]:]
    return {
        "serve.client.upload_p50_ms": percentile(upload, 0.5) * 1e3,
        "serve.client.upload_p99_ms": percentile(upload, 0.99) * 1e3,
        "serve.client.predict_p50_ms": percentile(predict, 0.5) * 1e3,
        "serve.client.predict_p99_ms": percentile(predict, 0.99) * 1e3,
        "serve.client.rps": BATCH * len(walls) / sum(walls),
        "serve.client.transport_failures":
            loop.client.transport_failures - transport_before,
    }


def server_layers(metrics: dict) -> Dict[str, float]:
    latency = metrics["latency"]
    return {
        "serve.server.upload_p50_ms": latency["upload"]["p50_s"] * 1e3,
        "serve.server.predict_p50_ms": latency["predict"]["p50_s"] * 1e3,
        "serve.server.errors":
            sum(metrics["errors"].values()) + metrics["protocol_errors"],
        "serve.server.inflight_peak": metrics["queue"]["inflight_peak"],
    }
