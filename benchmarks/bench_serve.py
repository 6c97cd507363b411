"""Benchmark: profile-feedback service upload/predict throughput.

The serve subsystem only pays for itself if a fleet of runners can push
branch counters through one aggregation point faster than they produce
them, so this records the second perf axis (``BENCH_SERVE.json``): loopback
upload and predict throughput plus tail latency through the real stack —
canonical-JSON framing, asyncio server, one-database aggregator — with a sync
client doing one request per round trip (no pipelining, the worst case).

The smoke test guards CI with a conservative floor (the point is catching
an accidental O(database) per-request regression, not chasing the exact
figure on a noisy shared runner); the full benchmark measures a sustained
multi-batch upload push and a predict sweep and rewrites the JSON.
"""
import json
import platform
import time
from pathlib import Path

from repro.ir.instructions import BranchId
from repro.profiling.branch_profile import BranchProfile
from repro.serve.client import ProfileClient, RetryPolicy
from repro.serve.server import ServerThread

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_SERVE.json"

#: Acceptance floor for the recorded figure: one sync client must sustain
#: >=1k uploads/s through the full stack on loopback.
UPLOAD_FLOOR = 1_000.0

#: CI smoke floor: loopback measures ~1.2k req/s on a single shared core;
#: anything under this means a per-request full-database scan (or similar)
#: crept into the hot path.
SMOKE_FLOOR = 400.0

#: Synthetic fleet shape: programs x datasets, branch sites per profile.
PROGRAMS = 8
DATASETS = 6
SITES = 40


def synthetic_profile(program, seed):
    """A deterministic profile with SITES branch sites; counts vary by
    seed so uploads are not trivially identical frames."""
    profile = BranchProfile(program=program, runs=1)
    for site in range(SITES):
        executed = float(100 + (seed * 37 + site * 11) % 900)
        taken = float(int(executed) * ((seed + site) % 100) // 100)
        profile.counts[BranchId(f"fn{site % 5}", site)] = (executed, taken)
    return profile


def _percentile(latencies, fraction):
    ranked = sorted(latencies)
    return ranked[min(len(ranked) - 1, int(len(ranked) * fraction))]


def _push_uploads(client, count, offset=0):
    """Upload ``count`` synthetic profiles round-robin across the fleet
    shape; returns (seconds, per-request latencies)."""
    latencies = []
    started = time.perf_counter()
    for index in range(count):
        seed = offset + index
        program = f"prog{seed % PROGRAMS}"
        dataset = f"d{(seed // PROGRAMS) % DATASETS}"
        request_start = time.perf_counter()
        client.upload_profile(program, dataset, synthetic_profile(program, seed))
        latencies.append(time.perf_counter() - request_start)
    return time.perf_counter() - started, latencies


def _sweep_predicts(client, count):
    latencies = []
    started = time.perf_counter()
    for index in range(count):
        program = f"prog{index % PROGRAMS}"
        mode = ("scaled", "unscaled", "polling")[index % 3]
        exclude = f"d{index % DATASETS}" if index % 2 else None
        request_start = time.perf_counter()
        client.predict(program, mode=mode, exclude=exclude)
        latencies.append(time.perf_counter() - request_start)
    return time.perf_counter() - started, latencies


def test_smoke_serve_throughput():
    with ServerThread() as server:
        with ProfileClient(
            server.host, server.port, retry=RetryPolicy(attempts=2)
        ) as client:
            _push_uploads(client, 50)  # warm up sockets and allocator
            seconds, latencies = _push_uploads(client, 400, offset=50)
    rate = len(latencies) / seconds
    print(
        f"\nserve smoke: {rate:,.0f} uploads/s, "
        f"p99 {_percentile(latencies, 0.99) * 1e3:.2f} ms"
    )
    assert rate >= SMOKE_FLOOR, (
        f"upload throughput {rate:,.0f} req/s fell below the "
        f"{SMOKE_FLOOR:,.0f} req/s smoke floor — did a per-request "
        "database scan creep into the upload path?"
    )


def test_full_serve_benchmark():
    """Sustained upload push + predict sweep; records BENCH_SERVE.json."""
    batches = 5
    batch_size = 1_000
    predict_count = 1_000

    with ServerThread() as server:
        with ProfileClient(
            server.host, server.port, retry=RetryPolicy(attempts=2)
        ) as client:
            _push_uploads(client, 100)  # warm up
            upload_latencies = []
            batch_rates = []
            for batch in range(batches):
                seconds, latencies = _push_uploads(
                    client, batch_size, offset=100 + batch * batch_size
                )
                batch_rates.append(batch_size / seconds)
                upload_latencies.extend(latencies)
            predict_seconds, predict_latencies = _sweep_predicts(
                client, predict_count
            )
            stats = client.stats()

    upload_rate = sum(batch_rates) / len(batch_rates)
    sustained = min(batch_rates)
    predict_rate = predict_count / predict_seconds
    report = {
        "benchmark": "serve_throughput",
        "date": time.strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "transport": "loopback TCP, one sync client, no pipelining",
        "fleet_shape": {
            "programs": PROGRAMS,
            "datasets": DATASETS,
            "branch_sites_per_profile": SITES,
        },
        "upload": {
            "requests": batches * batch_size,
            "batches": batches,
            "rate_rps": round(upload_rate, 1),
            "sustained_rps": round(sustained, 1),
            "p50_ms": round(_percentile(upload_latencies, 0.50) * 1e3, 3),
            "p99_ms": round(_percentile(upload_latencies, 0.99) * 1e3, 3),
        },
        "predict": {
            "requests": predict_count,
            "rate_rps": round(predict_rate, 1),
            "p50_ms": round(_percentile(predict_latencies, 0.50) * 1e3, 3),
            "p99_ms": round(_percentile(predict_latencies, 0.99) * 1e3, 3),
        },
        "server_epoch": stats["stats"]["epoch"],
    }
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"\nserve full: upload {upload_rate:,.0f} rps "
        f"(sustained {sustained:,.0f}), "
        f"predict {predict_rate:,.0f} rps, "
        f"predict p99 {report['predict']['p99_ms']:.2f} ms "
        f"-> {BENCH_PATH.name}"
    )
    assert sustained >= UPLOAD_FLOOR, (
        f"sustained upload throughput {sustained:,.0f} req/s fell below "
        f"the {UPLOAD_FLOOR:,.0f} req/s acceptance floor"
    )
