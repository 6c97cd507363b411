"""repro-serve: the profile-feedback service command line.

Subcommands::

    repro-serve serve --port 7381 --db state/           # run the server
    repro-serve upload-sweep --server H:P --workloads doduc,fpppp
    repro-serve predict --server H:P --program doduc [--exclude ref]
    repro-serve predict ... --verify-offline            # differential gate
    repro-serve stats --server H:P [--metrics]
    repro-serve health --server H:P

``upload-sweep`` runs bundled workloads locally (through the cached
``WorkloadRunner``) and publishes every run's branch counters via the
runner's publish hook.  ``predict --verify-offline`` recomputes the same
prediction through the offline ``combine_profiles`` path and fails unless
the served bytes match exactly — the round-trip check CI runs.
"""
from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from typing import List, Optional, Tuple

from repro.prediction.combine import COMBINE_MODES
from repro.serve import protocol
from repro.serve.aggregator import Aggregator, database_predict
from repro.serve.client import ProfileClient, RetryPolicy
from repro.serve.server import DEFAULT_HOST, DEFAULT_PORT, ProfileServer


def _parse_server(value: str) -> Tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {value!r}"
        )
    return host, int(port)


def _client(args) -> ProfileClient:
    host, port = args.server
    return ProfileClient(
        host, port, timeout=args.timeout,
        retry=RetryPolicy(attempts=args.retries + 1),
    )


# -- serve ---------------------------------------------------------------------


async def _serve(args) -> int:
    try:
        aggregator = Aggregator(persist_dir=args.db)
    except ValueError as exc:
        print(f"repro-serve: error: {exc}", file=sys.stderr)
        return 2
    server = ProfileServer(
        aggregator,
        host=args.host,
        port=args.port,
        flush_interval=args.flush_interval,
    )
    await server.start()
    print(f"repro-serve: listening on {server.host}:{server.port}", flush=True)
    if args.ready_file:
        with open(args.ready_file, "w") as handle:
            handle.write(f"{server.host}:{server.port}\n")

    loop = asyncio.get_running_loop()
    stopping = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stopping.set)
        except (NotImplementedError, RuntimeError):
            pass  # platforms without signal support on loops
    await stopping.wait()
    print("repro-serve: draining...", flush=True)
    await server.stop()
    print("repro-serve: stopped", flush=True)
    return 0


def cmd_serve(args) -> int:
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:
        return 0


# -- upload-sweep --------------------------------------------------------------


def cmd_upload_sweep(args) -> int:
    from repro.core.parallel import dataset_requests
    from repro.core.runner import WorkloadRunner
    from repro.workloads.registry import get_workload

    names = [name.strip() for name in args.workloads.split(",") if name.strip()]
    if not names:
        print("upload-sweep: no workloads named", file=sys.stderr)
        return 2
    workloads = [get_workload(name) for name in names]
    with _client(args) as client:
        uploaded: List[str] = []

        def publish(run, dataset) -> None:
            client.upload_run(run, dataset)
            uploaded.append(f"{run.program}/{dataset}")

        runner = WorkloadRunner(jobs=args.jobs, publish=publish)
        runner.run_many(dataset_requests(workloads))
        epoch = client.health()["epoch"]
    for entry in uploaded:
        print(f"uploaded {entry}")
    print(f"upload-sweep: {len(uploaded)} uploads, server epoch {epoch}")
    return 0


# -- predict -------------------------------------------------------------------


def _offline_profile_bytes(args) -> bytes:
    """The offline path: rebuild the same per-dataset profiles locally and
    combine them with the library code the experiments use."""
    from repro.core.runner import WorkloadRunner
    from repro.profiling.database import ProfileDatabase

    runner = WorkloadRunner(jobs=args.jobs)
    database = ProfileDatabase()
    for dataset, result in runner.run_all(args.program).items():
        database.record(result, dataset)
    profile, _ = database_predict(
        database, args.program, mode=args.mode, exclude=args.exclude
    )
    return protocol.canonical_profile_bytes(profile)


def cmd_predict(args) -> int:
    with _client(args) as client:
        prediction = client.predict(
            args.program, mode=args.mode, exclude=args.exclude
        )
    served = protocol.canonical_profile_bytes(prediction.profile)
    print(served.decode("utf-8"))
    print(
        f"predict: {args.program} mode={args.mode} "
        f"exclude={args.exclude or '-'} datasets={','.join(prediction.datasets)} "
        f"epoch={prediction.epoch}",
        file=sys.stderr,
    )
    if args.verify_offline:
        offline = _offline_profile_bytes(args)
        if served != offline:
            print(
                "predict: MISMATCH — served bytes differ from the offline "
                "combine_profiles path",
                file=sys.stderr,
            )
            return 1
        print("predict: served bytes == offline bytes", file=sys.stderr)
    return 0


# -- stats / health ------------------------------------------------------------


def cmd_stats(args) -> int:
    with _client(args) as client:
        response = client.stats()
    payload = response["metrics"] if args.metrics else response["stats"]
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_health(args) -> int:
    with _client(args) as client:
        response = client.health()
    print(json.dumps(
        {key: value for key, value in response.items() if key != "ok"},
        indent=2, sort_keys=True,
    ))
    return 0


# -- argument parsing ----------------------------------------------------------


def _add_client_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--server",
        type=_parse_server,
        default=f"{DEFAULT_HOST}:{DEFAULT_PORT}",
        help=f"server address (default {DEFAULT_HOST}:{DEFAULT_PORT})",
    )
    parser.add_argument(
        "--timeout", type=float, default=10.0,
        help="per-request timeout in seconds",
    )
    parser.add_argument(
        "--retries", type=int, default=3,
        help="transport retries per request (exponential backoff)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Profile-feedback service: aggregate branch profiles "
        "over TCP and serve summary predictions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the aggregation server")
    serve.add_argument("--host", default=DEFAULT_HOST)
    serve.add_argument("--port", type=int, default=DEFAULT_PORT)
    serve.add_argument(
        "--db", default=None, metavar="DIR",
        help="persist the profile database as DIR/profiles.json "
        "(write-behind; repro-mf --db reads it)",
    )
    serve.add_argument("--flush-interval", type=float, default=1.0)
    serve.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="write HOST:PORT here once listening (for scripts)",
    )
    serve.set_defaults(func=cmd_serve)

    sweep = sub.add_parser(
        "upload-sweep",
        help="run bundled workloads locally and upload their profiles",
    )
    _add_client_args(sweep)
    sweep.add_argument(
        "--workloads", required=True,
        help="comma-separated bundled workload names",
    )
    sweep.add_argument("--jobs", "-j", type=int, default=None)
    sweep.set_defaults(func=cmd_upload_sweep)

    predict = sub.add_parser(
        "predict", help="fetch a summary prediction for a program"
    )
    _add_client_args(predict)
    predict.add_argument("--program", required=True)
    predict.add_argument("--mode", choices=COMBINE_MODES, default="scaled")
    predict.add_argument(
        "--exclude", default=None,
        help="leave this dataset out (leave-one-out prediction)",
    )
    predict.add_argument(
        "--verify-offline", action="store_true",
        help="recompute offline and fail unless the bytes match",
    )
    predict.add_argument("--jobs", "-j", type=int, default=None)
    predict.set_defaults(func=cmd_predict)

    stats = sub.add_parser("stats", help="dump aggregator contents")
    _add_client_args(stats)
    stats.add_argument(
        "--metrics", action="store_true",
        help="dump service metrics instead of aggregator contents",
    )
    stats.set_defaults(func=cmd_stats)

    health = sub.add_parser("health", help="liveness probe")
    _add_client_args(health)
    health.set_defaults(func=cmd_health)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
