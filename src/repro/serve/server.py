"""The asyncio profile-feedback server.

One ``ProfileServer`` owns an ``Aggregator`` and serves the four protocol
operations over TCP.  Design points:

* **One request at a time.**  Every request is dispatched synchronously
  on the event-loop thread, so requests from concurrent connections
  interleave between frames but never overlap; the ``inflight_peak``
  gauge states that invariant.  A burst queues on TCP, not in memory.
* **Connection isolation.**  A peer that vanishes mid-frame, sends
  garbage, or claims an oversized frame costs the server exactly that
  connection — the handler catches the ``ProtocolError``, answers it when
  the transport still allows, and closes.  Aggregator mutations happen
  only after a request parses completely, so a broken upload can never
  leave partial state behind.
* **Graceful drain.**  ``stop()`` closes the listening socket, lets every
  in-flight request finish (up to ``drain_timeout``), cancels stragglers,
  then flushes the aggregator's database to disk.
* **Write-behind persistence.**  A background task flushes the database,
  when it changed, every ``flush_interval`` seconds through a worker
  thread, so uploads never wait on the filesystem.

``ServerThread`` runs the whole thing on a private event loop in a
daemon thread — the harness the sync client tests, benchmarks, and the
blocking CLI lean on.
"""
from __future__ import annotations

import asyncio
import threading
from typing import Dict, Optional

from repro.serve import protocol
from repro.serve.aggregator import Aggregator
from repro.serve.metrics import ServiceMetrics

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7381


class ProfileServer:
    """Asyncio TCP server over one aggregator."""

    def __init__(
        self,
        aggregator: Aggregator,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        *,
        idle_timeout: float = 60.0,
        drain_timeout: float = 5.0,
        flush_interval: float = 1.0,
        metrics: Optional[ServiceMetrics] = None,
    ) -> None:
        self.aggregator = aggregator
        self.host = host
        self.port = port
        self.idle_timeout = idle_timeout
        self.drain_timeout = drain_timeout
        self.flush_interval = flush_interval
        self.metrics = metrics or ServiceMetrics(ops=list(protocol.OPS))
        self._server: Optional[asyncio.AbstractServer] = None
        self._handlers: set = set()
        self._draining = False
        self._flusher: Optional[asyncio.Task] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` is updated with the
        actual port when 0 was requested."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.aggregator.persist_dir:
            self._flusher = asyncio.ensure_future(self._flush_loop())

    async def stop(self) -> None:
        """Graceful drain: stop accepting, finish in-flight work, flush."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._handlers:
            done, pending = await asyncio.wait(
                list(self._handlers), timeout=self.drain_timeout
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        if self._flusher is not None:
            self._flusher.cancel()
            try:
                await self._flusher
            except asyncio.CancelledError:
                pass
        await asyncio.get_running_loop().run_in_executor(
            None, self.aggregator.flush
        )

    async def _flush_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.flush_interval)
            if self.aggregator.dirty:
                await loop.run_in_executor(None, self.aggregator.flush)

    # -- connection handling ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        self.metrics.connection_opened()
        try:
            while not self._draining:
                try:
                    payload = await asyncio.wait_for(
                        protocol.read_frame_async(reader),
                        timeout=self.idle_timeout,
                    )
                except (
                    protocol.ProtocolError,
                    asyncio.TimeoutError,
                    ConnectionError,
                ):
                    self.metrics.record_protocol_error()
                    break
                if payload is None:
                    break  # clean EOF
                response = self._serve_request(payload)
                try:
                    await protocol.write_frame_async(writer, response)
                except (ConnectionError, protocol.ProtocolError):
                    self.metrics.record_protocol_error()
                    break
        finally:
            self._handlers.discard(task)
            self.metrics.connection_closed()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _serve_request(self, payload: Dict) -> Dict:
        op = payload.get("op")
        op_label = op if op in protocol.OPS else "invalid"
        self.metrics.start_request()
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            response = self._dispatch(payload)
        except protocol.ProtocolError as exc:
            response = protocol.error_response(str(exc))
        except (KeyError, ValueError) as exc:
            response = protocol.error_response(str(exc))
        except Exception as exc:  # a bug, but never kill the service
            response = protocol.error_response(
                f"internal error: {type(exc).__name__}: {exc}"
            )
        finally:
            self.metrics.finish_request()
        self.metrics.record_request(
            op_label, loop.time() - started, error=not response["ok"]
        )
        return response

    # -- operations ---------------------------------------------------------

    def _dispatch(self, payload: Dict) -> Dict:
        protocol.check_version(payload)
        op = payload.get("op")
        if op == "upload":
            return self._op_upload(payload)
        if op == "predict":
            return self._op_predict(payload)
        if op == "stats":
            return self._op_stats()
        if op == "health":
            return self._op_health()
        raise protocol.ProtocolError(
            f"unknown operation {op!r}; this server speaks {protocol.OPS}"
        )

    def _op_upload(self, payload: Dict) -> Dict:
        program = payload.get("program")
        dataset = payload.get("dataset")
        if not isinstance(program, str) or not isinstance(dataset, str):
            raise protocol.ProtocolError(
                "upload needs string 'program' and 'dataset' fields"
            )
        profile = protocol.profile_from_wire(payload.get("profile"))
        epoch = self.aggregator.record_profile(program, dataset, profile)
        return protocol.ok_response(program=program, dataset=dataset, epoch=epoch)

    def _op_predict(self, payload: Dict) -> Dict:
        program = payload.get("program")
        if not isinstance(program, str):
            raise protocol.ProtocolError("predict needs a string 'program'")
        mode = payload.get("mode", "scaled")
        exclude = payload.get("exclude")
        if exclude is not None and not isinstance(exclude, str):
            raise protocol.ProtocolError("'exclude' must be a dataset name or null")
        profile, datasets, epoch = self.aggregator.predict(
            program, mode=mode, exclude=exclude
        )
        return protocol.ok_response(
            program=program,
            mode=mode,
            exclude=exclude,
            datasets=datasets,
            epoch=epoch,
            profile=protocol.profile_to_wire(profile),
        )

    def _op_stats(self) -> Dict:
        return protocol.ok_response(
            stats=self.aggregator.stats(), metrics=self.metrics.snapshot()
        )

    def _op_health(self) -> Dict:
        snapshot = self.metrics.snapshot()
        return protocol.ok_response(
            status="draining" if self._draining else "ok",
            epoch=self.aggregator.epoch,
            inflight=snapshot["queue"]["inflight"],
            uptime_s=snapshot["uptime_s"],
        )


class ServerThread:
    """A ProfileServer on a private event loop in a daemon thread.

    Blocking callers (tests, benchmarks, the sync CLI) start one, talk to
    ``host:port`` with the sync client, and ``stop()`` it — which runs the
    server's graceful drain on its own loop before the thread exits.
    """

    def __init__(self, aggregator: Optional[Aggregator] = None, **kwargs):
        self.server = ProfileServer(
            aggregator or Aggregator(), port=kwargs.pop("port", 0), **kwargs
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._startup_error is not None:
            raise RuntimeError(
                f"server failed to start: {self._startup_error}"
            ) from self._startup_error
        if not self._ready.is_set():
            raise RuntimeError("server did not start within 10s")
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            self._loop.close()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.server.stop())
            self._loop.close()

    def stop(self) -> None:
        if self._loop is None or self._thread is None:
            return
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30.0)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
