"""Running the service: the CLI's blocking entry and a test harness.

:func:`run_service` owns an event loop for the life of the process —
it is what ``repro-hetero serve`` calls, and it translates SIGINT/
SIGTERM into a clean shutdown (drain in-flight requests, close the
socket).

:class:`ServiceThread` hosts the same service on a background thread
with its own loop and an ephemeral port — the harness used by the
endpoint tests, the CI smoke job, and the throughput benchmark, where
client and server share one process and the server must come up/down
deterministically.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.service.app import ReproService
from repro.service.config import ServiceConfig

if TYPE_CHECKING:
    from repro.service.client import ServiceClient

__all__ = ["ServiceThread", "run_service"]


def run_service(config: ServiceConfig, *,
                registry: MetricsRegistry | None = None,
                tracer: Tracer | None = None,
                ready: Callable[[ReproService], None] | None = None) -> None:
    """Serve until interrupted; returns after a clean shutdown.

    ``ready`` (if given) is called once the socket is bound, with the
    running service — the CLI uses it to print the listen address.
    Raises ``OSError`` if the bind fails and lets library errors
    propagate for the CLI's exit-code mapping.
    """
    async def main() -> None:
        service = ReproService(config, registry=registry, tracer=tracer)
        await service.start()
        if ready is not None:
            ready(service)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signame in ("SIGINT", "SIGTERM"):
            import signal
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(getattr(signal, signame), stop.set)
        try:
            await stop.wait()
        finally:
            await service.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # signal handlers unavailable (rare)
        pass


class ServiceThread:
    """A live service on a background thread, for in-process callers.

    Binds an ephemeral port by default (``port=0``) so parallel test
    runs never collide.  Entering the context blocks until the socket
    is accepting; exiting drains and joins.

    Examples
    --------
    ::

        with ServiceThread(ServiceConfig(port=0)) as server:
            with server.client() as client:
                assert client.healthz()["status"] == "ok"
    """

    def __init__(self, config: ServiceConfig | None = None, *,
                 registry: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 startup_timeout: float = 10.0) -> None:
        self.config = config or ServiceConfig(port=0)
        self.registry = registry
        self.tracer = tracer
        self.startup_timeout = float(startup_timeout)
        self.service: ReproService | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ServiceThread":
        if self._thread is not None:
            raise ReproError("ServiceThread is already started")
        self._thread = threading.Thread(target=self._run,
                                        name="repro-service", daemon=True)
        self._thread.start()
        if not self._ready.wait(self.startup_timeout):
            raise ReproError("service thread did not come up in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        async def main() -> None:
            service = ReproService(self.config, registry=self.registry,
                                   tracer=self.tracer)
            try:
                await service.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                return
            self.service = service
            self._loop = asyncio.get_running_loop()
            self._stop_event = asyncio.Event()
            self._ready.set()
            try:
                await self._stop_event.wait()
            finally:
                await service.stop()
        asyncio.run(main())

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=self.startup_timeout)
        self._thread = None
        self._loop = None
        self.service = None

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- addressing ----------------------------------------------------
    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        if self.service is None:
            raise ReproError("ServiceThread is not running")
        return self.service.port

    def client(self, *, timeout: float = 30.0) -> ServiceClient:
        """A fresh client bound to this server (one per thread, please)."""
        from repro.service.client import ServiceClient

        return ServiceClient(self.host, self.port, timeout=timeout)
