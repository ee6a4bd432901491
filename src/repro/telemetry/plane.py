"""Assembly of the live observability plane.

One :class:`ObservabilityPlane` bundles the pieces a live command wants
wired together: a :class:`~repro.telemetry.bus.EventBus` as the
telemetry sink, an
optional JSONL recording subscriber, an optional live
:class:`~repro.telemetry.console.SessionConsole`, and an optional
:class:`~repro.telemetry.http.MetricsServer`.  The CLI's
``--telemetry`` / ``--progress`` / ``--metrics-port`` flags map 1:1
onto :meth:`ObservabilityPlane.open` arguments; the HTTP server's
module is imported only when ``--metrics-port`` asks for it.

Shutdown ordering matters and is owned here: the telemetry session is
closed first (stamping ``events_dropped`` and the final metrics
snapshot, then draining the bus so every subscriber — including the
JSONL file — holds the complete stream), the console renders its final
state, and the metrics server stops last so a scraper polling through
the end of a run sees the finished totals.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.telemetry.bus import EventBus
from repro.telemetry.console import SessionConsole
from repro.telemetry.sinks import JsonlSink
from repro.telemetry.tracer import Telemetry

if TYPE_CHECKING:
    from repro.telemetry.http import MetricsServer


class ObservabilityPlane:
    """An assembled telemetry bus + subscribers for one live command."""

    def __init__(self, telemetry: Telemetry | None = None,
                 bus: EventBus | None = None,
                 console: SessionConsole | None = None,
                 server: MetricsServer | None = None):
        self.telemetry = telemetry
        self.bus = bus
        self.console = console
        self.server = server

    @classmethod
    def open(cls, jsonl_path: str | None = None, progress: bool = False,
             progress_stream=None, metrics_port: int | None = None,
             metrics_host: str = "127.0.0.1") -> "ObservabilityPlane":
        """Build and start the plane described by the CLI flags.

        With no flag set the plane is inert (``telemetry`` is None and
        :attr:`enabled` is False) — the zero-overhead default.
        """
        if jsonl_path is None and not progress and metrics_port is None:
            return cls()
        bus = EventBus()
        if jsonl_path is not None:
            bus.subscribe(JsonlSink(jsonl_path), name="jsonl",
                          close_with_bus=True)
        console = None
        if progress:
            console = SessionConsole(stream=progress_stream)
            bus.subscribe(console, name="console")
        # Subscribers first, Telemetry second: the session's opening
        # ``meta`` event must reach every recording subscriber.
        telemetry = Telemetry(bus)
        if console is not None:
            console.bind(telemetry)
            console.start()
        server = None
        if metrics_port is not None:
            from repro.telemetry.http import MetricsServer

            server = MetricsServer(telemetry, port=metrics_port,
                                   host=metrics_host)
            server.start()
        return cls(telemetry, bus, console, server)

    @property
    def enabled(self) -> bool:
        return self.telemetry is not None and self.telemetry.enabled

    def close(self) -> None:
        if self.telemetry is not None:
            self.telemetry.close()  # stamps drops, drains + closes the bus
        if self.console is not None:
            self.console.close()
        if self.server is not None:
            self.server.stop()
