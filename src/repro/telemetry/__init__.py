"""Structured telemetry for the checker stack.

The paper's pitch is *instant* visibility into a running parallel
program; this package gives the reproduction the same property about
itself.  One :class:`Telemetry` session threads through a checking
session (or campaign): hierarchical spans time every simulated run, a
metrics registry accumulates per-scheme hash-update counts and
instruction categories, and point events record per-run/per-input
progress and first divergences.  Events stream to a versioned JSONL
file that ``python -m repro stats`` renders into a profile summary.

The *live* observability plane builds on the same stream: an
:class:`EventBus` fans events out to bounded-queue subscribers without
ever blocking the hot path (drops are counted, not hidden), a
:class:`MetricsServer` exposes the registry in Prometheus text format
on ``/metrics`` with a ``/healthz`` liveness document, a
:class:`SessionConsole` renders an in-place TTY progress view, and
:func:`chrome_trace` converts a recorded stream into Chrome/Perfetto
``trace_event`` JSON.  :class:`ObservabilityPlane` assembles those
pieces for the CLI's ``--telemetry``/``--progress``/``--metrics-port``
flags.

Disabled (the default, over a :class:`NullSink`) the whole subsystem is
a no-op: ``Telemetry.enabled`` is False and hot-path call sites guard
on it, so no events, timestamps, or dicts are ever created.  The HTTP
side (:class:`MetricsServer`, :func:`health_document`,
:func:`write_prometheus_snapshot`) loads on first access, so a command
without ``--metrics-port`` never imports ``http.server``.

See ``docs/telemetry.md`` for the event schema and
``docs/observability.md`` for the live plane.
"""

from repro.telemetry.bus import DEFAULT_QUEUE, EventBus, Subscription
from repro.telemetry.console import SessionConsole
from repro.telemetry.export import (chrome_trace, parse_prometheus,
                                    render_prometheus)
from repro.telemetry.plane import ObservabilityPlane
from repro.telemetry.registry import (Counter, Gauge, Histogram,
                                      MetricsRegistry, metric_key)
from repro.telemetry.sinks import (SCHEMA_NAME, SCHEMA_VERSION,
                                   SUPPORTED_SCHEMA_VERSIONS, JsonlSink,
                                   MemorySink, NullSink, Sink, load_events,
                                   load_events_tolerant)
from repro.telemetry.stats import aggregate, render_stats, render_stats_file
from repro.telemetry.tracer import DISABLED, Span, Telemetry

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "metric_key",
    "SCHEMA_NAME", "SCHEMA_VERSION", "SUPPORTED_SCHEMA_VERSIONS",
    "Sink", "NullSink", "MemorySink", "JsonlSink",
    "load_events", "load_events_tolerant",
    "aggregate", "render_stats", "render_stats_file",
    "Span", "Telemetry", "DISABLED",
    "EventBus", "Subscription", "DEFAULT_QUEUE",
    "render_prometheus", "parse_prometheus", "chrome_trace",
    "MetricsServer", "health_document", "write_prometheus_snapshot",
    "SessionConsole", "ObservabilityPlane",
]

#: Re-exports of :mod:`repro.telemetry.http`, loaded on first access.
_HTTP_NAMES = ("MetricsServer", "health_document", "write_prometheus_snapshot")


def __getattr__(name):
    if name not in _HTTP_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.telemetry import http

    return getattr(http, name)
