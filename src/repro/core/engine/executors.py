"""Executor backends: the catalog and its resolution.

* ``serial`` — :func:`~repro.core.engine.session.serial_session` runs
  every run inline, in index order, in one plain loop;
* ``process-pool`` — :class:`~repro.core.engine.transports.
  ProcessPoolTransport` fans runs across a local process pool.

The pool is the one :class:`~repro.core.engine.coordinator.Transport`
class; the engine's :class:`~repro.core.engine.coordinator.Coordinator`
drives it in one blocking loop — submit a batch, fold results in
completion order, cancel mid-stream on the judge's early-exit signal.
The loop runs on no event loop: the pool's manager thread hands
results over a thread-safe queue.

The worker task functions live in :mod:`repro.core.engine.tasks` and
the heartbeat plane in :mod:`repro.core.engine.heartbeat`.
"""

from __future__ import annotations

import os

from repro.core.registry import Registry
from repro.errors import CheckerError

#: Sentinel results: the worker process died / the session deadline
#: expired before the task could be salvaged.
CRASHED = object()
_EXPIRED = object()


def resolve_workers(workers) -> int:
    """Map the ``workers`` config knob to a concrete pool size.

    ``"auto"`` means one worker per CPU; an int is used as-is.  1 is the
    serial path (no pool at all).
    """
    if workers == "auto":
        return max(1, os.cpu_count() or 1)
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise CheckerError(
            f"workers must be a positive int or 'auto', got {workers!r}")
    if workers < 1:
        raise CheckerError(f"workers must be >= 1, got {workers}")
    return workers


#: The executor-backend registry (the 9th catalog family).  Each
#: backend's module is imported when its name is first looked up, not
#: with this module: a serial session never loads the pool code.
#: Registration order is the listing order.
EXECUTORS = Registry("executors", error=CheckerError,
                     what="executor backend")
EXECUTORS.register_deferred(
    "serial", "repro.core.engine.session:serial_session")
EXECUTORS.register_deferred(
    "process-pool", "repro.core.engine.transports:ProcessPoolTransport")


def resolve_executor(name: str, n_workers: int) -> str:
    """Map a config's ``executor`` knob to a concrete backend name.

    An explicit name always wins (and is validated).  ``"auto"`` picks
    ``serial`` for single-worker sessions, otherwise ``process-pool``.
    """
    if name != "auto":
        if name not in EXECUTORS:
            raise CheckerError(
                f"unknown executor backend {name!r}; available: "
                f"{sorted(EXECUTORS.names())} (or 'auto')")
        return name
    return "serial" if n_workers <= 1 else "process-pool"

