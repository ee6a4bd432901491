"""Executor backends: registry, resolution, and the streaming interface.

A :class:`RunExecutor` takes an index-keyed mapping of tasks and yields
``(index, value)`` pairs in *completion* order.  The engine's
:class:`~repro.core.engine.coordinator.Coordinator` folds each value
into the :class:`~repro.core.engine.judge.Judge` and may call
:meth:`RunExecutor.cancel` mid-stream — the judge's early-exit signal.

This module is the backend *catalog* and the two simplest backends:

* :class:`SerialExecutor` runs tasks inline, in index order; cancel
  simply stops before the next task.
* :class:`~repro.core.engine.pool.ProcessPoolRunExecutor` fans tasks
  across a process pool (:mod:`repro.core.engine.pool`).
* ``process-pool-shmem`` extends the pool with the shared-memory
  checkpoint exchange (:mod:`repro.core.engine.shmem`).
* ``asyncio-local`` and ``socket`` are coordinator-native transports
  (:mod:`repro.core.engine.transports`,
  :mod:`repro.core.engine.sockets`): the same verdict pipeline driven
  by the asyncio coordinator, locally or across worker processes on
  other machines (docs/distributed.md).

The worker task functions live in :mod:`repro.core.engine.tasks`, the
heartbeat plane in :mod:`repro.core.engine.heartbeat`, and the pool in
:mod:`repro.core.engine.pool`; their public names are re-exported here
so existing imports keep working.
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


#: The executor-backend registry (the 9th catalog family).  ``serial``
#: registers here; ``process-pool`` from :mod:`repro.core.engine.pool`,
#: ``process-pool-shmem`` from :mod:`repro.core.engine.shmem`,
#: ``asyncio-local`` from :mod:`repro.core.engine.transports` and
#: ``socket`` from :mod:`repro.core.engine.sockets` (all imported at
#: the bottom of this module so the catalog is complete whenever
#: executors are loadable).
EXECUTORS = Registry("executors", error=CheckerError,
                     what="executor backend")

#: Environment override consulted by :func:`resolve_executor` for
#: configs left on ``executor="auto"``: the preferred *pool* backend.
#: It never forces a pool onto a session that resolved to one worker
#: (so ``REPRO_EXECUTOR=process-pool-shmem`` runs a whole test suite
#: with every pooled session on the shmem backend while serial-path
#: behavior stays untouched — the CI matrix axis).
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"


def resolve_executor(name: str, n_workers: int) -> str:
    """Map a config's ``executor`` knob to a concrete backend name.

    An explicit name always wins (and is validated).  ``"auto"`` picks
    ``serial`` for single-worker sessions, otherwise the pool backend
    named by :data:`EXECUTOR_ENV_VAR` (``serial`` there is a no-op —
    the env var expresses a pool *flavor*, not a topology override),
    falling back to ``process-pool``.
    """
    if name != "auto":
        if name not in EXECUTORS:
            raise CheckerError(
                f"unknown executor backend {name!r}; available: "
                f"{sorted(EXECUTORS.names())} (or 'auto')")
        return name
    if n_workers <= 1:
        return "serial"
    env = os.environ.get(EXECUTOR_ENV_VAR, "").strip()
    if env and env != "serial":
        if env not in EXECUTORS:
            raise CheckerError(
                f"{EXECUTOR_ENV_VAR}={env!r} names no executor backend; "
                f"available: {sorted(EXECUTORS.names())}")
        return env
    return "process-pool"


class RunExecutor:
    """Backend interface: stream task results, accept a cancel signal."""

    name = "abstract"

    def __init__(self):
        self.cancelled = False   # cancel() was issued mid-stream
        self.cancelled_count = 0  # tasks revoked before they started
        self.expired = False     # the session deadline cut the stream short

    def stream(self, tasks: dict):
        """Yield ``(index, value)`` in completion order.

        *tasks* maps run index to a backend-specific task description.
        The generator honours :meth:`cancel` between yields.
        """
        raise NotImplementedError

    def cancel(self, floor: int | None = None) -> None:
        """Stop issuing new work; already-running work is drained.

        *floor* is the lowest run index the caller knows to be
        divergent: work at or below it must still complete for the
        truncated verdict to stay bit-identical (backends that can
        requeue work out of submission order honour it; the plain
        backends never have unstarted work at or below a folded
        divergence, so they may ignore it).
        """
        self.cancelled = True

    def salvaged_checkpoints(self, index: int) -> int:
        """Checkpoints known to have completed in a run that crashed.

        The pickle-channel backends learn nothing from a dead worker;
        the shmem backend reads the dead run's published lane prefix.
        """
        return 0


class SerialExecutor(RunExecutor):
    """Run tasks inline, one at a time, in index order.

    A task is a zero-argument callable; cancellation takes effect
    before the next task starts (the current one already returned —
    the engine folds, then decides).
    """

    name = "serial"

    def stream(self, tasks: dict):
        for index in sorted(tasks):
            if self.cancelled:
                self.cancelled_count += 1
                continue
            yield index, tasks[index]()


EXECUTORS.register("serial", SerialExecutor)

# -- compat re-exports and backend registration ------------------------------
#
# The modules below import *from* this one (sentinels, the registry,
# RunExecutor) — everything they need is defined above, so the cycles
# resolve.  Import order matters: heartbeat/tasks first (pool needs
# them), then the pool, then the coordinator-native transports, then
# shmem (which subclasses the pool).

from repro.core.engine.heartbeat import (  # noqa: E402,F401  (re-exports)
    HEARTBEAT_INTERVAL_S, WORKER_STALL_S, _HB_STATE, _HEARTBEAT_QUEUE_SIZE,
    HeartbeatMonitor, _beat_loop, _env_float, note_worker_progress)
from repro.core.engine.tasks import (  # noqa: E402,F401  (re-exports)
    _mp_context, _worker_init, attempt_run, campaign_input_worker,
    crash_failure, merge_worker_telemetry, require_picklable,
    session_run_worker, telemetry_payload, worker_telemetry)
from repro.core.engine.pool import ProcessPoolRunExecutor  # noqa: E402

EXECUTORS.register("process-pool", ProcessPoolRunExecutor)

from repro.core.engine.transports import (  # noqa: E402,F401  (registration)
    AsyncioLocalTransport)
from repro.core.engine.sockets import (  # noqa: E402,F401  (registration)
    SocketTransport)

EXECUTORS.register("asyncio-local", AsyncioLocalTransport)
EXECUTORS.register("socket", SocketTransport)

# The shmem backend registers itself on import; importing it here keeps
# the executors catalog complete whenever this home module is loaded.
from repro.core.engine import shmem as _shmem  # noqa: E402,F401  (cycle-safe)
