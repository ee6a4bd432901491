"""The session engine: one plan → execute → judge pipeline.

Every determinism-checking entry point — serial sessions, process-pool
sessions, campaigns — is one instantiation of the same pipeline:

* a :class:`~repro.core.engine.plan.SessionPlan` resolves a
  :class:`~repro.core.engine.model.CheckConfig` into what execution
  needs (scheme variants, retry/budget policy, worker topology);
* the transport-agnostic :class:`~repro.core.engine.coordinator.
  Coordinator` drives the batch through a
  :class:`~repro.core.engine.transports.Transport` — the legacy
  :class:`~repro.core.engine.executors.RunExecutor` backends behind an
  adapter, the natively-async local pool (``asyncio-local``), or the
  socket worker fleet (``socket``, docs/distributed.md) — streaming
  completed runs back in completion order behind one interface;
* an incremental :class:`~repro.core.engine.judge.Judge` folds each
  run's checkpoint-hash sequence into the verdict as it arrives and can
  issue a cancel signal — ``stop_on_first`` cancels outstanding work
  the moment a divergence is seen, on every backend.

The public checker modules (``repro.core.checker.runner`` /
``campaign`` / ``parallel``) are thin facades over this package; their
APIs and verdicts are unchanged.  See docs/architecture.md.
"""

from repro.core.engine.coordinator import Coordinator, Feedback, coordinate
from repro.core.engine.executors import (ProcessPoolRunExecutor, RunExecutor,
                                         SerialExecutor, resolve_workers)
from repro.core.engine.sockets import SocketTransport, WorkerHub
from repro.core.engine.transports import (AsyncioLocalTransport,
                                          ExecutorTransport, Transport)
from repro.core.engine.judge import (Judge, first_divergent_run, make_verdict,
                                     record_key)
from repro.core.engine.model import (OUTCOME_CRASH_DIVERGENCE,
                                     OUTCOME_DETERMINISTIC, OUTCOME_ERROR,
                                     OUTCOME_INCOMPLETE, OUTCOME_INFEASIBLE,
                                     OUTCOME_NONDETERMINISTIC, CampaignResult,
                                     CheckConfig, DeterminismResult,
                                     FrozenDict, InputOutcome, InputPoint,
                                     RunFailure, VariantVerdict,
                                     classify_outcome, error_outcome,
                                     outcome_from_result)
from repro.core.engine.plan import SessionPlan
from repro.core.engine.session import execute_campaign, execute_session

__all__ = [
    "CheckConfig", "DeterminismResult", "VariantVerdict", "RunFailure",
    "FrozenDict", "classify_outcome", "OUTCOME_DETERMINISTIC",
    "OUTCOME_NONDETERMINISTIC", "OUTCOME_CRASH_DIVERGENCE",
    "OUTCOME_INFEASIBLE", "OUTCOME_INCOMPLETE", "OUTCOME_ERROR",
    "InputPoint", "InputOutcome", "CampaignResult", "outcome_from_result",
    "error_outcome",
    "SessionPlan", "Judge", "first_divergent_run", "make_verdict",
    "record_key", "RunExecutor", "SerialExecutor", "ProcessPoolRunExecutor",
    "resolve_workers", "execute_session", "execute_campaign",
    "Coordinator", "Feedback", "coordinate", "Transport",
    "ExecutorTransport", "AsyncioLocalTransport", "SocketTransport",
    "WorkerHub",
]
