"""The session engine: one plan → execute → judge pipeline.

Every determinism-checking entry point — serial sessions, process-pool
sessions, campaigns — is one instantiation of the same pipeline:

* a :class:`~repro.core.engine.plan.SessionPlan` resolves a
  :class:`~repro.core.engine.model.CheckConfig` into what execution
  needs (scheme variants, retry/budget policy, worker topology);
* a serial session is one plain loop
  (:func:`~repro.core.engine.session.run_inline`), shared with the
  pool's record phase; the ``process-pool`` backend is a
  :class:`~repro.core.engine.coordinator.Transport` driven by the
  :class:`~repro.core.engine.coordinator.Coordinator`, a blocking loop
  over a thread-safe queue.  A session imports only the backend it
  runs (the coordinator and transports are re-exported here lazily);
* an incremental :class:`~repro.core.engine.judge.Judge` folds each
  run's checkpoint-hash sequence into the verdict as it arrives and can
  issue a cancel signal — ``stop_on_first`` cancels outstanding work
  the moment a divergence is seen, on every backend.

The public checker modules (``repro.core.checker.runner`` /
``campaign``) are thin facades over this package; their APIs and
verdicts are unchanged.  See docs/architecture.md.
"""

from repro.core.engine.executors import resolve_workers
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
    "record_key", "resolve_workers", "execute_session", "execute_campaign",
    "Coordinator", "Feedback", "coordinate", "Transport",
    "ProcessPoolTransport",
]

#: Re-exports whose modules load on first access (module ``__getattr__``).
_DEFERRED = {
    "Coordinator": "repro.core.engine.coordinator",
    "Feedback": "repro.core.engine.coordinator",
    "coordinate": "repro.core.engine.coordinator",
    "Transport": "repro.core.engine.coordinator",
    "ProcessPoolTransport": "repro.core.engine.transports",
}


def __getattr__(name):
    module = _DEFERRED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
