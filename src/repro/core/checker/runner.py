"""The multi-run determinism checker (Sections 2 and 7) — facade.

``check_determinism`` runs one program many times with the same input
under different schedules — piggybacking on the kind of testing loop
programmers already run — collects the state hash at every checkpoint,
and compares the hash sequences across runs.  If two runs disagree at a
point, the program is (externally) nondeterministic at that point; if
all runs agree everywhere, the program is deterministic *within the
coverage of the test*, as the paper is careful to phrase it.

The execution machinery lives in :mod:`repro.core.engine` (one
plan → execute → judge pipeline shared with campaigns and the parallel
backend; see docs/architecture.md); this module is the stable public
surface, re-exporting the data model and wiring keyword overrides into
:func:`~repro.core.engine.session.execute_session`.

Pass ``telemetry=`` to watch a session: a plain JSONL-backed
:class:`~repro.telemetry.Telemetry` records it, and one opened through
:class:`~repro.telemetry.ObservabilityPlane` additionally streams the
same events to a live console and a Prometheus ``/metrics`` endpoint
without changing any verdict bit (see docs/observability.md).
"""

from __future__ import annotations

from repro.core.engine.model import (OUTCOME_CRASH_DIVERGENCE,
                                     OUTCOME_DETERMINISTIC,
                                     OUTCOME_INCOMPLETE, OUTCOME_INFEASIBLE,
                                     OUTCOME_NONDETERMINISTIC, CheckConfig,
                                     DeterminismResult, FrozenDict,
                                     RunFailure, VariantVerdict,
                                     classify_outcome)
from repro.core.engine.session import execute_session
from repro.sim.program import Program

__all__ = [
    "CheckConfig", "DeterminismResult", "VariantVerdict", "RunFailure",
    "FrozenDict", "classify_outcome", "check_determinism",
    "OUTCOME_DETERMINISTIC", "OUTCOME_NONDETERMINISTIC",
    "OUTCOME_CRASH_DIVERGENCE", "OUTCOME_INFEASIBLE", "OUTCOME_INCOMPLETE",
]


def check_determinism(program: Program, config: CheckConfig | None = None,
                      telemetry=None, **overrides) -> DeterminismResult:
    """Run a full determinism-checking session over *program*.

    Keyword overrides are applied on top of *config* (or the default
    config), e.g. ``check_determinism(prog, runs=10, ignores=(...,))``.
    *telemetry* is an optional :class:`~repro.telemetry.Telemetry`
    session: the whole session becomes one span, every run emits a
    progress event, and first divergences are recorded as events.
    """
    if config is None:
        config = CheckConfig()
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    return execute_session(program, config, telemetry=telemetry)
