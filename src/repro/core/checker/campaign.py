"""Multi-input testing campaigns — facade.

InstantCheck checks determinism *per input*: every verdict is "within
the coverage of the test".  Inputs therefore matter twice — the paper's
streamcluster bug is masked at the end of the run for the medium input
but corrupts the output for the small one, and replayed library-call
results "can be varied in tests, to increase coverage" (Section 5).

:func:`run_campaign` drives one determinism-checking session per input
point and aggregates the verdicts, reporting which inputs exposed
nondeterminism and where (internal barriers vs the final state).
Campaigns are hardened: a failing input records an ``error`` outcome
and the campaign continues; a journal path appends every completed
input as it finishes, and ``resume=True`` skips inputs the journal
already holds.  The execution machinery — serial loop, process-pool
fan-out, journal/telemetry merge — lives in :mod:`repro.core.engine`.

Campaigns are observable while they run: the ``telemetry=`` session
emits per-input progress and verdict events, and the live plane
(``--progress`` console, ``--metrics-port`` Prometheus endpoint, worker
heartbeats with stall detection) consumes the same stream — see
docs/observability.md.
"""

from __future__ import annotations

from repro.core.engine.model import (OUTCOME_ERROR, CampaignResult,
                                     InputOutcome, InputPoint)
from repro.core.engine.session import execute_campaign
from repro.core.checker.runner import CheckConfig

__all__ = [
    "OUTCOME_ERROR", "CampaignResult", "InputOutcome", "InputPoint",
    "run_campaign",
]


def run_campaign(program_factory, inputs, config: CheckConfig | None = None,
                 telemetry=None, journal_path=None, resume: bool = False,
                 **overrides) -> CampaignResult:
    """Check determinism across several input points.

    *program_factory* is called with each input's params to build a
    fresh program; each input gets its own controller (record/replay
    logs must never leak across inputs — different inputs legitimately
    allocate differently).  *telemetry* wraps the campaign in a span and
    emits one progress event per input plus a per-input verdict event.

    *journal_path* appends every completed input to a JSONL journal as
    it finishes; with *resume* the journal is read first and inputs it
    already holds are restored instead of re-run.  Sessions that raise
    a :class:`~repro.errors.ReproError` (bad config, broken factory)
    become ``error`` outcomes and the campaign continues.

    With ``workers`` > 1 in the (effective) config, *inputs* are fanned
    out across worker processes — each worker runs one input's full
    session serially (parallelism is across inputs, never nested) and
    the parent stays the journal's only writer.  The factory must be
    picklable (a module-level callable, not a lambda).  With a single
    pending input the campaign stays serial and lets the session itself
    parallelize its runs instead.
    """
    if config is None:
        config = CheckConfig()
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    return execute_campaign(program_factory, inputs, config,
                            telemetry=telemetry, journal_path=journal_path,
                            resume=resume)
