"""The transport-agnostic coordinator: the fan-out scheduling loop.

The fan-out backend — the local process pool — is driven by one
loop: submit the task batch through a :class:`Transport`, block on
results in completion order, fold each one into the caller's
*feedback* object (the incremental judge for sessions, the outcome
recorder for campaigns), and steer cancellation:

* **judge-driven** — ``stop_on_first`` saw a divergence: cancel with
  the divergence floor (work at or below it still completes, so the
  truncated verdict stays bit-identical to serial), then announce the
  early exit with :func:`announce_cancelled`;
* **budget-driven** — the session deadline expired: cancel everything
  outstanding (it would only expire against the same deadline), no
  announcement — expiry is the budget's event, not the user's ask.

The coordinator owns no backend specifics: retry rides inside the task
functions (:func:`~repro.core.engine.tasks.attempt_run`, applied where
the run executes), deadlines travel to the transport, and the feedback
object owns verdict state.  The loop is plain blocking code: the
transport's own thread (the pool's manager thread) produces results
onto a thread-safe queue, and a blocking ``get`` on that queue stays
interruptible by a shutdown signal.
"""

from __future__ import annotations


class Transport:
    """The coordinator's only view of fanned-out execution: submit a
    batch, block for results in completion order, cancel with a
    divergence floor, close.  Every method is a plain blocking call."""

    name = "abstract"

    def __init__(self):
        self.cancelled = False    # cancel() was issued mid-stream
        self.cancelled_count = 0  # tasks revoked before they started
        self.expired = False      # the deadline cut the stream short
        self.aborted = False      # an exception unwound the batch

    def start(self, tasks: dict) -> None:
        """Submit the whole batch, in index order."""
        raise NotImplementedError

    def next_result(self):
        """Block for the next ``(index, value)`` in completion order;
        None at the end of the stream."""
        raise NotImplementedError

    def cancel(self, floor: int | None = None) -> None:
        """Stop issuing new work; already-running work is drained.

        *floor* is the lowest run index the caller knows to be
        divergent: work at or below it must still complete for the
        truncated verdict to stay bit-identical.
        """
        self.cancelled = True

    def close(self) -> None:
        """Tear down workers/connections; safe to call once, always."""


class Feedback:
    """What the coordinator folds results into and takes steering from."""

    def fold(self, index: int, value) -> None:
        raise NotImplementedError

    def should_cancel(self) -> bool:
        return False

    def cancel_floor(self) -> int | None:
        return None

    def budget_exhausted(self) -> bool:
        return False

    def progress(self) -> dict:
        """Completed/failed counts for the ``session_cancelled`` event."""
        return {}


class Coordinator:
    """Dispatch one task batch through a transport, fold the stream."""

    def __init__(self, transport, feedback: Feedback, tele=None,
                 program_name: str | None = None):
        self.transport = transport
        self.feedback = feedback
        self.tele = tele
        self.program_name = program_name
        self.stop_cancelled = False  # a judge-driven cancel was issued

    def run(self, tasks: dict) -> None:
        transport, feedback = self.transport, self.feedback
        transport.start(tasks)
        try:
            while (item := transport.next_result()) is not None:
                feedback.fold(*item)
                if not transport.cancelled:
                    if feedback.should_cancel():
                        transport.cancel(floor=feedback.cancel_floor())
                        self.stop_cancelled = True
                    elif feedback.budget_exhausted():
                        transport.cancel()
        except BaseException:
            # A shutdown signal raised mid-wait, a failing fold: the
            # batch is abandoned, so close() must not wait out the work
            # still in flight.
            transport.aborted = True
            raise
        finally:
            transport.close()
        if self.stop_cancelled:
            announce_cancelled(self.tele, self.program_name, transport.name,
                               feedback.progress(),
                               transport.cancelled_count)


def announce_cancelled(tele, program_name, backend: str, progress: dict,
                       cancelled: int) -> None:
    """Emit ``session_cancelled`` (consumers rely on its field order)
    and count it in ``sessions_cancelled``; every backend calls this."""
    if tele:
        tele.event("session_cancelled", program=program_name,
                   backend=backend, **progress, cancelled=cancelled)
        tele.registry.counter("sessions_cancelled").inc()


def coordinate(transport, feedback: Feedback, tasks: dict, tele=None,
               program_name: str | None = None) -> None:
    """Drive *tasks* through *transport* to completion, folding every
    result into *feedback*."""
    Coordinator(transport, feedback, tele, program_name).run(tasks)
