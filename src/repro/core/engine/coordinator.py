"""The transport-agnostic coordinator: one async scheduling loop.

Every backend — serial, the local process pool, the socket worker
fleet — is driven by the same loop: submit the task batch through a
:class:`~repro.core.engine.transports.Transport`, await results in
completion order, fold each one into the caller's *feedback* object
(the incremental judge for sessions, the outcome recorder for
campaigns), and steer cancellation:

* **judge-driven** — ``stop_on_first`` saw a divergence: cancel with
  the divergence floor (work at or below it still completes, so the
  truncated verdict stays bit-identical to serial), then announce the
  early exit as a ``session_cancelled`` telemetry event;
* **budget-driven** — the session deadline expired: cancel everything
  outstanding (it would only expire against the same deadline), no
  announcement — expiry is the budget's event, not the user's ask.

The coordinator owns no backend specifics: retry rides inside the task
functions (:func:`~repro.core.engine.tasks.attempt_run`, applied where
the run executes), deadlines travel to the transport, and the feedback
object owns verdict state.  Transports that need an event loop get one:
:func:`coordinate` runs the loop to completion on a private loop, so
synchronous entry points (the CLI, ``check_determinism``) stay
synchronous while the scheduling core is natively ``asyncio``.
"""

from __future__ import annotations

import asyncio


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

    async def run(self, tasks: dict) -> None:
        transport, feedback = self.transport, self.feedback
        await transport.start(tasks)
        try:
            while True:
                item = await transport.next_result()
                if item is None:
                    break
                feedback.fold(*item)
                if not transport.cancelled:
                    if feedback.should_cancel():
                        await transport.cancel(floor=feedback.cancel_floor())
                        self.stop_cancelled = True
                    elif feedback.budget_exhausted():
                        await transport.cancel()
        except BaseException:
            # A shutdown signal, the coordinator's task cancelled on its
            # way out, a failing fold: the batch is abandoned, so close()
            # must not wait out the work still in flight.
            transport.aborted = True
            raise
        finally:
            await transport.close()
        if self.stop_cancelled and self.tele:
            self.tele.event("session_cancelled", program=self.program_name,
                            backend=transport.name, **feedback.progress(),
                            cancelled=transport.cancelled_count)
            self.tele.registry.counter("sessions_cancelled").inc()


def coordinate(coro):
    """Run one coordinator coroutine to completion on a private loop.

    The loop exists only for this call (fork-safe: no global loop state
    leaks into pool workers).  On an abnormal exit — a shutdown signal
    raised mid-wait, the caller unwinding — the in-flight coroutine is
    cancelled and awaited so every transport's ``finally`` (worker
    teardown, socket close) runs before the exception continues.
    """
    loop = asyncio.new_event_loop()
    task = None
    try:
        task = loop.create_task(coro)
        return loop.run_until_complete(task)
    except BaseException:
        if task is not None and not task.done():
            task.cancel()
            try:
                loop.run_until_complete(task)
            except BaseException:
                pass
        raise
    finally:
        try:
            _drain_pending(loop)
        finally:
            loop.close()


def _drain_pending(loop) -> None:
    """Cancel and await whatever the transport left on the loop."""
    pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
    if not pending:
        return
    for task in pending:
        task.cancel()
    loop.run_until_complete(
        asyncio.gather(*pending, return_exceptions=True))
