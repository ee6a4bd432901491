"""The transport-agnostic coordinator: the fan-out scheduling loop.

The two fan-out backends — the local process pool and the socket
worker fleet — are driven by the same loop: submit the task batch
through a :class:`~repro.core.engine.transports.Transport`, await
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
object owns verdict state.  :func:`coordinate` runs the loop to
completion on a private event loop, so synchronous entry points (the
CLI, ``check_determinism``) stay synchronous.  It imports
:mod:`asyncio` itself: the serial session (a plain loop in
:mod:`repro.core.engine.session`) imports this module but never
loads asyncio.
"""

from __future__ import annotations


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


def coordinate(coro):
    """Run one coordinator coroutine to completion on a private loop.

    The loop exists only for this call (fork-safe: no global loop state
    leaks into pool workers).  On an abnormal exit — a shutdown signal
    raised mid-wait, the caller unwinding — the in-flight coroutine is
    cancelled and awaited so every transport's ``finally`` (worker
    teardown, socket close) runs before the exception continues.
    """
    import asyncio

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
    import asyncio

    pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
    if not pending:
        return
    for task in pending:
        task.cancel()
    loop.run_until_complete(
        asyncio.gather(*pending, return_exceptions=True))
