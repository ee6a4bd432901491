"""The streaming telemetry bus: publish/subscribe over event dicts.

PR 1's telemetry was post-hoc: events landed in a JSONL file and were
only readable after the session.  The :class:`EventBus` makes the same
event stream *live*: it is itself a :class:`~repro.telemetry.sinks.Sink`
(so a :class:`~repro.telemetry.tracer.Telemetry` session plugs straight
into it), and it fans every event out to any number of subscribers —
the JSONL file sink, the live console, the metrics server, or tests.

Backpressure contract
---------------------
Publishing NEVER blocks the hot path.  Each subscription owns a bounded
FIFO queue; when a subscriber falls behind and its queue fills, new
events for that subscriber are *dropped and counted*
(:attr:`Subscription.dropped`, summed as :attr:`EventBus.events_dropped`)
instead of stalling the checker.  :meth:`Telemetry.close
<repro.telemetry.tracer.Telemetry.close>` surfaces a nonzero drop count
as an ``events_dropped`` event and counter, so a lossy recording is
always visibly lossy.

Delivery
--------
Push subscribers (those registered with a sink) are serviced by one
daemon pump thread per bus: the pump drains each queue in FIFO order
and calls ``sink.emit`` outside the bus lock, so a slow sink delays
only itself.  Pull subscribers (``sink=None``) call
:meth:`Subscription.drain` whenever they want the backlog — the live
console's render loop does.  All subscribers observe events in publish
order.

``close()`` drains every queue synchronously, stops the pump, and
closes the sinks subscribed with ``close_with_bus=True`` — so a bus
feeding a :class:`~repro.telemetry.sinks.JsonlSink` produces exactly
the file a directly-wired sink would have (same events, same order).
"""

from __future__ import annotations

import threading
from collections import deque

from repro.core import failpoints
from repro.telemetry.sinks import Sink

#: Default per-subscriber queue bound.  Generous: a whole 30-run check
#: session emits a few hundred events; dropping starts only when a
#: subscriber is three orders of magnitude behind.
DEFAULT_QUEUE = 65536


class Subscription:
    """One subscriber's view of the bus: a bounded FIFO plus accounting."""

    __slots__ = ("name", "sink", "maxlen", "dropped", "delivered", "_queue")

    def __init__(self, name: str, sink: Sink | None, maxlen: int):
        self.name = name
        self.sink = sink
        self.maxlen = maxlen
        self.dropped = 0    # events discarded because the queue was full
        self.delivered = 0  # events handed to the sink / drained
        self._queue: deque = deque()

    def _offer(self, event: dict) -> bool:
        """Enqueue under the bus lock; count a drop when full."""
        if len(self._queue) >= self.maxlen:
            self.dropped += 1
            return False
        self._queue.append(event)
        return True

    def drain(self) -> list[dict]:
        """Pop and return the whole backlog (pull-mode consumers).

        ``deque.popleft`` is atomic, so draining is safe against a
        concurrent publisher without taking the bus lock.
        """
        batch = []
        queue = self._queue
        while True:
            try:
                batch.append(queue.popleft())
            except IndexError:
                break
        self.delivered += len(batch)
        return batch

    @property
    def pending(self) -> int:
        """Events enqueued but not yet delivered."""
        return len(self._queue)


class EventBus(Sink):
    """Thread-safe fan-out of telemetry events to bounded subscribers."""

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._subs: list[Subscription] = []
        self._owned: list[Sink] = []
        self._wake = threading.Event()
        self._pump: threading.Thread | None = None
        self._closed = False
        self._published = 0

    # -- subscribing --------------------------------------------------------------

    def subscribe(self, sink: Sink | None = None, *, maxlen: int = DEFAULT_QUEUE,
                  name: str | None = None,
                  close_with_bus: bool = False) -> Subscription:
        """Register a subscriber and return its :class:`Subscription`.

        With *sink*, the pump thread pushes events into ``sink.emit``;
        without one, the caller pulls via :meth:`Subscription.drain`.
        *close_with_bus* hands the sink's lifetime to :meth:`close`.
        """
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        sub = Subscription(name or (type(sink).__name__ if sink is not None
                                    else f"pull-{len(self._subs)}"),
                           sink, maxlen)
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot subscribe to a closed EventBus")
            self._subs.append(sub)
            if close_with_bus and sink is not None:
                self._owned.append(sink)
            start_pump = sink is not None and self._pump is None
            if start_pump:
                self._pump = threading.Thread(
                    target=self._pump_loop, name="repro-telemetry-bus",
                    daemon=True)
        if start_pump:
            self._pump.start()
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Remove a subscriber; its undelivered backlog is discarded."""
        with self._lock:
            if sub in self._subs:
                self._subs.remove(sub)

    # -- publishing (the Sink interface) ------------------------------------------

    def emit(self, event: dict) -> None:
        """Publish one event to every subscriber.  Never blocks."""
        with self._lock:
            if self._closed:
                return
            self._published += 1
            if failpoints.ENABLED and failpoints.fire(
                    "telemetry.bus.publish") is not None:
                # Chaos drop: the event vanishes at the bus exactly as a
                # saturated queue would lose it — counted per subscriber
                # so the lossy recording stays visibly lossy.
                for sub in self._subs:
                    sub.dropped += 1
                return
            for sub in self._subs:
                sub._offer(event)
        self._wake.set()

    # -- delivery -----------------------------------------------------------------

    def _take_batches(self) -> list[tuple[Subscription, list]]:
        """Snatch every push subscriber's backlog under the lock."""
        batches = []
        with self._lock:
            for sub in self._subs:
                if sub.sink is not None and sub._queue:
                    batch = list(sub._queue)
                    sub._queue.clear()
                    batches.append((sub, batch))
        return batches

    def _deliver(self, batches) -> None:
        """Feed drained batches to their sinks, outside the lock."""
        for sub, batch in batches:
            for i, event in enumerate(batch):
                try:
                    sub.sink.emit(event)
                except Exception:
                    # A broken subscriber must never kill the pump (or
                    # the session it observes); count the loss instead.
                    sub.dropped += len(batch) - i
                    break
                sub.delivered += 1

    def _pump_loop(self) -> None:
        while True:
            self._wake.wait(timeout=0.05)
            self._wake.clear()
            self._deliver(self._take_batches())
            with self._lock:
                if self._closed and not any(
                        s._queue for s in self._subs if s.sink is not None):
                    return

    def flush(self) -> None:
        """Synchronously deliver everything currently queued."""
        self._deliver(self._take_batches())

    # -- accounting ---------------------------------------------------------------

    @property
    def events_dropped(self) -> int:
        """Total events discarded across all subscribers so far."""
        with self._lock:
            return sum(sub.dropped for sub in self._subs)

    @property
    def events_published(self) -> int:
        return self._published

    def subscriptions(self) -> list[Subscription]:
        with self._lock:
            return list(self._subs)

    # -- shutdown -----------------------------------------------------------------

    def close(self) -> None:
        """Drain every queue, stop the pump, close owned sinks."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._wake.set()
        if self._pump is not None:
            self._pump.join(timeout=5.0)
        # The pump exited (or never ran); whatever is still queued is
        # drained here so close() is a hard delivery barrier.
        self._deliver(self._take_batches())
        for sink in self._owned:
            sink.close()
