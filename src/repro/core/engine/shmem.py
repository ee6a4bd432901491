"""Shared-memory checkpoint-hash exchange: mid-run divergence cancel.

The pickle channel of :class:`~repro.core.engine.executors.
ProcessPoolRunExecutor` only reports a run when it *finishes*, so a
``stop_on_first`` session keeps paying for doomed runs long after their
hash prefix has diverged — cancellation is run-granular.  This module
makes it *checkpoint*-granular: workers publish each checkpoint hash
into a ``multiprocessing.shared_memory`` block the moment it is taken,
the parent folds those prefixes on the fly, and a diverged run is told
to stop at its very next checkpoint.

Layout — one fixed-width *lane* of u64 words per worker process::

    lane := [ seq | run | count | cancel | slot[0] .. slot[slots-1] ]

    seq     seqlock generation: odd while the worker mutates the lane,
            even once the mutation is published.  A reader that sees an
            odd seq, or a different seq after reading, discards the
            snapshot (the torn-read guard).
    run     1 + the run index the lane currently carries; 0 = idle.
    count   checkpoints published so far for that run.  The slot ring
            keeps the last *slots* of them; older positions age out
            (the prefix judge has already consumed them).
    cancel  written by the parent only: 1 + the run index being told
            to stop.  Carrying the run index (not a bare flag) makes a
            stale flag from a previous occupant self-ignoring.
    slot[i] ``slot_value(label, hash)`` of checkpoint ``count'`` where
            ``count' % slots == i`` — a u64 mix of the checkpoint's
            label and its (adjusted, first-scheme) hash.

Write protocol (single writer per lane, the worker)::

    seq += 1                      # odd: mutating
    slot[count % slots] = value
    count += 1
    seq += 1                      # even: published

Cancel protocol: the parent's :class:`PrefixJudge` compares each lane's
published prefix against the reference run's slots.  A mismatched
position — or more checkpoints than the reference has — proves the
run's final record would diverge (slots are a pure function of the
fields :func:`~repro.core.engine.judge.record_key` compares), so under
``stop_on_first`` the executor raises the lane's cancel flag and the
worker raises :class:`MidRunCancelled` at its next checkpoint.

Bit-identity with the serial backend is preserved by *reconciliation*:
a mid-run cancellation is speculative until some run at or below the
divergence floor actually completes with a divergent record (pinning
the judge's truncation cutoff at or below the floor, which truncates
every cancelled run away).  If the premise breaks instead — the
diverging run crashes, or a retry attempt replaces the diverged prefix
with a clean record — every speculatively cancelled run is resubmitted,
so the folded records are exactly the serial set.  Slot-hash collisions
can only *hide* a divergence (missed cancellation, slower, still
correct), never invent one.
"""

from __future__ import annotations

import os
import zlib
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import shared_memory

from repro.core import failpoints
from repro.core.engine.executors import (CRASHED, EXECUTORS,
                                         ProcessPoolRunExecutor,
                                         _worker_init, note_worker_progress,
                                         session_run_worker,
                                         telemetry_payload)
from repro.core.engine.heartbeat import _env_float

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
#: Published in place of a checkpoint whose scheme produced no hash.
_NONE_HASH = 0xD1B54A32D192ED03

# Lane header word offsets (see the module docstring).
_SEQ, _RUN, _COUNT, _CANCEL = 0, 1, 2, 3
_HEADER_WORDS = 4

#: Per-lane slot-ring capacity; runs with more checkpoints wrap (the
#: judge consumes prefixes incrementally, so aged-out slots are spent).
DEFAULT_SLOTS = 512


#: Parent poll cadence while futures are in flight
#: (env: REPRO_SHMEM_POLL_S).  Each poll is one pass over the lanes.
POLL_INTERVAL_S = _env_float("REPRO_SHMEM_POLL_S", 0.01)


_label_salt_cache: dict = {}


def slot_value(label: str, hash_: int | None) -> int:
    """The u64 a worker publishes for one checkpoint.

    A pure function of exactly the per-checkpoint fields
    :func:`~repro.core.engine.judge.record_key` compares (label and
    first-scheme adjusted hash), so two equal prefixes publish equal
    slots and a slot mismatch proves a record-key mismatch.
    """
    salt = _label_salt_cache.get(label)
    if salt is None:
        crc = zlib.crc32(label.encode("utf-8", "backslashreplace"))
        salt = ((crc + 1) * _GOLDEN) & MASK64
        _label_salt_cache[label] = salt
    h = _NONE_HASH if hash_ is None else hash_ & MASK64
    value = ((h ^ salt) * _GOLDEN) & MASK64
    return (value ^ (value >> 29)) & MASK64


def slots_for_record(record) -> tuple:
    """The reference slot sequence of a completed run record."""
    return tuple(slot_value(c.label, c.hash) for c in record.checkpoints)


@dataclass(frozen=True)
class RingLayout:
    """Geometry of the shared block: *n_lanes* lanes of *slots* slots."""

    n_lanes: int
    slots: int = DEFAULT_SLOTS

    @property
    def lane_words(self) -> int:
        return _HEADER_WORDS + self.slots

    @property
    def nbytes(self) -> int:
        return self.n_lanes * self.lane_words * 8

    def lane_base(self, lane: int) -> int:
        return lane * self.lane_words


#: One consistent (seqlock-validated) view of a lane: the run it
#: carries, how many checkpoints it has published, and the still-ringed
#: window ``values[pos - lo]`` for positions ``lo <= pos < count``.
LaneSnapshot = namedtuple("LaneSnapshot", "run count lo values")


class CheckpointExchange:
    """Parent-owned shared-memory block of checkpoint lanes."""

    def __init__(self, layout: RingLayout):
        self.layout = layout
        self.shm = shared_memory.SharedMemory(create=True,
                                              size=layout.nbytes)
        self.words = self.shm.buf.cast("Q")

    @property
    def name(self) -> str:
        return self.shm.name

    def read_lane(self, lane: int) -> LaneSnapshot | None:
        """One seqlock-guarded snapshot; None if idle or torn."""
        words = self.words
        base = self.layout.lane_base(lane)
        seq = words[base + _SEQ]
        if seq & 1:
            return None  # writer mid-publish
        run_word = words[base + _RUN]
        count = words[base + _COUNT]
        if run_word == 0:
            return None  # idle lane
        slots = self.layout.slots
        lo = count - slots if count > slots else 0
        values = tuple(words[base + _HEADER_WORDS + pos % slots]
                       for pos in range(lo, count))
        if words[base + _SEQ] != seq:
            return None  # torn: the writer published underneath us
        return LaneSnapshot(run=run_word - 1, count=count, lo=lo,
                            values=values)

    def cancel_run(self, lane: int, run_index: int) -> None:
        """Tell *run_index* (if still on *lane*) to stop at its next
        checkpoint.  The flag carries the run, so a stale flag left for
        a previous occupant never cancels the wrong run."""
        base = self.layout.lane_base(lane)
        self.words[base + _CANCEL] = run_index + 1

    def clear_cancel(self, run_index: int) -> None:
        """Withdraw any cancel flag targeting *run_index* (resubmit)."""
        for lane in range(self.layout.n_lanes):
            base = self.layout.lane_base(lane)
            if self.words[base + _CANCEL] == run_index + 1:
                self.words[base + _CANCEL] = 0

    def close(self) -> None:
        if self.shm is None:
            return
        self.words.release()
        self.words = None
        self.shm.close()
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double close
            pass
        self.shm = None


class LaneWriter:
    """Worker-side single-writer view of one lane."""

    def __init__(self, words, layout: RingLayout, lane: int):
        self.words = words
        self.base = layout.lane_base(lane)
        self.slots = layout.slots

    def begin_run(self, run_index: int) -> None:
        words, base = self.words, self.base
        words[base + _SEQ] = (words[base + _SEQ] + 1) & MASK64
        words[base + _RUN] = run_index + 1
        words[base + _COUNT] = 0
        words[base + _SEQ] = (words[base + _SEQ] + 1) & MASK64

    def publish(self, value: int) -> None:
        words, base = self.words, self.base
        count = words[base + _COUNT]
        words[base + _SEQ] = (words[base + _SEQ] + 1) & MASK64
        words[base + _HEADER_WORDS + count % self.slots] = value & MASK64
        words[base + _COUNT] = count + 1
        words[base + _SEQ] = (words[base + _SEQ] + 1) & MASK64

    def cancelled(self, run_index: int) -> bool:
        return self.words[self.base + _CANCEL] == run_index + 1

    def end_run(self) -> None:
        words, base = self.words, self.base
        words[base + _SEQ] = (words[base + _SEQ] + 1) & MASK64
        words[base + _RUN] = 0
        words[base + _SEQ] = (words[base + _SEQ] + 1) & MASK64


class PrefixJudge:
    """Fold lane snapshots into per-run prefix-divergence state.

    Compares each run's published slots against the reference run's;
    :attr:`diverged` maps a run index to the first divergent position.
    A snapshot whose count went *backwards* means the worker restarted
    the run (a retry attempt) — the old prefix, including any
    divergence it showed, is discarded.
    """

    def __init__(self, reference_slots=()):
        self.reference = tuple(reference_slots)
        self.progress: dict = {}   # run index -> checkpoints consumed
        self.diverged: dict = {}   # run index -> first divergent position
        self.streamed = 0          # checkpoints consumed, total

    def observe(self, snap: LaneSnapshot) -> bool:
        """Fold one snapshot; True if the run is *newly* diverged."""
        run, count = snap.run, snap.count
        prev = self.progress.get(run, 0)
        if count < prev:
            self.reset_run(run)
            prev = 0
        if count <= prev:
            return False
        self.streamed += count - prev
        self.progress[run] = count
        if run in self.diverged:
            return False
        reference = self.reference
        for pos in range(max(prev, snap.lo), count):
            if (pos >= len(reference)
                    or snap.values[pos - snap.lo] != reference[pos]):
                self.diverged[run] = pos
                return True
        return False

    def reset_run(self, run: int) -> None:
        self.progress.pop(run, None)
        self.diverged.pop(run, None)


class MidRunCancelled(Exception):
    """Raised inside a worker's run when its cancel flag is up.

    Deliberately *not* a :class:`~repro.errors.ReproError`: the retry
    machinery in ``attempt_run`` must not record a cancellation as a
    run failure — it unwinds to the shmem task wrapper, which returns a
    cancellation marker instead of a record.
    """

    def __init__(self, checkpoints: int):
        super().__init__(f"run cancelled mid-run after "
                         f"{checkpoints} checkpoint(s)")
        self.checkpoints = checkpoints


# -- worker side --------------------------------------------------------------


@dataclass
class _WorkerLane:
    shm: shared_memory.SharedMemory
    words: memoryview
    layout: RingLayout
    lane: int


#: This worker process's claimed lane (None: publishing disabled —
#: lane pool exhausted or the exchange could not be attached).
_WORKER_LANE: _WorkerLane | None = None


def _shmem_worker_init(shm_name, layout, lane_counter, heartbeat=None):
    """Pool initializer: base worker init, then attach + claim a lane.

    Every failure mode degrades to publishing disabled — the worker
    then behaves exactly like a plain pickle-channel pool worker.
    """
    global _WORKER_LANE
    _worker_init(heartbeat)
    _WORKER_LANE = None
    try:
        shm = shared_memory.SharedMemory(name=shm_name)
    except (OSError, ValueError):  # pragma: no cover - parent raced away
        return
    # Attaching re-registers the segment with the resource tracker on
    # Python < 3.13, but pool workers share the parent's tracker
    # process (fork and spawn both hand down its fd), so the name is
    # already in its cache and the parent's unlink() unregisters it
    # exactly once.  Do NOT unregister here: with a shared tracker that
    # would strip the parent's registration out from under it.
    with lane_counter.get_lock():
        lane = lane_counter.value
        lane_counter.value += 1
    if lane >= layout.n_lanes:
        shm.close()  # pragma: no cover - lane pool exhausted
        return
    _WORKER_LANE = _WorkerLane(shm=shm, words=shm.buf.cast("Q"),
                               layout=layout, lane=lane)


class _CheckpointPublisher:
    """The runner's checkpoint hook: publish, then poll the flag.

    Publishing before polling means the checkpoint that *triggers* a
    cancellation is already visible to the parent, and a run killed at
    checkpoint k salvages a k-slot prefix.
    """

    def __init__(self, writer: LaneWriter, run_index: int):
        self.writer = writer
        self.run_index = run_index
        self.published = 0

    def __call__(self, record) -> None:
        if failpoints.ENABLED:
            failpoints.fire("worker.run.checkpoint")
        if record.index < self.published:
            # The run restarted from checkpoint 0: a retry attempt.
            # Re-begin the lane so the stale (possibly diverged) prefix
            # is withdrawn with it.
            self.writer.begin_run(self.run_index)
            self.published = 0
        self.writer.publish(slot_value(record.label, record.hash))
        self.published += 1
        if self.writer.cancelled(self.run_index):
            raise MidRunCancelled(self.published)


def shmem_session_run_worker(program, config, index, session_deadline,
                             malloc_log, libcall_log,
                             telemetry_on: bool) -> dict:
    """One scheduled run, publishing its checkpoint hashes as it goes.

    Wraps :func:`~repro.core.engine.executors.session_run_worker` with
    the lane protocol; without a claimed lane it *is* that function.  A
    mid-run cancellation returns a marker dict (``cancelled: True``)
    the parent counts but never folds into the judge.
    """
    lane = _WORKER_LANE
    if lane is None:
        return session_run_worker(program, config, index, session_deadline,
                                  malloc_log, libcall_log, telemetry_on)
    writer = LaneWriter(lane.words, lane.layout, lane.lane)
    publisher = _CheckpointPublisher(writer, index)
    writer.begin_run(index)
    try:
        return session_run_worker(program, config, index, session_deadline,
                                  malloc_log, libcall_log, telemetry_on,
                                  checkpoint_hook=publisher)
    except MidRunCancelled as exc:
        note_worker_progress(runs=1, checkpoints=exc.checkpoints)
        out = {"index": index, "pid": os.getpid(), "cancelled": True,
               "checkpoints": exc.checkpoints}
        out.update(telemetry_payload(None))
        return out
    finally:
        writer.end_run()


# -- parent side --------------------------------------------------------------


class ShmemPoolRunExecutor(ProcessPoolRunExecutor):
    """Process pool with the shared-memory prefix-cancel fast path.

    Identical streaming contract to the base pool; additionally, while
    futures are in flight the parent polls the exchange every
    :attr:`poll_interval_s`, folds published prefixes into a
    :class:`PrefixJudge`, and — when *cancel_enabled* — raises cancel
    flags for in-flight runs above the divergence floor and revokes
    unstarted ones.  Cancelled runs are reconciled before the stream
    ends (see the module docstring), so the folded record set matches
    the serial backend's exactly.
    """

    name = "process-pool-shmem"

    def __init__(self, n_workers: int, deadline=None, telemetry=None,
                 reference=None, cancel_enabled: bool = False,
                 slots: int = DEFAULT_SLOTS,
                 poll_interval_s: float | None = None, **kwargs):
        super().__init__(n_workers, deadline=deadline, telemetry=telemetry,
                         **kwargs)
        self.prefix = PrefixJudge(slots_for_record(reference)
                                  if reference is not None else ())
        self._cancel_enabled = bool(cancel_enabled) and reference is not None
        self.slots = slots
        self.poll_interval_s = (poll_interval_s if poll_interval_s is not None
                                else POLL_INTERVAL_S)
        self.exchange: CheckpointExchange | None = None
        self._lane_counter = None
        self.midrun_cancels = 0      # cancellation markers received
        self.salvage: dict = {}      # crashed run index -> prefix length
        self._resolved: set = set()     # indexes with a final value
        self._confirmed: set = set()    # prefix-diverged AND recorded
        self._speculative: set = set()  # cancelled, pending reconciliation
        self._dropped: set = set()      # cancelled and reconciled away
        self._hard_floor: int | None = None  # judge-certified divergence
        self._streamed_reported = 0

    # -- pool construction ---------------------------------------------------

    def _make_pool(self, ctx, n_tasks: int, initargs):
        if self.exchange is None:
            # Lanes outlive pool rebuilds: size for every worker any
            # recovery tier may spawn, plus slack for isolation pools.
            workers = max(1, min(self.n_workers, n_tasks))
            n_lanes = workers * (self.max_pool_rebuilds + 1) + 4
            self.exchange = CheckpointExchange(
                RingLayout(n_lanes=n_lanes, slots=self.slots))
            self._lane_counter = ctx.Value("l", 0)
        heartbeat = initargs[0] if initargs else None
        return ProcessPoolExecutor(
            max_workers=max(1, min(self.n_workers, n_tasks)),
            mp_context=ctx, initializer=_shmem_worker_init,
            initargs=(self.exchange.name, self.exchange.layout,
                      self._lane_counter, heartbeat))

    def stream(self, tasks: dict):
        try:
            yield from super().stream(tasks)
        finally:
            self._report_streamed()
            if self.exchange is not None:
                self.exchange.close()
                self.exchange = None

    # -- the polling hooks (called by the base stream loop) ------------------

    def _poll_interval_s(self) -> float | None:
        return self.poll_interval_s if self.exchange is not None else None

    def _sweep(self) -> list:
        if self.exchange is None:
            return []
        return [(lane, snap)
                for lane in range(self.exchange.layout.n_lanes)
                for snap in (self.exchange.read_lane(lane),)
                if snap is not None]

    def _on_wait_tick(self) -> None:
        snaps = self._sweep()
        if not snaps:
            return
        for _lane, snap in snaps:
            self.prefix.observe(snap)
        self._report_streamed()
        if not self._cancel_enabled:
            return
        floor = self._floor()
        if floor is None:
            return
        # Revoke unstarted runs above the floor (remembered: they are
        # resubmitted if reconciliation breaks the floor's premise).
        for future, index in list(self._pending.items()):
            if index > floor and future.cancel():
                del self._pending[future]
                self._speculative.add(index)
        # Flag in-flight runs above the floor; stale flags for resolved
        # runs are inert (the flag carries the run index).
        for lane, snap in snaps:
            if snap.run > floor and snap.run not in self._resolved:
                self.exchange.cancel_run(lane, snap.run)

    def _floor(self) -> int | None:
        """The lowest run index currently believed divergent.

        Prefix divergences count while unresolved (in flight) or once
        confirmed by a completed record; a diverged run that resolved
        *without* a record (crash, clean retry) no longer anchors
        cancellation.  A judge-certified divergence (a folded divergent
        record, via :meth:`cancel`) always counts.
        """
        candidates = [run for run in self.prefix.diverged
                      if run not in self._resolved
                      or run in self._confirmed]
        if self._hard_floor is not None:
            candidates.append(self._hard_floor)
        return min(candidates, default=None)

    def cancel(self, floor: int | None = None) -> None:
        if floor is not None:
            self._hard_floor = (floor if self._hard_floor is None
                                else min(self._hard_floor, floor))
        super().cancel(floor)
        if self._cancel_enabled and self._hard_floor is not None:
            for lane, snap in self._sweep():
                if (snap.run > self._hard_floor
                        and snap.run not in self._resolved):
                    self.exchange.cancel_run(lane, snap.run)

    def _note_result(self, index: int, value):
        if value is CRASHED:
            # Salvage the dead run's published prefix: one last sweep
            # (lanes survive their workers).  Every attempt at the run
            # left a lane, some cut short by a pool teardown: take the
            # deepest.  A kill mid-publish leaves the seqlock odd; the
            # last consistent poll still counts.
            depth = self.prefix.progress.get(index, 0)
            for _lane, snap in self._sweep():
                self.prefix.observe(snap)
                if snap.run == index:
                    depth = max(depth, snap.count)
            self.salvage[index] = depth
            self._resolved.add(index)
            return value
        if isinstance(value, dict) and value.get("cancelled"):
            self.midrun_cancels += 1
            self._speculative.add(index)
            return value
        self._resolved.add(index)
        if (index in self.prefix.diverged and isinstance(value, dict)
                and value.get("record") is not None):
            # The diverged prefix completed into a record: slots are a
            # pure function of the record key, so this record *will*
            # fold as divergent — the floor's premise is confirmed.
            self._confirmed.add(index)
        return value

    def _requeue_indexes(self):
        """Reconcile speculative cancellations once the pool drains.

        With a confirmed divergence at ``c``, every cancelled run above
        ``c`` is beyond any possible truncation cutoff — dropped for
        good.  Anything else was cancelled on a premise that broke, and
        must re-run for the verdict to stay bit-identical to serial.
        """
        if not self._speculative:
            return ()
        floors = [run for run in self._confirmed]
        if self._hard_floor is not None:
            floors.append(self._hard_floor)
        confirmed_floor = min(floors, default=None)
        if confirmed_floor is not None:
            dropped = {i for i in self._speculative if i > confirmed_floor}
            self._dropped |= dropped
            self._speculative -= dropped
        requeue = sorted(self._speculative)
        self._speculative.clear()
        for index in requeue:
            self.prefix.reset_run(index)
            if self.exchange is not None:
                self.exchange.clear_cancel(index)
        if requeue and self.telemetry is not None:
            self.telemetry.event("midrun_requeue", requeued=len(requeue))
        return requeue

    def salvaged_checkpoints(self, index: int) -> int:
        return self.salvage.get(index, 0)

    def _report_streamed(self) -> None:
        delta = self.prefix.streamed - self._streamed_reported
        if delta and self.telemetry is not None:
            self.telemetry.registry.counter("checkpoints_streamed").inc(delta)
        self._streamed_reported = self.prefix.streamed


EXECUTORS.register("process-pool-shmem", ShmemPoolRunExecutor)
