"""Serializing thread schedulers.

The paper evaluates InstantCheck "using a testing technique which
serializes thread execution, i.e., a thread scheduler runs one thread at
a time and switches between threads at synchronizations", with the next
thread chosen randomly (Section 7.1) — the approach of PCT and CHESS.
The scheduler is explicitly *not* part of InstantCheck; it stands in for
whatever testing tool the programmer already uses.  Accordingly the
schedulers here are pluggable:

* :class:`RandomScheduler` — the paper's: pick uniformly at random among
  runnable threads at every switch point.
* :class:`PctScheduler` — PCT-style random thread priorities with a few
  random priority-change points.
* :class:`RoundRobinScheduler` — deterministic baseline (useful to get a
  reference run and in tests).

``granularity`` selects the switch points: ``"sync"`` switches only at
synchronization operations (the paper's setting); ``"access"`` may switch
at every memory access (finer-grained race exposure, used by ablations).
"""

from __future__ import annotations

import random

from repro.core.registry import Registry
from repro.errors import SchedulerError
from repro.sim.context import SWITCH_POINTS

GRANULARITIES = ("sync", "access")

#: Schedulers by configuration name (``CheckConfig.scheduler``).
#: Lookups raise :class:`~repro.errors.SchedulerError`, which retry
#: policies already classify as a scheduling failure.
SCHEDULERS = Registry("schedulers", error=SchedulerError)


class Scheduler:
    """Interface: choose the next thread to run."""

    def __init__(self, granularity: str = "sync"):
        if granularity not in GRANULARITIES:
            raise SchedulerError(
                f"unknown granularity {granularity!r}; available: "
                f"{sorted(GRANULARITIES)}")
        self.granularity = granularity

    def begin_run(self, seed: int) -> None:
        """Reset internal state for a new run with the given seed."""

    def is_switch_point(self, op_kind: str | None) -> bool:
        """May the scheduler switch away after an op of this kind?

        This is the definition of a switch point.  The runtime's step
        loop makes the same test inline, from ``granularity`` and
        ``SWITCH_POINTS``; overriding this method does not change it.
        """
        if self.granularity == "access":
            return True
        return op_kind is None or op_kind in SWITCH_POINTS

    def pick(self, runnable: list, current: int | None, at_switch_point: bool) -> int:
        """Choose the next tid from *runnable* (non-empty, sorted).

        *current* is the thread that ran last (None at the start of a
        phase); *at_switch_point* says whether switching away from it
        is allowed.  The default policy keeps running *current* until a
        switch point, then delegates to :meth:`choose`.  The runtime
        relies on that policy: it continues *current* mid-block without
        calling ``pick`` at all, so it asks only at switch points or
        once *current* blocks.
        """
        if current is not None and not at_switch_point and current in runnable:
            return current
        return self.choose(runnable, current)

    def choose(self, runnable: list, current: int | None) -> int:
        raise NotImplementedError


@SCHEDULERS.register("random")
class RandomScheduler(Scheduler):
    """Uniform random choice at every switch point (the paper's setup)."""

    def __init__(self, granularity: str = "sync"):
        super().__init__(granularity)
        self._rng = random.Random(0)

    def begin_run(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def choose(self, runnable: list, current: int | None) -> int:
        return runnable[self._rng.randrange(len(runnable))]


@SCHEDULERS.register("round_robin")
class RoundRobinScheduler(Scheduler):
    """Cycle through runnable threads in tid order; seed-independent."""

    def __init__(self, granularity: str = "sync"):
        super().__init__(granularity)
        self._last = -1

    def begin_run(self, seed: int) -> None:
        self._last = -1

    def choose(self, runnable: list, current: int | None) -> int:
        for tid in runnable:
            if tid > self._last:
                self._last = tid
                return tid
        self._last = runnable[0]
        return self._last


@SCHEDULERS.register("pct")
class PctScheduler(Scheduler):
    """PCT-style scheduling: random priorities plus d-1 change points.

    Always runs the runnable thread with the highest priority; at a few
    randomly chosen scheduling steps a thread's priority is demoted,
    which probabilistically exposes ordering bugs of low depth.
    """

    def __init__(self, granularity: str = "sync", depth: int = 3,
                 horizon: int = 10_000):
        super().__init__(granularity)
        self.depth = depth
        self.horizon = horizon
        self._rng = random.Random(0)
        self._priorities: dict[int, float] = {}
        self._step = 0
        self._change_points: set[int] = set()

    def begin_run(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._priorities = {}
        self._step = 0
        self._change_points = {
            self._rng.randrange(self.horizon) for _ in range(max(0, self.depth - 1))
        }

    def _priority(self, tid: int) -> float:
        if tid not in self._priorities:
            self._priorities[tid] = self._rng.random()
        return self._priorities[tid]

    def choose(self, runnable: list, current: int | None) -> int:
        self._step += 1
        chosen = max(runnable, key=self._priority)
        if self._step in self._change_points:
            # Demote the chosen thread below everyone else.
            self._priorities[chosen] = -self._rng.random()
            chosen = max(runnable, key=self._priority)
        return chosen


class DecisionScheduler(Scheduler):
    """Replays an explicit decision vector; the exhaustive explorer's tool.

    At its k-th choice point the scheduler picks
    ``runnable[decisions[k]]``; past the end of the vector it picks index
    0.  It records the branching factor at every choice point in
    :attr:`choice_counts` and the indices actually taken in
    :attr:`taken`, which is exactly what a depth-first enumeration of
    interleavings needs to backtrack.
    """

    def __init__(self, decisions=(), granularity: str = "sync"):
        super().__init__(granularity)
        self.decisions = list(decisions)
        self.choice_counts: list[int] = []
        self.taken: list[int] = []

    def begin_run(self, seed: int) -> None:
        self.choice_counts = []
        self.taken = []

    def choose(self, runnable: list, current: int | None) -> int:
        position = len(self.taken)
        index = self.decisions[position] if position < len(self.decisions) else 0
        index = min(index, len(runnable) - 1)
        self.choice_counts.append(len(runnable))
        self.taken.append(index)
        return runnable[index]


class GuidedScheduler(Scheduler):
    """Random scheduling constrained by a partial log of decisions.

    Used by the deterministic-replay search (Section 6.3): at choice
    points present in *constraints* the logged thread is forced (when
    runnable); everywhere else the choice is random.  ``violations``
    counts logged decisions that could not be honored — an early sign
    that the candidate replay does not obey the log.
    """

    def __init__(self, constraints: dict, granularity: str = "sync"):
        super().__init__(granularity)
        self.constraints = dict(constraints)
        self._rng = random.Random(0)
        self._position = 0
        self.violations = 0

    def begin_run(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._position = 0
        self.violations = 0

    def choose(self, runnable: list, current: int | None) -> int:
        position = self._position
        self._position += 1
        wanted = self.constraints.get(position)
        if wanted is not None:
            if wanted in runnable:
                return wanted
            self.violations += 1
        return runnable[self._rng.randrange(len(runnable))]


def make_scheduler(name: str = "random", granularity: str = "sync", **kwargs) -> Scheduler:
    """Factory used by the checker configuration.

    Unknown names raise :class:`~repro.errors.SchedulerError` through
    the registry's wording (with its typo suggestion), like every other
    component family.
    """
    return SCHEDULERS.get(name)(granularity, **kwargs)


# The systematic DPOR scheduler lives in its own module; importing it
# here registers it, so resolving the "schedulers" registry (whose home
# module is this one) always sees the complete family.
from repro.sim import dpor as _dpor  # noqa: E402,F401  (registration import)
