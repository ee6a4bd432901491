"""Named, seeded, deterministic fault-injection points (failpoints).

The robustness work of PR 2–6 hardened the checker's infrastructure —
journal, process pool, telemetry plane, budgets — against faults that,
until now, only ad-hoc tests could provoke.  This module makes those
faults *first-class and reproducible*: a failpoint is a named site in
the production code (``journal.append.fsync``, ``worker.run.before``,
``clock.budget``, ...) where a configured fault fires deterministically
under a seed.  The ``repro chaos`` driver (:mod:`repro.core.chaos`)
composes failpoints into whole fault schedules and asserts the
degradation contract documented in docs/robustness.md.

Activation
----------
Failpoints are **off by default and zero-cost when off**: every
instrumented site guards with ``if failpoints.ENABLED:`` — one module
attribute read on the hot path, no event construction, no RNG draw.
They turn on either programmatically::

    plan = FailpointPlan.parse("journal.append.fsync=enospc@at:2")
    failpoints.activate(plan)
    ...
    failpoints.deactivate()

or through the environment (the chaos driver's channel, inherited by
forked pool workers)::

    REPRO_FAILPOINTS="worker.run.before=kill@at:2;clock.budget=skew:3600"

Spec grammar
------------
One or more entries separated by ``;``::

    site=action[:param][@trigger[:arg]][#seed]

* *site* — a name from :data:`CATALOG` (unknown sites are a
  configuration error, so typos cannot silently disarm a schedule).
* *action* — what happens when the point fires:

  - ``raise``  — raise ``OSError(EIO)`` at the site;
  - ``enospc`` — raise ``OSError(ENOSPC)`` (disk full);
  - ``torn``   — site-specific partial write; *param* is the byte
    offset at which the record is torn (journal sites);
  - ``kill``   — ``os._exit(86)``: the hard worker-death analog;
  - ``sleep``  — delay *param* seconds (slow worker / slow scrape);
  - ``drop``   — site-specific discard (bus saturation);
  - ``skew``   — site-specific clock skew of *param* seconds.

* *trigger* — when it fires, counted per process in site *hits*:

  - ``always`` (default), ``once`` (= ``at:1``), ``at:N`` (the Nth hit
    only), ``every:N`` (every Nth hit), ``prob:P`` (each hit fires with
    probability *P* from a deterministic per-site RNG).

* *seed* — the RNG seed for ``prob`` triggers; two processes parsing
  the same spec draw the same decision sequence.

``fire(site)`` executes ``raise``/``enospc``/``kill`` itself and
returns the :class:`Failpoint` for actions the site must interpret
(``torn``/``drop``/``skew``/``sleep`` — sleep has already slept).
"""

from __future__ import annotations

import errno
import os
import random
import sys
import time
import zlib
from dataclasses import dataclass, field

from repro.errors import CheckerError

#: Environment variable holding the active failpoint spec.
ENV_VAR = "REPRO_FAILPOINTS"
#: When set (to anything non-empty), every fire prints one stderr line —
#: the chaos driver's evidence that a schedule actually exercised its
#: fault, not just survived a no-op.
LOG_ENV_VAR = "REPRO_FAILPOINTS_LOG"

#: The exit status of a ``kill`` action — distinctive in waitpid output.
KILL_EXIT_CODE = 86

#: Failpoint catalog: site name -> (allowed actions, description).
#: Instrumented sites live in the modules named by the description; the
#: parser rejects sites not listed here and actions a site cannot
#: interpret, so a chaos schedule can never silently no-op on a typo.
CATALOG: dict = {
    "journal.append.write": (
        ("raise", "enospc", "torn"),
        "campaign journal record write (journal.py, os.write)"),
    "journal.append.fsync": (
        ("raise", "enospc"),
        "campaign journal durability fsync (journal.py)"),
    "worker.run.before": (
        ("kill", "sleep"),
        "pool worker, before executing one scheduled run (tasks.py)"),
    "worker.run.after": (
        ("kill", "sleep"),
        "pool worker, after executing one scheduled run (tasks.py)"),
    "worker.input.before": (
        ("kill", "sleep"),
        "campaign pool worker, before checking one input (tasks.py)"),
    "worker.input.after": (
        ("kill", "sleep"),
        "campaign pool worker, after checking one input (tasks.py)"),
    "telemetry.sink.emit": (
        ("raise",),
        "JSONL telemetry sink write (sinks.py)"),
    "telemetry.bus.publish": (
        ("drop",),
        "event-bus publish: simulated subscriber-queue saturation (bus.py)"),
    "telemetry.metrics.render": (
        ("raise", "sleep"),
        "/metrics render during a scrape (http.py)"),
    "clock.budget": (
        ("skew",),
        "budget/deadline monotonic clock reads (policies.py)"),
}

#: Trigger kinds the parser accepts.
TRIGGERS = ("always", "once", "at", "every", "prob")

#: Fast-path flag read by every instrumented site.  False means no plan
#: is active and ``fire`` must not be called — the zero-cost contract.
ENABLED = False

_PLAN: "FailpointPlan | None" = None


@dataclass
class Failpoint:
    """One armed fault: a site, an action, and a firing rule."""

    site: str
    action: str
    param: float | None = None
    trigger: str = "always"
    trigger_arg: float | None = None
    seed: int = 0
    hits: int = 0
    fires: int = 0
    _rng: random.Random | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.site not in CATALOG:
            known = ", ".join(sorted(CATALOG))
            raise CheckerError(
                f"unknown failpoint site {self.site!r}; catalog: {known}")
        allowed, _ = CATALOG[self.site]
        if self.action not in allowed:
            raise CheckerError(
                f"failpoint {self.site!r} does not support action "
                f"{self.action!r}; allowed: {allowed}")
        if self.trigger not in TRIGGERS:
            raise CheckerError(
                f"unknown failpoint trigger {self.trigger!r}; "
                f"expected one of {TRIGGERS}")
        if self.trigger in ("at", "every"):
            if not self.trigger_arg or self.trigger_arg < 1:
                raise CheckerError(
                    f"failpoint trigger {self.trigger!r} needs a positive "
                    f"integer argument (got {self.trigger_arg!r})")
        if self.trigger == "prob":
            if self.trigger_arg is None or not 0 < self.trigger_arg <= 1:
                raise CheckerError(
                    f"failpoint trigger 'prob' needs an argument in (0, 1] "
                    f"(got {self.trigger_arg!r})")
        if self.action in ("torn", "sleep", "skew") and self.param is None:
            raise CheckerError(
                f"failpoint action {self.action!r} needs a parameter "
                f"({self.site}={self.action}:<value>)")
        # Deterministic per-site stream: the same spec parsed in any
        # process (parent, forked worker, chaos subprocess) draws the
        # same decisions in the same hit order.
        self._rng = random.Random(self.seed ^ zlib.crc32(self.site.encode()))

    def should_fire(self) -> bool:
        """Count one hit of this site and decide whether it fires."""
        self.hits += 1
        if self.trigger == "always":
            fired = True
        elif self.trigger == "once":
            fired = self.hits == 1
        elif self.trigger == "at":
            fired = self.hits == int(self.trigger_arg)
        elif self.trigger == "every":
            fired = self.hits % int(self.trigger_arg) == 0
        else:  # prob
            fired = self._rng.random() < self.trigger_arg
        if fired:
            self.fires += 1
        return fired

    def spec(self) -> str:
        """Re-serialize to the parse grammar (env-var handoff)."""
        out = f"{self.site}={self.action}"
        if self.param is not None:
            out += f":{self.param:g}"
        if self.trigger != "always":
            out += f"@{self.trigger}"
            if self.trigger_arg is not None:
                arg = self.trigger_arg
                out += f":{int(arg) if self.trigger in ('at', 'every') else arg:g}"
        if self.seed:
            out += f"#{self.seed}"
        return out


class FailpointPlan:
    """A set of armed failpoints, at most one per site."""

    def __init__(self, points):
        self.points: dict = {}
        for point in points:
            if point.site in self.points:
                raise CheckerError(
                    f"failpoint site {point.site!r} configured twice")
            self.points[point.site] = point

    @classmethod
    def parse(cls, spec: str) -> "FailpointPlan":
        """Parse the ``REPRO_FAILPOINTS`` grammar into a plan."""
        points = []
        for entry in spec.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            site, sep, rest = entry.partition("=")
            if not sep or not rest:
                raise CheckerError(
                    f"bad failpoint entry {entry!r}: expected "
                    f"site=action[:param][@trigger[:arg]][#seed]")
            seed = 0
            if "#" in rest:
                rest, _, seed_raw = rest.rpartition("#")
                try:
                    seed = int(seed_raw)
                except ValueError:
                    raise CheckerError(
                        f"bad failpoint seed {seed_raw!r} in {entry!r}"
                        ) from None
            action_part, _, trigger_part = rest.partition("@")
            action, _, param_raw = action_part.partition(":")
            param = None
            if param_raw:
                try:
                    param = float(param_raw)
                except ValueError:
                    raise CheckerError(
                        f"bad failpoint parameter {param_raw!r} in {entry!r}"
                        ) from None
            trigger, trigger_arg = "always", None
            if trigger_part:
                trigger, _, arg_raw = trigger_part.partition(":")
                if arg_raw:
                    try:
                        trigger_arg = float(arg_raw)
                    except ValueError:
                        raise CheckerError(
                            f"bad failpoint trigger argument {arg_raw!r} "
                            f"in {entry!r}") from None
            points.append(Failpoint(site=site.strip(), action=action,
                                    param=param, trigger=trigger,
                                    trigger_arg=trigger_arg, seed=seed))
        if not points:
            raise CheckerError(f"empty failpoint spec {spec!r}")
        return cls(points)

    def spec(self) -> str:
        """The whole plan in the parse grammar."""
        return ";".join(p.spec() for p in self.points.values())

    def snapshot(self) -> dict:
        """Per-site hit/fire counts (tests, chaos evidence)."""
        return {site: {"hits": p.hits, "fires": p.fires}
                for site, p in self.points.items()}


def activate(plan: FailpointPlan) -> FailpointPlan:
    """Arm *plan* process-wide; replaces any previously active plan."""
    global _PLAN, ENABLED
    _PLAN = plan
    ENABLED = True
    return plan


def deactivate() -> None:
    """Disarm all failpoints (back to the zero-cost default)."""
    global _PLAN, ENABLED
    _PLAN = None
    ENABLED = False


def active_plan() -> FailpointPlan | None:
    return _PLAN


def install_from_env(environ=None) -> FailpointPlan | None:
    """Arm the plan named by ``REPRO_FAILPOINTS``, if any.

    Called at import time (below), so any process — the CLI, a chaos
    subprocess, a spawn-started pool worker — that imports :mod:`repro`
    with the variable set is armed before it does any work.  Forked
    workers simply inherit the parent's armed module state.
    """
    environ = environ if environ is not None else os.environ
    spec = environ.get(ENV_VAR)
    if not spec:
        return None
    return activate(FailpointPlan.parse(spec))


def fire(site: str):
    """Evaluate the failpoint at *site*; execute or return its action.

    Returns None when no fault fires.  ``raise``/``enospc`` raise
    ``OSError`` here; ``kill`` exits the process; ``sleep`` sleeps and
    returns the point.  ``torn``/``drop``/``skew`` return the armed
    :class:`Failpoint` for the site to interpret.
    """
    plan = _PLAN
    if plan is None:
        return None
    point = plan.points.get(site)
    if point is None or not point.should_fire():
        return None
    if os.environ.get(LOG_ENV_VAR):
        print(f"repro: failpoint fired: {site} {point.action} "
              f"(hit {point.hits}, pid {os.getpid()})",
              file=sys.stderr, flush=True)
    if point.action == "raise":
        raise OSError(errno.EIO, f"failpoint {site}: injected I/O error")
    if point.action == "enospc":
        raise OSError(errno.ENOSPC,
                      f"failpoint {site}: injected out-of-space error")
    if point.action == "kill":
        os._exit(KILL_EXIT_CODE)
    if point.action == "sleep":
        time.sleep(float(point.param or 0.0))
    return point


# Arm from the environment on first import: the chaos driver's channel
# into its subprocesses (and their spawn-started workers).
install_from_env()
