"""Run the ``repro`` CLI in this process, with the benchmark's probes.

Usage (``run.py`` builds this command line)::

    python benchmarks/perf/probe.py MARK_FILE MODE <repro CLI args...>

with ``src`` on ``PYTHONPATH`` and MODE ``run`` or ``trace:DIR``.  The
CLI itself is unchanged: this file only wraps functions from the
outside before calling :func:`repro.cli.main`.  An
exception escaping the CLI prints its traceback and exits
:data:`CRASHED`, never 1, the CLI's code for a nondeterministic verdict.

*Mark file.*  When the CLI returns, MARK_FILE gets a JSON object with
``first_run``, the ``time.monotonic()`` of the first ``Runner.run``
entry in this process, and ``peak_rss_kib``.  The monotonic clock is
system-wide on Linux, so the parent subtracts its own spawn time from
``first_run``.  The one-shot wrapper puts the original method back on
that first call, so an untraced session's steady state runs unmodified
code.  The peak RSS is measured here because the parent cannot: on
Linux a process's ``ru_maxrss`` also counts the address space it had
before ``exec``, which is the benchmark's own.

*Layer tracer.*  In ``trace:DIR`` mode, every function in
:data:`TARGETS` is wrapped in a span.  A span's self time is its
duration minus that of the wrapped calls inside it, and goes to its
layer.  A span opened with no other span open is a *root*:
``repro.cli.main`` in the CLI process, ``session_run_worker`` in a pool
worker.  ``repro.cli.main`` belongs to the pseudo-layer ``root``: its
self time is the CLI process's time that no layer explains.  A
worker's root is the ``engine.tasks`` layer itself, so a worker has no
such remainder.  Pool workers are forked, so they inherit the wrappers;
each resets its totals after the fork and appends them to
``TRACE_DIR/<pid>.jsonl`` after every task.  The CLI process appends
its own totals when ``main`` returns.  Only the thread that installed
the tracer is timed (the heartbeat and event-bus threads pass through
untimed).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import sys
import threading
import time
import traceback
from collections import Counter

#: Exit code of a CLI process that raised an exception (EX_SOFTWARE).
CRASHED = 70

#: ``(layer, module, class or None, names)``.  For a class, each name is
#: wrapped on the class and on every subclass that overrides it; for
#: module functions, every ``repro`` module holding the function under
#: any name gets the wrapper (imports by name copy the reference).
TARGETS = (
    ("root", "repro.cli", None, ("main",)),
    ("cli", "repro.cli", None,
     ("_build_parser", "_make_program", "_parse_input_point")),
    ("cli", "repro.cli", "_AppFactory", ("__call__",)),
    ("cli", "repro.core.checker.serialize", None, ("to_json",)),
    ("cli", "repro.core.engine.model", "CampaignResult", ("summary",)),
    ("engine.plan", "repro.core.engine.plan", "SessionPlan",
     ("from_config", "make_control", "make_runner", "new_budget")),
    ("engine.session", "repro.core.engine.session", None,
     ("execute_session", "execute_campaign", "serial_session",
      "pool_session")),
    ("engine.session", "repro.core.engine.session", "SessionFeedback",
     ("fold",)),
    ("engine.session", "repro.core.engine.coordinator", None,
     ("coordinate",)),
    ("engine.session", "repro.core.engine.coordinator", "Coordinator",
     ("run",)),
    ("sim.program", "repro.sim.program", "Runner", ("run",)),
    ("sim.scheduler", "repro.sim.scheduler", "Scheduler",
     ("pick", "begin_run", "is_switch_point", "bind_runner", "observe_step")),
    ("sim.machine", "repro.sim.machine", "Machine",
     ("load", "store", "schedule_thread", "execute_drain", "drain_choices",
      "peek_drain", "drain_thread", "drain_all", "free_block",
      "flush_stores")),
    ("sim.memmodel", "repro.sim.memmodel", "StoreBufferModel",
     ("push", "forward", "pending_keys", "peek", "pop", "drain_thread",
      "drain_all", "pending_count", "pending_for")),
    ("sim.memmodel", "repro.sim.memmodel", None, ("make_memory_model",)),
    ("core.schemes.store", "repro.core.schemes.base", "Scheme",
     ("on_store", "on_store_batch", "on_free", "on_switch_in",
      "on_switch_out")),
    ("core.schemes.checkpoint", "repro.core.schemes.base", "Scheme",
     ("state_hash", "location_term")),
    ("core.schemes.attach", "repro.core.schemes.base", "SchemeConfig",
     ("__call__",)),
    ("core.control", "repro.core.control.controller", "InstantCheckControl",
     ("begin_run", "end_run", "do_malloc", "do_free", "do_rand", "do_time",
      "do_write", "output_hashes", "resolve_ignores")),
    ("engine.judge", "repro.core.engine.judge", "Judge",
     ("fold_record", "fold_failure", "fold_expired", "finalize")),
    ("engine.transport", "repro.core.engine.transports", "Transport",
     ("start", "next_result", "close")),
    ("engine.tasks", "repro.core.engine.tasks", None,
     ("session_run_worker", "attempt_run")),
    ("telemetry", "repro.telemetry.tracer", "Telemetry",
     ("start_span", "end_span", "event", "emit_raw", "flush", "close")),
    ("telemetry", "repro.telemetry.plane", "ObservabilityPlane",
     ("open", "close")),
    ("telemetry", "repro.core.engine.tasks", None,
     ("merge_worker_telemetry", "worker_telemetry", "telemetry_payload")),
    ("telemetry", "repro.sim.program", "Runner", ("_record_run_metrics",)),
)


def _count_run(tracer, args, record, elapsed) -> None:
    """Simulation counts, read off the runner after each run returns."""
    runner = args[0]
    counts = tracer.counts
    counts["sim.steps"] += runner.step_count
    counts["sim.instructions"] += sum(record.instructions.values())
    counts["sim.checkpoints"] += len(record.checkpoints)
    counts["core.schemes.hash_updates"] += sum(
        scheme.hash_updates for scheme in runner.schemes.values())
    # Only the systematic scheduler can tell a redundant run; the flag
    # is valid until its next begin_run.
    if getattr(runner.scheduler, "last_run_redundant", False):
        counts["sim.scheduler.redundant_runs"] += 1
    tracer.run_ms.append(elapsed * 1e3)


def _count_drained(tracer, args, drained, elapsed) -> None:
    tracer.counts["sim.memmodel.drains"] += len(drained)


def _count_divergent(tracer, args, result, elapsed) -> None:
    from repro.core.engine.judge import record_key

    if result.records:
        reference = record_key(result.records[0])
        tracer.counts["engine.judge.divergent_runs"] += sum(
            record_key(record) != reference for record in result.records[1:])


def _count_submitted(tracer, args, result, elapsed) -> None:
    tracer.counts["engine.transport.tasks"] += len(args[1])


def _count_result(tracer, args, result, elapsed) -> None:
    if result is not None:
        tracer.counts["engine.transport.results"] += 1


#: Count hooks by (layer, function name), called after the wrapped
#: call returns.
HOOKS = {
    ("sim.program", "run"): _count_run,
    ("sim.memmodel", "drain_thread"): _count_drained,
    ("sim.memmodel", "drain_all"): _count_drained,
    ("engine.judge", "finalize"): _count_divergent,
    ("engine.transport", "start"): _count_submitted,
    ("engine.transport", "next_result"): _count_result,
}


class Tracer:
    """Per-process span totals: self seconds and calls per wrapped function."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.main_pid = os.getpid()
        self.stats: dict = {}   # slot -> [self seconds, calls]
        self.stack: list = []   # open spans: [child seconds]
        self._zero()
        # A forked worker inherits the parent's open spans and totals; it
        # starts from nothing and reports under its own pid.
        os.register_at_fork(after_in_child=self._zero)

    def _zero(self) -> None:
        # The wrappers hold references to these objects: reset in place.
        self.owner = threading.get_ident()
        self.stack.clear()
        for stat in self.stats.values():
            stat[0] = 0.0
            stat[1] = 0
        self.counts = Counter()
        self.run_ms: list = []
        self.root_s = 0.0

    def flush(self) -> None:
        """Append this process's totals since the last flush, then reset."""
        record = {
            "pid": os.getpid(),
            "worker": os.getpid() != self.main_pid,
            "root_s": self.root_s,
            "slots": {slot: stat for slot, stat in self.stats.items()
                      if stat[1]},
            "counts": dict(self.counts),
            "run_ms": self.run_ms,
        }
        path = os.path.join(self.trace_dir, f"{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps(record) + "\n")
        self._zero()

    # -- wrapping ---------------------------------------------------------

    def wrap(self, layer: str, label: str, fn):
        """A span around *fn*, accumulating into slot ``layer:label``."""
        stat = self.stats.setdefault(f"{layer}:{label}", [0.0, 0])
        hook = HOOKS.get((layer, fn.__name__))
        stack = self.stack
        tracer = self
        get_ident = threading.get_ident
        clock = time.perf_counter

        def close(frame, start):
            elapsed = clock() - start
            stack.pop()
            stat[0] += elapsed - frame[0]
            stat[1] += 1
            if stack:
                stack[-1][0] += elapsed
            else:
                tracer.root_s += elapsed
            return elapsed

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def span(*args, **kwargs):
                if get_ident() != tracer.owner:
                    return await fn(*args, **kwargs)
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    elapsed = close(frame, start)
                if hook is not None:
                    hook(tracer, args, result, elapsed)
                return result
            return span

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if get_ident() != tracer.owner:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                # Inlined close(): this path runs for every simulated
                # load and store.
                elapsed = clock() - start
                stack.pop()
                stat[0] += elapsed - frame[0]
                stat[1] += 1
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer.root_s += elapsed
            if hook is not None:
                hook(tracer, args, result, elapsed)
            if not stack and os.getpid() != tracer.main_pid:
                tracer.flush()  # a worker task ended
            return result
        return span

    def install(self) -> None:
        """Wrap every target (the CLI's modules must be imported)."""
        for layer, module_name, class_name, names in TARGETS:
            module = importlib.import_module(module_name)
            if class_name is None:
                for name in names:
                    self._wrap_function(layer, getattr(module, name))
            else:
                for cls in _with_subclasses(getattr(module, class_name)):
                    for name in names:
                        self._wrap_method(layer, cls, name)

    def _wrap_method(self, layer: str, cls, name: str) -> None:
        raw = cls.__dict__.get(name)
        if raw is None:
            return
        label = f"{cls.__name__}.{name}"
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(cls, name,
                    type(raw)(self.wrap(layer, label, raw.__func__)))
        else:
            setattr(cls, name, self.wrap(layer, label, raw))

    def _wrap_function(self, layer: str, fn) -> None:
        span = self.wrap(layer, fn.__name__, fn)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, name, span)


def _with_subclasses(cls) -> list:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_with_subclasses(sub))
    return found


def _stamp_first_run(runner_cls) -> list:
    """Record the first ``Runner.run`` entry, then unwrap."""
    stamp: list = []
    original = runner_cls.run

    @functools.wraps(original)
    def first_run(self, seed):
        runner_cls.run = original
        stamp.append(time.monotonic())
        return original(self, seed)

    runner_cls.run = first_run
    return stamp


def _write_mark(mark_path: str, stamp: list) -> None:
    with open(mark_path, "w") as handle:
        json.dump({"first_run": stamp[0] if stamp else None,
                   "peak_rss_kib": _peak_rss_kib()}, handle)


def _peak_rss_kib() -> int:
    """The larger of this process's own peak RSS (``VmHWM``, which only
    covers the address space since ``exec``) and that of every child it
    reaped: the forked pool workers."""
    with open("/proc/self/status") as status:
        own = next(int(line.split()[1]) for line in status
                   if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main(argv) -> int:
    mark_path, mode, *cli_args = argv
    if mode != "run" and not mode.startswith("trace:"):
        raise SystemExit(f"probe.py: unknown mode {mode!r}")
    from repro import cli
    from repro.sim.program import Runner

    tracer = None
    if mode.startswith("trace:"):
        tracer = Tracer(mode.partition(":")[2])
        tracer.install()
    stamp = _stamp_first_run(Runner)
    try:
        return cli.main(cli_args)
    except Exception:
        # The CLI turns its own errors into exit codes 2 and 3.  Any
        # other exception is a crash, and Python's exit code for it, 1,
        # would read as a nondeterministic verdict.
        traceback.print_exc()
        return CRASHED
    finally:
        _write_mark(mark_path, stamp)
        if tracer is not None:
            tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
