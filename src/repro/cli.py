"""Command-line interface: ``python -m repro <command>``.

Commands
--------
* ``list`` — the 17 applications with their Table 1 metadata.
* ``check APP`` — run the determinism check for one application.
* ``characterize APP`` — the full Table 1 ladder for one application.
* ``campaign APP`` — multi-input determinism campaign.
* ``localize APP`` — diff two runs at a checkpoint (the §2.3 tool).
* ``stats FILE`` — profile summary of a ``--telemetry`` JSONL file.
* ``golden verify|update`` — the checker's self-determinism gate: a
  committed fixture of (workload, seed, scheme) → report digests.
* ``chaos`` — seeded fault-injection schedules (``REPRO_FAILPOINTS``)
  driven against this CLI, asserting the degradation contract.
* ``table1`` / ``table2`` / ``fig5`` / ``fig6`` / ``fig8`` — regenerate
  one evaluation artifact (also available via the benchmark harness).

``check``, ``characterize``, and ``campaign`` accept ``--telemetry
PATH`` to stream structured spans/metrics/events to a JSONL file (see
docs/telemetry.md).  ``check`` and ``campaign`` additionally take
``--progress`` (live in-place console on stderr) and ``--metrics-port
N`` (Prometheus ``/metrics`` + ``/healthz`` endpoint for the duration
of the command); ``stats`` can export the recorded stream as Chrome/
Perfetto trace JSON via ``--export chrome-trace``.  See
docs/observability.md for the live plane.

Exit codes (see docs/robustness.md) are uniform across commands:

* 0 — deterministic (or the command simply succeeded);
* 1 — nondeterministic verdict, including crash divergence;
* 2 — infrastructure/run failure (a :class:`~repro.errors.ReproError`
  escaped: infeasible input, bad baseline file, ...);
* 3 — usage error (unknown app, malformed ``--inputs`` spec, bad
  checker configuration).

SIGINT/SIGTERM during ``check``/``campaign`` shut down gracefully: the
journal is finalized (parseable and ``--resume``-able), the telemetry
plane flushes a ``session_cancelled`` event and closes, one line goes
to stderr, and the exit code is 2 — never a raw traceback.

``check`` and ``campaign`` also accept the fault-injection workloads of
:mod:`repro.sim.faults` (``deadlock-fault``, ``livelock-fault``, ...),
which exist to exercise exactly those failure paths.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys

from repro.core.checker.distribution import format_groups
from repro.core.checker.localize import localize
from repro.core.checker.policies import RetryPolicy
from repro.core.checker.report import characterize
from repro.core.checker.runner import (OUTCOME_DETERMINISTIC,
                                       OUTCOME_INCOMPLETE,
                                       OUTCOME_INFEASIBLE,
                                       check_determinism)
from repro.core.checker.serialize import to_json
from repro.core.hashing.rounding import (ROUNDINGS, default_policy,
                                         no_rounding)
from repro.core.registry import all_registries, self_check
from repro.core.schemes.base import SCHEME_KINDS, SchemeConfig
from repro.errors import CheckerError, ReproError, SessionInterrupted
from repro.sim.faults import FAULT_REGISTRY
from repro.sim.memmodel import MEMORY_MODELS
from repro.sim.scheduler import SCHEDULERS
from repro.workloads import (REGISTRY, build_named_program, make,
                             seeded_program)
from repro.workloads.seeded_bugs import SEEDED, SEEDED_BUGS

#: Uniform process exit codes (satellite of the robustness work).
EXIT_DETERMINISTIC = 0
EXIT_NONDETERMINISTIC = 1
EXIT_INFRA = 2
EXIT_USAGE = 3

#: Names accepted by ``check``/``campaign``: the Table 1 applications,
#: the fault-injection probes, and the Table 2 seeded-bug variants.
CHECKABLE = sorted(REGISTRY) + sorted(FAULT_REGISTRY) + sorted(SEEDED)

#: Names accepted by ``localize``: real applications only (no fault
#: probes — they diverge by crashing, not by hash), but including the
#: seeded bugs, which are exactly what localize exists to pin down.
LOCALIZABLE = sorted(REGISTRY) + sorted(SEEDED)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="InstantCheck (MICRO 2010) reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser(
        "list", help="list the 17 applications (or every registry)")
    list_cmd.add_argument("--registries", action="store_true",
                          help="print every component registry (schedulers, "
                          "hash backends, scheme kinds, workloads, ...) "
                          "after self-checking that each name resolves")

    check = sub.add_parser("check", help="determinism-check one application")
    check.add_argument("app", choices=CHECKABLE)
    check.add_argument("--runs", type=int, default=30)
    check.add_argument("--scheme", choices=SCHEME_KINDS, default="hw")
    check.add_argument("--rounding", choices=sorted(ROUNDINGS),
                       default="none")
    check.add_argument("--hash-backend", choices=("auto", "python", "numpy"),
                       default="auto",
                       help="batch hash kernel backend (default: auto — "
                       "honours REPRO_HASH_BACKEND, then picks numpy when "
                       "installed)")
    check.add_argument("--ignores", action="store_true",
                       help="apply the workload's suggested ignore specs")
    check.add_argument("--seed", type=int, default=1000)
    _add_schedule_args(check)
    check.add_argument("--distributions", action="store_true",
                       help="print per-point run distributions")
    check.add_argument("--json", action="store_true",
                       help="emit the full result as JSON")
    check.add_argument("--telemetry", metavar="PATH",
                       help="write telemetry events (JSONL) to PATH")
    _add_observability_args(check)
    _add_robustness_args(check)

    char = sub.add_parser("characterize",
                          help="full Table 1 ladder for one application")
    char.add_argument("app", choices=sorted(REGISTRY))
    char.add_argument("--runs", type=int, default=30)
    char.add_argument("--json", action="store_true",
                      help="emit the row as JSON")
    char.add_argument("--telemetry", metavar="PATH",
                      help="write telemetry events (JSONL) to PATH")

    camp = sub.add_parser(
        "campaign", help="determinism campaign over several input points")
    camp.add_argument("app", choices=CHECKABLE)
    camp.add_argument("--runs", type=int, default=12)
    camp.add_argument("--scheme", choices=SCHEME_KINDS, default="hw")
    camp.add_argument("--rounding", choices=sorted(ROUNDINGS),
                      default="none")
    camp.add_argument("--hash-backend", choices=("auto", "python", "numpy"),
                      default="auto",
                      help="batch hash kernel backend (default: auto)")
    camp.add_argument("--seed", type=int, default=1000)
    _add_schedule_args(camp)
    camp.add_argument(
        "--inputs", nargs="*", metavar="NAME[:K=V,...]", default=None,
        help="input points as name:param=value,... "
        "(e.g. small:input_size=dev); default is one 'default' input")
    camp.add_argument("--telemetry", metavar="PATH",
                      help="write telemetry events (JSONL) to PATH")
    camp.add_argument("--journal", metavar="PATH",
                      help="append per-input outcomes to a JSONL journal")
    camp.add_argument("--resume", metavar="PATH",
                      help="resume from (and keep appending to) the journal "
                      "at PATH, skipping inputs it already holds")
    _add_observability_args(camp)
    _add_robustness_args(camp)

    stats = sub.add_parser(
        "stats", help="render a profile summary from a telemetry JSONL file")
    stats.add_argument("file", help="JSONL file written by --telemetry")
    stats.add_argument("--export", choices=("chrome-trace",), default=None,
                       help="instead of the text summary, export the stream "
                       "in another format (chrome-trace: Chrome/Perfetto "
                       "trace_event JSON)")
    stats.add_argument("--out", metavar="PATH", default=None,
                       help="write the --export artifact to PATH instead of "
                       "stdout")

    races = sub.add_parser(
        "races", help="detect data races and classify them benign/harmful "
        "by flip-and-compare (Section 6.1)")
    races.add_argument("app", choices=sorted(REGISTRY))
    races.add_argument("--runs", type=int, default=12)

    light = sub.add_parser(
        "light64", help="Light64-style load-history race check (Section 9)")
    light.add_argument("app", choices=sorted(REGISTRY))
    light.add_argument("--runs", type=int, default=12)

    bless_cmd = sub.add_parser(
        "bless", help="record a golden baseline for always-on checking")
    bless_cmd.add_argument("app", choices=sorted(REGISTRY))
    bless_cmd.add_argument("--out", required=True,
                           help="baseline JSON file to write")
    bless_cmd.add_argument("--input-name", default="default")
    bless_cmd.add_argument("--seed", type=int, default=12345)

    vg = sub.add_parser(
        "verify-golden", help="verify a build against a golden baseline")
    vg.add_argument("app", choices=sorted(REGISTRY))
    vg.add_argument("--baseline", required=True,
                    help="baseline JSON file to read")
    vg.add_argument("--input-name", default="default")

    gold = sub.add_parser(
        "golden", help="golden-digest self-determinism gate for the checker")
    gold.add_argument("mode", choices=("verify", "update"),
                      help="verify: recompute the fixture suite and diff "
                      "against the committed digests; update: re-record them")
    gold.add_argument("--fixtures", metavar="PATH", default=None,
                      help="fixture file (default: "
                      "tests/fixtures/golden/checker_digests.json)")
    gold.add_argument("--json", action="store_true", dest="as_json",
                      help="emit a machine-readable verdict on stdout "
                      "(drift details still go to stderr)")

    chaos = sub.add_parser(
        "chaos", help="run seeded fault-injection schedules against the CLI "
        "and assert the degradation contract")
    chaos.add_argument("--seed", type=int, default=0,
                       help="seed for the probabilistic failpoint triggers "
                       "(schedules are deterministic per seed)")
    chaos.add_argument("--schedules", nargs="*", metavar="NAME", default=None,
                       help="run only these schedules (default: all)")
    chaos.add_argument("--list", action="store_true",
                       help="list the schedules and exit")
    chaos.add_argument("--timeout", type=float, default=120.0, metavar="SEC",
                       help="watchdog per CLI invocation; exceeding it is a "
                       "hang and fails the run")
    chaos.add_argument("--json", action="store_true", dest="as_json",
                       help="emit a machine-readable report on stdout "
                       "(failing schedules still listed on stderr)")

    loc = sub.add_parser("localize",
                         help="diff two runs at a checkpoint (Section 2.3)")
    loc.add_argument("app", choices=LOCALIZABLE)
    loc.add_argument("--checkpoint", type=int, required=True)
    loc.add_argument("--seed-a", type=int, default=1000)
    loc.add_argument("--seed-b", type=int, default=1001)

    t1 = sub.add_parser("table1", help="regenerate Table 1")
    t1.add_argument("--runs", type=int, default=30)
    t1.add_argument("--apps", nargs="*", choices=sorted(REGISTRY))

    t2 = sub.add_parser("table2", help="regenerate Table 2 (seeded bugs)")
    t2.add_argument("--runs", type=int, default=30)

    f5 = sub.add_parser("fig5", help="nondeterminism distributions")
    f5.add_argument("--runs", type=int, default=30)
    f5.add_argument("--apps", nargs="*", choices=sorted(REGISTRY),
                    default=["barnes", "canneal", "ocean", "sphinx3"])

    sub.add_parser("fig6", help="instruction overheads normalized to Native")

    f8 = sub.add_parser("fig8", help="seeded-bug distributions")
    f8.add_argument("--runs", type=int, default=30)

    return parser


def _add_robustness_args(parser) -> None:
    """Fault-tolerance knobs shared by ``check`` and ``campaign``."""
    parser.add_argument("--fail-fast", action="store_true",
                        help="re-raise the first failing run instead of "
                        "recording it (pre-robustness behavior)")
    parser.add_argument("--retries", type=int, default=1, metavar="N",
                        help="attempts per run for transient (replay) "
                        "failures; 1 = no retry")
    parser.add_argument("--deadline", type=float, default=None, metavar="SEC",
                        help="wall-clock budget for the whole session; on "
                        "expiry the verdict is partial over completed runs")
    parser.add_argument("--run-deadline", type=float, default=None,
                        metavar="SEC", help="wall-clock budget per run")
    parser.add_argument("--max-steps", type=int, default=20_000_000,
                        help="scheduling-step budget per run (livelock guard)")
    parser.add_argument("--strict-replay", action="store_true",
                        help="treat record/replay log divergence as a hard "
                        "(retryable) ReplayError")
    parser.add_argument("--workers", type=_parse_workers, default=1,
                        metavar="N",
                        help="worker processes for the parallel execution "
                        "engine: a count or 'auto' (one per CPU); default 1 "
                        "= serial")
    parser.add_argument("--executor", default="auto",
                        choices=("auto", "serial", "process-pool"),
                        help="execution backend; 'auto' picks serial for "
                        "--workers 1 and process-pool otherwise")


def _add_observability_args(parser) -> None:
    """Live-plane knobs shared by ``check`` and ``campaign``."""
    parser.add_argument("--progress", action="store_true",
                        help="render a live progress view on stderr "
                        "(in-place when stderr is a TTY, plain lines "
                        "otherwise)")
    parser.add_argument("--metrics-port", type=int, default=None,
                        metavar="N",
                        help="serve Prometheus /metrics and /healthz on "
                        "127.0.0.1:N for the duration of the command "
                        "(0 picks a free port; the bound port is printed "
                        "to stderr)")


def _parse_workers(raw: str):
    """``--workers`` accepts a positive int or the literal ``auto``."""
    if raw == "auto":
        return "auto"
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {raw!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {raw!r}")
    return value


def _add_schedule_args(parser) -> None:
    """Shared schedule-space flags of ``check`` and ``campaign``.

    ``--scheduler dpor`` swaps the sampling scheduler for the
    systematic DPOR explorer (pinned to the serial executor);
    ``--memory-model tso|pso`` runs the simulated machine with
    per-thread / per-location store buffers whose drains are
    scheduler-visible decisions (see docs/scenarios.md).
    """
    parser.add_argument("--scheduler", choices=sorted(SCHEDULERS),
                        default="random",
                        help="thread scheduler: random (the paper's), "
                        "pct, round_robin, or the systematic dpor "
                        "explorer (default: random)")
    parser.add_argument("--memory-model", dest="memory_model",
                        choices=sorted(MEMORY_MODELS), default="sc",
                        help="machine memory model: sc (default), tso, "
                        "or pso store-buffer semantics")


def _robustness_overrides(args) -> dict:
    """Map the shared robustness flags onto CheckConfig fields."""
    return {
        "scheduler": getattr(args, "scheduler", "random"),
        "memory_model": getattr(args, "memory_model", "sc"),
        "fail_fast": args.fail_fast,
        "retry": RetryPolicy(max_attempts=max(1, args.retries)),
        "deadline_s": args.deadline,
        "run_deadline_s": args.run_deadline,
        "max_steps": args.max_steps,
        "strict_replay": args.strict_replay,
        "workers": args.workers,
        "executor": args.executor,
    }


def _make_program(name: str, **params):
    """Build a Table 1 application, fault probe, or seeded-bug variant."""
    return build_named_program(name, **params)


class _AppFactory:
    """Picklable program factory for campaigns.

    ``run_campaign`` previously took a lambda closing over the app name;
    with ``--workers`` the factory travels to worker processes, and a
    lambda cannot be pickled — a module-level class instance can.
    """

    def __init__(self, app: str):
        self.app = app

    def __call__(self, **params):
        return build_named_program(self.app, **params)


def _open_plane(args):
    """Assemble the observability plane the flags ask for.

    Covers ``--telemetry`` (JSONL recording), ``--progress`` (live
    console), and ``--metrics-port`` (Prometheus endpoint); commands
    that only define a subset of those flags work unchanged via the
    getattr defaults.  Returns an
    :class:`~repro.telemetry.plane.ObservabilityPlane` whose
    ``telemetry`` attribute is None when no flag was given.
    """
    from repro.telemetry import ObservabilityPlane

    plane = ObservabilityPlane.open(
        jsonl_path=getattr(args, "telemetry", None),
        progress=bool(getattr(args, "progress", False)),
        metrics_port=getattr(args, "metrics_port", None))
    if plane.server is not None:
        print(f"metrics: http://127.0.0.1:{plane.server.port}/metrics",
              file=sys.stderr)
    return plane


@contextlib.contextmanager
def _graceful_signals():
    """Turn SIGINT/SIGTERM into :class:`SessionInterrupted` for the
    duration of a session or campaign.

    The exception unwinds through the command's ``finally`` blocks —
    journal lock release, telemetry flush, plane close — so an
    interrupted run leaves a parseable, resumable journal and a
    complete event stream instead of a ``KeyboardInterrupt`` traceback
    mid-write.  Installed only in the main thread (the only place
    Python delivers signals); original handlers are restored on exit.
    """

    def _handler(signum, frame):
        raise SessionInterrupted(signal.Signals(signum).name)

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _handler)
        except (ValueError, OSError):  # non-main thread / exotic platform
            pass
    try:
        yield
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)


def _note_interrupt(plane, exc: SessionInterrupted, **fields) -> int:
    """One stderr line + a ``session_cancelled`` event; exit code 2.

    Called before the plane closes, so the cancellation event reaches
    the telemetry file / live console along with everything else.
    """
    tele = plane.telemetry
    if tele is not None and tele.enabled:
        tele.event("session_cancelled", reason=exc.signal_name, **fields)
        tele.registry.counter("sessions_cancelled").inc()
    print(f"repro: interrupted by {exc.signal_name}; shut down cleanly "
          f"(journal and telemetry finalized)", file=sys.stderr)
    return EXIT_INFRA


def _parse_input_point(spec: str):
    """Parse ``name[:key=value,...]`` into an InputPoint."""
    from repro.core.checker.campaign import InputPoint

    name, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, raw = item.partition("=")
            if not _ or not key:
                raise CheckerError(
                    f"bad input spec {spec!r}: expected name:key=value,...")
            value: object = raw
            if raw.lower() in ("true", "false"):
                value = raw.lower() == "true"
            else:
                for convert in (int, float):
                    try:
                        value = convert(raw)
                        break
                    except ValueError:
                        continue
            params[key] = value
    return InputPoint(name or "default", params)


def _cmd_list(args, out) -> int:
    if getattr(args, "registries", False):
        return _list_registries(out)
    print(f"{'application':14s} {'source':9s} {'FP':3s} class", file=out)
    for name, cls in REGISTRY.items():
        print(f"{name:14s} {cls.SOURCE:9s} {'Y' if cls.HAS_FP else 'N':3s} "
              f"{cls.EXPECTED_CLASS}", file=out)
    return 0


def _list_registries(out) -> int:
    """Print the component catalog after resolving every name.

    Doubles as the CI self-check: a registration that went stale (a name
    that no longer resolves) fails with :data:`EXIT_INFRA` instead of
    printing a catalog that lies.
    """
    try:
        resolved = self_check()
    except Exception as exc:  # noqa: BLE001 - report any stale entry
        print(f"registry self-check failed: {exc}", file=sys.stderr)
        return EXIT_INFRA
    for kind, registry in all_registries().items():
        names = ", ".join(registry.names())
        print(f"{kind:14s} {names}", file=out)
    print(f"self-check: {len(resolved)} names resolved", file=out)
    return 0


def _outcome_exit_code(outcome: str) -> int:
    """Session/campaign outcome -> process exit code."""
    if outcome == OUTCOME_DETERMINISTIC:
        return EXIT_DETERMINISTIC
    if outcome in (OUTCOME_INFEASIBLE, OUTCOME_INCOMPLETE):
        return EXIT_INFRA
    return EXIT_NONDETERMINISTIC


def _cmd_check(args, out) -> int:
    program = _make_program(args.app)
    rounding = ROUNDINGS[args.rounding]()
    ignores = (tuple(getattr(program, "SUGGESTED_IGNORES", ()))
               if args.ignores else ())
    plane = _open_plane(args)
    try:
        with _graceful_signals():
            result = check_determinism(
                program, runs=args.runs, base_seed=args.seed, ignores=ignores,
                telemetry=plane.telemetry, **_robustness_overrides(args),
                schemes={"s": SchemeConfig(kind=args.scheme, rounding=rounding,
                                           backend=args.hash_backend)})
    except SessionInterrupted as exc:
        return _note_interrupt(plane, exc, program=args.app)
    finally:
        plane.close()
    if args.json:
        print(to_json(result), file=out)
        return _outcome_exit_code(result.outcome)
    verdict = result.judged
    print(f"{args.app}: scheme={args.scheme} rounding={args.rounding} "
          f"ignores={bool(ignores)} runs={result.runs}"
          + (f"/{result.requested_runs} (budget exhausted)"
             if result.budget_exhausted else ""), file=out)
    print(f"  outcome       : {result.outcome}", file=out)
    print(f"  deterministic : {result.deterministic}", file=out)
    if verdict is not None:
        print(f"  points        : {verdict.n_det_points} det / "
              f"{verdict.n_ndet_points} ndet", file=out)
        print(f"  det at end    : {verdict.det_at_end}", file=out)
        if verdict.first_ndet_run is not None:
            print(f"  first NDet run: {verdict.first_ndet_run}", file=out)
    if result.failures:
        print(f"  failed runs   : {len(result.failures)} "
              f"(first: run {result.first_failed_run})", file=out)
        for failure in result.failures[:5]:
            print(f"    {failure.summary()}", file=out)
        if len(result.failures) > 5:
            print(f"    ... {len(result.failures) - 5} more", file=out)
    if args.distributions and verdict is not None:
        print(format_groups(verdict.points), file=out)
    return _outcome_exit_code(result.outcome)


def _cmd_characterize(args, out) -> int:
    from repro.analysis.tables import render_table1

    plane = _open_plane(args)
    try:
        row = characterize(make(args.app), runs=args.runs,
                           telemetry=plane.telemetry)
    finally:
        plane.close()
    if args.json:
        print(to_json(row), file=out)
        return 0
    print(render_table1([row]), file=out)
    print(f"\nclass: {row.det_class}", file=out)
    return 0


def _cmd_campaign(args, out) -> int:
    from repro.core.checker.campaign import InputPoint, run_campaign

    if args.inputs:
        points = [_parse_input_point(spec) for spec in args.inputs]
    else:
        points = [InputPoint("default", {})]
    if args.journal and args.resume:
        raise CheckerError("--journal and --resume are mutually exclusive "
                           "(--resume already names the journal)")
    journal_path = args.resume or args.journal
    rounding = ROUNDINGS[args.rounding]()
    plane = _open_plane(args)
    try:
        with _graceful_signals():
            result = run_campaign(
                _AppFactory(args.app), points,
                runs=args.runs, base_seed=args.seed,
                telemetry=plane.telemetry,
                journal_path=journal_path, resume=bool(args.resume),
                **_robustness_overrides(args),
                schemes={"s": SchemeConfig(kind=args.scheme,
                                           rounding=rounding,
                                           backend=args.hash_backend)})
    except SessionInterrupted as exc:
        return _note_interrupt(plane, exc, program=args.app,
                               journal=journal_path)
    finally:
        plane.close()
    print(result.summary(), file=out)
    if result.internal_only_inputs:
        print(f"  internal-only (end-state masked): "
              f"{', '.join(result.internal_only_inputs)}", file=out)
    if result.resumed_inputs:
        print(f"  resumed from journal: {', '.join(result.resumed_inputs)}",
              file=out)
    infeasible = [o.input.name for o in result.outcomes
                  if o.outcome in (OUTCOME_INFEASIBLE, OUTCOME_INCOMPLETE)]
    if result.errored_inputs or infeasible:
        print(f"  infrastructure failures: "
              f"{', '.join(result.errored_inputs + infeasible)}", file=out)
        return EXIT_INFRA
    return (EXIT_DETERMINISTIC if result.deterministic_on_all_inputs
            else EXIT_NONDETERMINISTIC)


def _cmd_stats(args, out) -> int:
    from repro.telemetry import (chrome_trace, load_events_tolerant,
                                 render_stats)

    try:
        events, skipped = load_events_tolerant(args.file)
    except OSError as exc:
        print(f"stats: cannot read {args.file}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_INFRA
    if not events:
        detail = (f"every line unparseable ({skipped} skipped)"
                  if skipped else "no events")
        print(f"stats: {args.file}: {detail} — not a telemetry file?",
              file=sys.stderr)
        return EXIT_INFRA
    if skipped:
        print(f"stats: warning: skipped {skipped} unparseable line(s) in "
              f"{args.file} (mid-write or truncated file?)", file=sys.stderr)
    if args.export == "chrome-trace":
        trace = chrome_trace(events)
        document = json.dumps(trace, sort_keys=True)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(document + "\n")
            print(f"wrote {len(trace['traceEvents'])} trace events -> "
                  f"{args.out}", file=sys.stderr)
        else:
            print(document, file=out)
        return 0
    print(render_stats(events, skipped=skipped), file=out)
    return 0


def _cmd_races(args, out) -> int:
    from repro.apps.race_filter import classify_races

    classification = classify_races(make(args.app), runs=args.runs)
    verdict = "benign" if classification.benign else "HARMFUL"
    print(f"{args.app}: {classification.n_races} race(s) detected; "
          f"flip-and-compare verdict: {verdict}", file=out)
    for race in classification.races[:10]:
        print(f"  addr {race.address:#x}: threads {race.first_tid}/"
              f"{race.second_tid} ({race.kinds[0]}-{race.kinds[1]})",
              file=out)
    if classification.n_races > 10:
        print(f"  ... {classification.n_races - 10} more", file=out)
    return 0 if classification.benign else 1


def _cmd_light64(args, out) -> int:
    from repro.apps.light64 import check_races_light64

    result = check_races_light64(make(args.app), runs=args.runs)
    print(f"{args.app}: load-history race check over {result.runs} runs — "
          f"{result.comparable_classes} comparable schedule class(es), "
          f"race detected: {result.race_detected}", file=out)
    if result.comparable_classes == 0:
        print("  note: every run had a unique synchronization order; "
              "no within-class comparison was possible", file=out)
    return 1 if result.race_detected else 0


def _cmd_bless(args, out) -> int:
    from repro.apps.golden import bless

    baseline = bless(make(args.app), args.input_name, seed=args.seed)
    with open(args.out, "w") as handle:
        handle.write(baseline.to_json() + "\n")
    print(f"blessed {args.app}[{args.input_name}] -> {args.out}", file=out)
    return 0


def _cmd_verify_golden(args, out) -> int:
    from repro.apps.golden import GoldenBaseline, verify

    with open(args.baseline) as handle:
        baseline = GoldenBaseline.from_json(handle.read())
    verdict = verify(make(args.app), args.input_name, baseline)
    print(verdict.summary(), file=out)
    return 0 if verdict.matches else 1


def _cmd_golden(args, out) -> int:
    from repro.core.checker import golden

    path = args.fixtures or golden.DEFAULT_FIXTURE_PATH

    def progress(case):
        print(f"golden: running {case.name} ({case.kind}, {case.app})",
              file=sys.stderr)

    if args.mode == "update":
        entries = golden.compute_suite(progress=progress)
        golden.write_fixture(path, entries)
        print(f"recorded {len(entries)} golden case(s) -> {path}", file=out)
        return 0
    fixture = golden.load_fixture(path)
    problems = golden.verify_suite(fixture, progress=progress)
    n_cases = len(fixture.get("cases", {}))
    if args.as_json:
        print(json.dumps({"mode": "verify", "fixtures": path,
                          "cases": n_cases, "ok": not problems,
                          "problems": list(problems)},
                         indent=2, sort_keys=True), file=out)
    if not problems:
        if not args.as_json:
            print(f"golden: {n_cases} case(s) verified against {path} — "
                  f"checker output is bit-stable", file=out)
        return 0
    # Drift details go to stderr — CI log scrapers and shell pipelines
    # read the failure list even when stdout is redirected (or is the
    # --json document), and the exit code alone says nothing about
    # *which* case drifted.
    print(f"golden: DRIFT against {path}:", file=sys.stderr)
    for line in problems:
        print(f"  {line}", file=sys.stderr)
    print("golden: if the change is intentional, re-record with "
          "'repro golden update'", file=sys.stderr)
    if not args.as_json:
        print(f"golden: DRIFT — {len(problems)} problem(s), see stderr",
              file=out)
    return EXIT_NONDETERMINISTIC


def _cmd_chaos(args, out) -> int:
    from repro.core import chaos

    if args.list:
        for schedule in chaos.SCHEDULES:
            print(f"{schedule.name:24s} [{schedule.layer}] "
                  f"{schedule.description}", file=out)
        return 0
    try:
        results = chaos.run_schedules(seed=args.seed, names=args.schedules,
                                      timeout=args.timeout,
                                      log=lambda msg: print(msg,
                                                            file=sys.stderr))
    except KeyError as exc:
        raise CheckerError(str(exc)) from None
    if args.as_json:
        print(json.dumps({
            "seed": args.seed,
            "ok": all(r.ok for r in results),
            "schedules": [{"name": r.schedule.name,
                           "layer": r.schedule.layer,
                           "ok": r.ok,
                           "duration_s": round(r.duration_s, 3),
                           "notes": list(r.notes),
                           "violations": list(r.violations)}
                          for r in results],
        }, indent=2, sort_keys=True), file=out)
    else:
        print(chaos.render_report(results), file=out)
    failed = [r for r in results if not r.ok]
    if failed:
        # The failing schedules (with their violated invariants) go to
        # stderr so a redirected/--json stdout still leaves the cause
        # next to the nonzero exit code in the CI log.
        print(f"chaos: FAILED {len(failed)}/{len(results)} schedule(s):",
              file=sys.stderr)
        for result in failed:
            for violation in result.violations:
                print(f"  {result.schedule.name}: {violation}",
                      file=sys.stderr)
        return EXIT_NONDETERMINISTIC
    return 0


def _cmd_localize(args, out) -> int:
    report = localize(_make_program(args.app),
                      checkpoint_index=args.checkpoint,
                      seed_a=args.seed_a, seed_b=args.seed_b)
    print(report.summary(), file=out)
    return 0 if report.n_differences == 0 else 1


def _cmd_table1(args, out) -> int:
    from repro.analysis.tables import (render_table1,
                                       render_table1_comparison)

    names = args.apps or list(REGISTRY)
    rows = [characterize(make(name), runs=args.runs) for name in names]
    print(render_table1(rows), file=out)
    print("", file=out)
    print(render_table1_comparison(rows), file=out)
    return 0


def _cmd_table2(args, out) -> int:
    from repro.analysis.tables import render_table2

    verdicts = {}
    for app, _bug in SEEDED_BUGS:
        result = check_determinism(
            seeded_program(app), runs=args.runs,
            schemes={"r": SchemeConfig(kind="hw",
                                       rounding=default_policy())})
        verdicts[app] = result.verdict("r")
    print(render_table2(verdicts), file=out)
    return 0


def _cmd_fig5(args, out) -> int:
    from repro.analysis.figures import render_figure5

    verdicts = {}
    for app in args.apps:
        result = check_determinism(
            make(app), runs=args.runs,
            schemes={"bit": SchemeConfig(kind="hw", rounding=no_rounding())})
        verdicts[app] = result.verdict("bit")
    print(render_figure5(verdicts), file=out)
    return 0


def _cmd_fig6(args, out) -> int:
    from repro.analysis.figures import render_figure6
    from repro.analysis.overhead import figure6

    rows = figure6([make(name) for name in REGISTRY])
    print(render_figure6(rows), file=out)
    return 0


def _cmd_fig8(args, out) -> int:
    from repro.analysis.figures import render_figure5

    verdicts = {}
    for app, _bug in SEEDED_BUGS:
        result = check_determinism(
            seeded_program(app), runs=args.runs,
            schemes={"r": SchemeConfig(kind="hw",
                                       rounding=default_policy())})
        verdicts[app] = result.verdict("r")
    print(render_figure5(verdicts), file=out)
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "check": _cmd_check,
    "characterize": _cmd_characterize,
    "campaign": _cmd_campaign,
    "stats": _cmd_stats,
    "localize": _cmd_localize,
    "races": _cmd_races,
    "light64": _cmd_light64,
    "bless": _cmd_bless,
    "verify-golden": _cmd_verify_golden,
    "golden": _cmd_golden,
    "chaos": _cmd_chaos,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "fig8": _cmd_fig8,
}


def main(argv=None, out=None) -> int:
    """CLI entry point; returns the process exit code.

    This is the error boundary: a :class:`~repro.errors.ReproError`
    escaping a command becomes a one-line diagnostic on stderr and exit
    code 2 (3 for configuration/usage errors) instead of a traceback —
    so scripts and CI can tell "the program is nondeterministic" (1)
    from "the checker itself failed" (2) from "you invoked it wrong" (3).
    """
    out = out if out is not None else sys.stdout
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 for --help.
        return EXIT_USAGE if exc.code else 0
    try:
        return _COMMANDS[args.command](args, out)
    except CheckerError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INFRA


if __name__ == "__main__":
    sys.exit(main())
