"""Profile summaries over recorded telemetry (``repro stats``).

Reads a JSONL event stream written by
:class:`~repro.telemetry.tracer.Telemetry` and renders what a perf PR
wants to diff: how long each simulated run took, where the simulated
instructions went (the Figure 6 categories), and what each hashing
scheme cost (update counts and ``state_hash`` latency — the observable
SW-Inc vs SW-Tr trade-off).
"""

from __future__ import annotations

from repro.telemetry.sinks import (SUPPORTED_SCHEMA_VERSIONS,
                                   load_events_tolerant)


def _parse_key(key: str) -> tuple[str, dict]:
    """Invert :func:`~repro.telemetry.registry.metric_key`: ``name{k=v,...}`` -> (name, labels)."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels = dict(item.split("=", 1) for item in rest.rstrip("}").split(","))
    return name, labels


def aggregate(events: list) -> dict:
    """Collapse an event stream into one profile dict.

    Reads every schema version in
    :data:`~repro.telemetry.sinks.SUPPORTED_SCHEMA_VERSIONS`: v1 files
    simply never contain the v2 observability events
    (``worker_heartbeat`` / ``worker_stalled`` / ``events_dropped``),
    so their sections stay empty.  Event versions outside the supported
    set are counted in ``foreign_versions`` rather than rejected.
    """
    profile = {
        "schema": None,
        "n_events": len(events),
        "runs": [],            # per-run span records, in completion order
        "sessions": [],        # check_session / campaign span records
        "progress": 0,
        "divergences": [],
        "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        "workers": {},         # pid -> last worker_heartbeat payload
        "stalled_workers": [],
        "events_dropped": 0,
        "foreign_versions": 0,
    }
    for event in events:
        version = event.get("v")
        if version is not None and version not in SUPPORTED_SCHEMA_VERSIONS:
            profile["foreign_versions"] += 1
        kind = event.get("t")
        if kind == "meta":
            profile["schema"] = event.get("schema")
        elif kind == "span_end":
            record = {"name": event.get("name"),
                      "dur_s": event.get("dur_s"),
                      "attrs": event.get("attrs", {})}
            if event.get("name") == "run":
                profile["runs"].append(record)
            else:
                profile["sessions"].append(record)
        elif kind == "event":
            name = event.get("name")
            if name == "progress":
                profile["progress"] += 1
            elif name == "first_divergence":
                profile["divergences"].append(event)
            elif name == "worker_heartbeat":
                profile["workers"][event.get("worker")] = {
                    "runs_completed": event.get("runs_completed", 0),
                    "checkpoints": event.get("checkpoints", 0),
                    "checkpoints_per_s": event.get("checkpoints_per_s", 0.0),
                }
            elif name == "worker_stalled":
                pid = event.get("worker")
                if pid not in profile["stalled_workers"]:
                    profile["stalled_workers"].append(pid)
            elif name == "events_dropped":
                profile["events_dropped"] = max(profile["events_dropped"],
                                                event.get("dropped") or 0)
        elif kind == "metrics":
            # Snapshots are cumulative; the last one wins.
            profile["metrics"] = event.get("metrics", profile["metrics"])
    return profile


def _fmt_seconds(seconds) -> str:
    if seconds is None:
        return "-"
    if seconds < 1e-3:
        return f"{seconds * 1e6:8.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:8.2f}ms"
    return f"{seconds:8.3f}s "


def render_stats(events: list, skipped: int = 0) -> str:
    """Human-readable profile summary of one telemetry stream.

    *skipped* is the unparseable-line count from
    :func:`~repro.telemetry.sinks.load_events_tolerant`; a nonzero
    count is reported in the header instead of aborting aggregation.
    """
    profile = aggregate(events)
    header = (f"telemetry profile ({profile['schema'] or 'unversioned'}, "
              f"{profile['n_events']} events)")
    if skipped:
        header += f" [warning: skipped {skipped} unparseable line(s)]"
    lines = [header]
    if profile["foreign_versions"]:
        lines.append(f"  warning: {profile['foreign_versions']} event(s) "
                     f"from an unsupported schema version")

    for session in profile["sessions"]:
        attrs = session["attrs"]
        detail = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        lines.append(f"  {session['name']:14s} {_fmt_seconds(session['dur_s'])}"
                     f"  {detail}")

    runs = profile["runs"]
    lines.append(f"\nruns recorded: {len(runs)}")
    total = 0.0
    for i, run in enumerate(runs, start=1):
        attrs = run["attrs"]
        total += run["dur_s"] or 0.0
        lines.append(
            f"  run {i:3d}  seed={attrs.get('seed', '?'):<8} "
            f"{_fmt_seconds(run['dur_s'])}  steps={attrs.get('steps', '?'):<8} "
            f"checkpoints={attrs.get('checkpoints', '?')}")
    if runs:
        lines.append(f"  total run wall-clock: {_fmt_seconds(total)}")

    counters = profile["metrics"]["counters"]
    histograms = profile["metrics"]["histograms"]

    scheme_rows = []
    for key, value in counters.items():
        name, labels = _parse_key(key)
        if name == "scheme_hash_updates":
            scheme_rows.append((labels.get("scheme", "?"),
                                labels.get("variant", "?"), value))
    if scheme_rows:
        lines.append("\nper-scheme hash updates:")
        for scheme, variant, value in sorted(scheme_rows):
            lines.append(f"  {scheme:8s} variant={variant:16s} "
                         f"updates={value}")

    hash_rows = []
    for key, summary in histograms.items():
        name, labels = _parse_key(key)
        if name == "state_hash_seconds":
            hash_rows.append((labels.get("scheme", "?"),
                              labels.get("variant", "?"), summary))
    if hash_rows:
        lines.append("\nstate_hash latency per scheme:")
        for scheme, variant, summary in sorted(hash_rows):
            lines.append(
                f"  {scheme:8s} variant={variant:16s} "
                f"n={summary['count']:<6} mean={_fmt_seconds(summary['mean'])} "
                f"max={_fmt_seconds(summary['max'])}")

    instr_rows = []
    for key, value in counters.items():
        name, labels = _parse_key(key)
        if name == "instructions":
            instr_rows.append((labels.get("category", "?"), value))
    if instr_rows:
        grand = sum(v for _, v in instr_rows)
        lines.append("\nsimulated instructions by category:")
        for category, value in sorted(instr_rows, key=lambda r: -r[1]):
            share = 100.0 * value / grand if grand else 0.0
            lines.append(f"  {category:14s} {value:>14,d}  {share:5.1f}%")
        lines.append(f"  {'total':14s} {grand:>14,d}")

    sched = {key: value for key, value in counters.items()
             if key.startswith("sched_")}
    if sched:
        lines.append("\nscheduler:")
        for key, value in sorted(sched.items()):
            lines.append(f"  {key:16s} {value:>12,d}")

    if profile["workers"]:
        lines.append("\nworker health (last heartbeat):")
        for pid in sorted(profile["workers"], key=str):
            w = profile["workers"][pid]
            stalled = " STALLED" if pid in profile["stalled_workers"] else ""
            lines.append(f"  worker {pid}: runs={w['runs_completed']} "
                         f"checkpoints={w['checkpoints']} "
                         f"rate={w['checkpoints_per_s']:.1f}/s{stalled}")
    if profile["events_dropped"]:
        lines.append(f"\nevents dropped under backpressure: "
                     f"{profile['events_dropped']}")

    lines.append(f"\nprogress events: {profile['progress']}")
    if profile["divergences"]:
        lines.append("first divergences:")
        for div in profile["divergences"]:
            lines.append(f"  variant={div.get('variant', '?'):16s} "
                         f"run={div.get('run', '?')} "
                         f"program={div.get('program', '?')}")
    else:
        lines.append("first divergences: none")
    return "\n".join(lines)


def render_stats_file(path: str) -> str:
    events, skipped = load_events_tolerant(path)
    return render_stats(events, skipped=skipped)
