"""The socket wire format: newline-delimited JSON frames, versioned.

One frame per line, UTF-8 JSON, every frame carrying the schema
version (``"v"``) and a ``"type"``.  Programs never travel as pickled
objects: a run names its program through the component registries
(workload / fault / seeded-bug name + constructor params — the
*program spec*), and the worker rebuilds it locally, exactly as the
ROADMAP prescribes for the fleet boundary.  Replay logs, configs, and
result records are data, not code; they travel as ``blob`` fields —
base64 of zlib-compressed pickle — which assumes a trusted cluster
(the daemon and its workers are one deployment; see
docs/distributed.md#trust-model).

Frame vocabulary (the authoritative list, mirrored in
docs/distributed.md):

====================  =====================================================
frame                 fields
====================  =====================================================
``hello``             ``role`` (worker|client), ``pid``, ``host``
``welcome``           ``server`` (repro version string)
``run``               ``gen``, ``index``, ``task`` (a task descriptor, see
                      below)
``result``            ``gen``, ``index``, ``payload`` (blob: worker dict)
``heartbeat``         ``beat`` (pid, runs, checkpoints, last_progress, mono)
``bye``               —
``submit``            ``what`` (session|campaign), ``app``, ``params``,
                      ``inputs``, ``config`` (JSON config overrides)
``accepted``          ``ticket``, ``position``
``verdict``           ``ticket``, ``exit_code``, ``report`` (JSON dict)
``error``             ``message``
====================  =====================================================

A *task descriptor* is the JSON the coordinator hands the socket
transport per run index::

    {"kind": "session_run", "spec": {...program spec...},
     "index": 3, "config": <blob>, "malloc": <blob>, "libcall": <blob>,
     "telemetry": true, "deadline_s": 12.5}
    {"kind": "campaign_input", "factory": {"app": "fft"},
     "index": 0, "point": <blob>, "config": <blob>, "telemetry": false}

``deadline_s`` is *remaining* seconds, stamped at dispatch time —
absolute monotonic clocks do not travel across machines.
"""

from __future__ import annotations

import base64
import json
import pickle
import zlib

from repro.errors import CheckerError, ReproError

#: Bump on any frame-schema change; both ends reject a mismatch
#: loudly rather than mis-parse silently.
WIRE_VERSION = 1


class WireError(ReproError):
    """A malformed, unversioned, or wrong-version frame."""


def encode_frame(frame: dict) -> bytes:
    """One frame as a newline-terminated JSON line."""
    out = {"v": WIRE_VERSION}
    out.update(frame)
    return json.dumps(out, separators=(",", ":"),
                      sort_keys=True).encode("utf-8") + b"\n"


def decode_frame(line: bytes) -> dict:
    """Parse and validate one received line."""
    try:
        frame = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and over-long integers;
        # RecursionError, nesting deeper than the parser's stack.
        raise WireError(f"undecodable frame: {exc}") from exc
    if not isinstance(frame, dict):
        raise WireError(f"frame must be a JSON object, got {type(frame).__name__}")
    version = frame.get("v")
    if version != WIRE_VERSION:
        raise WireError(
            f"wire version mismatch: peer speaks v{version!r}, "
            f"this end v{WIRE_VERSION} — upgrade the older side")
    if not isinstance(frame.get("type"), str):
        raise WireError("frame has no 'type'")
    return frame


def pack_blob(obj) -> str:
    """Data payload encoding: base64(zlib(pickle)).  Data only —
    configs, replay logs, records — never programs (trusted cluster)."""
    return base64.b64encode(
        zlib.compress(pickle.dumps(obj), level=3)).decode("ascii")


def unpack_blob(blob: str):
    try:
        return pickle.loads(zlib.decompress(base64.b64decode(blob)))
    except Exception as exc:
        raise WireError(f"undecodable blob payload: {exc}") from exc


# -- program specs: registry names are the wire format ------------------------


def attach_spec(program, kind: str, name: str, params: dict):
    """Stamp a registry-built program with its wire spec.

    Called by every name-to-program factory (``workloads.make``,
    ``make_fault``, ``seeded_program``, the CLI dispatcher) so any
    program built *by name* can travel to socket workers *as* that
    name.  Programs constructed directly (test classes) carry no spec
    and are rejected by :func:`program_spec` with a pointed error.
    """
    program.registry_spec = {"kind": kind, "name": name,
                             "params": dict(params)}
    return program


def program_spec(program) -> dict:
    spec = getattr(program, "registry_spec", None)
    if spec is None:
        raise ReproError(
            f"the socket executor cannot ship program "
            f"{type(program).__name__!r}: it was not built from a "
            f"registry name (programs travel by name, never by pickle "
            f"— build it via repro.workloads.make / make_fault / "
            f"seeded_program)")
    return spec


def build_program(spec: dict):
    """Rebuild a program from its wire spec on the worker side."""
    kind = spec.get("kind")
    name = spec.get("name")
    params = spec.get("params") or {}
    if kind == "workload":
        from repro.workloads import make
        return make(name, **params)
    if kind == "fault":
        from repro.sim.faults import make_fault
        return make_fault(name, **params)
    if kind == "seeded":
        from repro.workloads.seeded_bugs import SEEDED
        return attach_spec(SEEDED.get(name)(**params),
                           "seeded", name, params)
    raise WireError(f"unknown program-spec kind {kind!r}")


def build_named_program(app: str, **params):
    """The CLI's name dispatcher: fault probe, seeded bug, or workload.

    One implementation for the local CLI and the socket worker, so a
    name resolves identically on both sides of the wire.  A parameter
    the target does not take is a :class:`~repro.errors.CheckerError`
    naming the accepted ones, never a raw ``TypeError``.
    """
    from repro.sim.faults import FAULT_REGISTRY, make_fault
    from repro.workloads import REGISTRY, make
    from repro.workloads.seeded_bugs import SEEDED

    if app in FAULT_REGISTRY:
        _check_params(app, FAULT_REGISTRY.get(app), params)
        return make_fault(app, **params)
    if app in SEEDED:
        factory = SEEDED[app]
        _check_params(app, factory, params)
        return attach_spec(factory(**params), "seeded", app, params)
    if app in REGISTRY:
        _check_params(app, REGISTRY.get(app), params)
    return make(app, **params)


def _check_params(app: str, target, params: dict) -> None:
    """Reject keys *target*'s signature does not accept (a target
    taking ``**kwargs`` accepts any)."""
    import inspect

    accepted = []
    for name, param in inspect.signature(target).parameters.items():
        if param.kind is param.VAR_KEYWORD:
            return
        if param.kind is not param.POSITIONAL_ONLY:
            accepted.append(name)
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise CheckerError(
            f"{app!r} takes no parameter "
            f"{', '.join(repr(key) for key in unknown)}; "
            f"accepted: {', '.join(accepted)}")


class ProgramFactory:
    """Picklable *and* wire-able campaign program factory.

    Carries only the app name; each call rebuilds the program by
    registry lookup — on this machine or, via :attr:`wire_spec`, on a
    socket worker.
    """

    def __init__(self, app: str):
        self.app = app

    @property
    def wire_spec(self) -> dict:
        return {"app": self.app}

    def __call__(self, **params):
        return build_named_program(self.app, **params)


def factory_spec(program_factory) -> dict:
    spec = getattr(program_factory, "wire_spec", None)
    if spec is None:
        raise ReproError(
            f"the socket executor cannot ship campaign factory "
            f"{type(program_factory).__name__!r}: use "
            f"repro.core.engine.wire.ProgramFactory (programs travel "
            f"by registry name, never by pickle)")
    return spec


def build_factory(spec: dict) -> ProgramFactory:
    return ProgramFactory(spec["app"])
