"""Golden-digest self-determinism gate for the checker itself.

The checker promises that its *own* output is a pure function of
``(workload, seed, scheme)``: serialized reports carry no timestamps,
schedules derive from seeds, and the parallel engine is bit-identical
to the serial path.  That promise is what makes every other guarantee
testable — and nothing enforced it until now.  This module pins it
down: a committed fixture maps a small suite of checker invocations to
SHA-256 digests of their canonical serialized output, and
``repro golden verify`` recomputes the suite and diffs.

Any drift is a released invariant: a mixer constant change, a scheme
reordering, an accidental nondeterminism in the engine itself.  The
gate fails with a *pointed* diff — which case, which summarized field,
or the first divergent run-0 checkpoint — not just "digest mismatch".

This is deliberately a different layer from :mod:`repro.apps.golden`,
which tracks one *program's* checkpoint sequence across builds of that
program.  Here the system under test is the checker: full session and
campaign reports, including verdict structure, failure classification,
and journal bytes.

Normalization: the only report field that legitimately varies across
environments is ``workers`` (resolved pool size); it is removed before
hashing.  Everything else must be bit-stable.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field

from repro.core.checker.serialize import (SERIALIZE_VERSION, campaign_to_dict,
                                          result_to_dict)
from repro.errors import CheckerError

#: Version of the fixture file layout (not of the digested payloads —
#: those are pinned by SERIALIZE_VERSION, recorded alongside).
FIXTURE_VERSION = 1

#: Repo-relative default fixture location (committed to version control).
DEFAULT_FIXTURE_PATH = os.path.join("tests", "fixtures", "golden",
                                    "checker_digests.json")


def canonical_json(payload) -> str:
    """The byte-stable JSON form everything is digested over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest_payload(payload) -> str:
    """SHA-256 over the canonical JSON of *payload* (hex, prefixed)."""
    data = canonical_json(payload).encode()
    return "sha256:" + hashlib.sha256(data).hexdigest()


def digest_bytes(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class GoldenCase:
    """One pinned checker invocation.

    ``kind`` is ``"session"`` (one :func:`check_determinism` call, the
    report digested with per-run checkpoint hashes included) or
    ``"campaign"`` (a :func:`run_campaign` over ``inputs`` writing a
    journal; both the report and the raw journal bytes are digested).
    ``schemes`` lists scheme kinds; each becomes one verdict variant.
    """

    name: str
    app: str
    kind: str = "session"
    runs: int = 3
    base_seed: int = 777
    schemes: tuple = ("hw",)
    #: Campaign inputs as ``(name, params-dict)`` pairs.
    inputs: tuple = ()
    #: Extra CheckConfig overrides (scheduler, n_cores, ...).
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("session", "campaign"):
            raise CheckerError(
                f"golden case {self.name!r}: kind must be 'session' or "
                f"'campaign', got {self.kind!r}")
        if self.kind == "campaign" and not self.inputs:
            raise CheckerError(
                f"golden case {self.name!r}: campaign cases need inputs")

    def check_config(self):
        from repro.core.checker.runner import CheckConfig
        from repro.core.schemes.base import SchemeConfig

        return CheckConfig(
            runs=self.runs, base_seed=self.base_seed,
            schemes={kind: SchemeConfig(kind=kind) for kind in self.schemes},
            **self.config)

    def execute(self) -> dict:
        """Run the case and return its fixture entry (digests + summary).

        Workload construction is imported lazily: this module must stay
        importable from the core checker package without dragging the
        workload registry (and its numpy-optional apps) into every
        import of the checker.
        """
        from repro.cli import _AppFactory, _make_program

        if self.kind == "session":
            from repro.core.checker.runner import check_determinism

            result = check_determinism(_make_program(self.app),
                                       self.check_config())
            report = result_to_dict(result, include_hashes=True)
            report.pop("workers", None)
            run0 = (report.get("run_hashes") or [{}])[0]
            return {
                "digest": digest_payload(report),
                "outcome": result.outcome,
                "deterministic": result.deterministic,
                "runs": result.runs,
                "run0_checkpoints": list(run0.get("checkpoints") or ()),
            }

        from repro.core.checker.campaign import InputPoint, run_campaign

        points = [InputPoint(name, dict(params)) for name, params
                  in self.inputs]
        with tempfile.TemporaryDirectory() as tmp:
            journal_path = os.path.join(tmp, "journal.jsonl")
            result = run_campaign(_AppFactory(self.app), points,
                                  self.check_config(),
                                  journal_path=journal_path)
            with open(journal_path, "rb") as handle:
                journal_digest = digest_bytes(handle.read())
        report = campaign_to_dict(result)
        return {
            "digest": digest_payload(report),
            "journal_digest": journal_digest,
            "outcome": ("deterministic"
                        if result.deterministic_on_all_inputs
                        else "nondeterministic"),
            "deterministic": result.deterministic_on_all_inputs,
            "runs": self.runs,
            "flagged_inputs": list(result.flagged_inputs),
        }


#: The committed suite: fast (each case well under a second), yet
#: covering the verdict space — bit-identical determinism, a multi-
#: scheme session, a seeded nondeterminism bug, crash classification,
#: and a journaled campaign.  The ``-pool`` cases are twins of serial
#: ones on a 2-worker process pool: ``workers`` is dropped before
#: hashing, so each must digest exactly as its serial case does.
DEFAULT_SUITE = (
    GoldenCase("session-fft-hw", "fft"),
    GoldenCase("session-radix-hw-sw", "radix",
               schemes=("hw", "sw_inc")),
    GoldenCase("session-lu-swtr", "lu", schemes=("sw_tr",)),
    GoldenCase("session-seeded-radix-ndet", "seeded-radix", runs=4),
    GoldenCase("session-deadlock-crash", "deadlock-fault"),
    GoldenCase("session-sb-visible-late-tso", "seeded-sb-visible-late",
               runs=6, config={"memory_model": "tso"}),
    GoldenCase("session-seeded-radix-ndet-pool", "seeded-radix", runs=4,
               config={"workers": 2}),
    GoldenCase("session-sb-visible-late-tso-pool", "seeded-sb-visible-late",
               runs=6, config={"memory_model": "tso", "workers": 2}),
    # The step loop's other paths: a switch after every access, thread
    # migration, per-location store buffers, and PCT priorities.
    GoldenCase("session-fft-access", "fft",
               config={"granularity": "access"}),
    GoldenCase("session-fft-migrate", "fft",
               config={"migrate_prob": 0.3}),
    GoldenCase("session-sb-dcl-pso", "seeded-sb-dcl",
               config={"memory_model": "pso"}),
    GoldenCase("session-radix-pct", "radix",
               config={"scheduler": "pct"}),
    GoldenCase("campaign-fft-journal", "fft", kind="campaign",
               inputs=(("small", {"log2_n": 5}), ("large", {"log2_n": 7}))),
)


def compute_suite(cases=DEFAULT_SUITE, progress=None) -> dict:
    """Execute every case; returns ``{case name: fixture entry}``."""
    entries = {}
    for case in cases:
        if progress is not None:
            progress(case)
        entries[case.name] = case.execute()
    return entries


# -- the committed fixture ----------------------------------------------------


def write_fixture(path: str, entries: dict) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    payload = {
        "fixture_version": FIXTURE_VERSION,
        "serialize_version": SERIALIZE_VERSION,
        "cases": entries,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_fixture(path: str) -> dict:
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise CheckerError(
            f"golden fixture {path!r} does not exist; record it with "
            f"'repro golden update'") from None
    except json.JSONDecodeError as exc:
        raise CheckerError(
            f"golden fixture {path!r} is not valid JSON: {exc}") from None
    if payload.get("fixture_version") != FIXTURE_VERSION:
        raise CheckerError(
            f"golden fixture {path!r} has fixture_version "
            f"{payload.get('fixture_version')!r}; this build reads "
            f"{FIXTURE_VERSION} — re-record with 'repro golden update'")
    return payload


def diff_case(name: str, expected: dict, actual: dict) -> list:
    """Pointed, human-readable differences for one drifted case."""
    if expected == actual:
        return []
    lines = []
    for key in ("outcome", "deterministic", "runs", "flagged_inputs"):
        if key in expected or key in actual:
            exp, act = expected.get(key), actual.get(key)
            if exp != act:
                lines.append(f"  {key}: expected {exp!r}, got {act!r}")
    exp_cp = expected.get("run0_checkpoints") or []
    act_cp = actual.get("run0_checkpoints") or []
    if exp_cp != act_cp:
        if len(exp_cp) != len(act_cp):
            lines.append(f"  run-0 checkpoint count: expected "
                         f"{len(exp_cp)}, got {len(act_cp)}")
        for index, (exp, act) in enumerate(zip(exp_cp, act_cp)):
            if exp != act:
                lines.append(f"  first divergent run-0 checkpoint: "
                             f"index {index}, expected {exp}, got {act}")
                break
    if expected.get("journal_digest") != actual.get("journal_digest"):
        lines.append(f"  journal bytes: expected "
                     f"{expected.get('journal_digest')}, got "
                     f"{actual.get('journal_digest')}")
    if not lines:
        # Digest drift outside the summarized fields (verdict structure,
        # failure messages, non-first-run hashes).
        lines.append(f"  report digest: expected {expected.get('digest')}, "
                     f"got {actual.get('digest')} (summary fields match — "
                     f"drift is in the full serialized report)")
    return [f"{name}:"] + lines


def verify_suite(fixture: dict, cases=DEFAULT_SUITE, progress=None) -> list:
    """Diff the recomputed suite against *fixture*.

    Returns a flat list of diff lines — empty means the gate passes.
    Cases missing from the fixture, and fixture entries no longer in the
    suite, both count as drift: the fixture must describe exactly the
    committed suite.
    """
    recorded = fixture.get("cases", {})
    actual = compute_suite(cases, progress=progress)
    problems = []
    for name in sorted(set(recorded) | set(actual)):
        if name not in recorded:
            problems.append(f"{name}: not in fixture "
                            f"(record with 'repro golden update')")
        elif name not in actual:
            problems.append(f"{name}: in fixture but not in the suite "
                            f"(stale entry — re-record)")
        else:
            problems.extend(diff_case(name, recorded[name], actual[name]))
    return problems
