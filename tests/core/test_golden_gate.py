"""The golden-digest self-determinism gate (`repro.core.checker.golden`).

The contract: the checker's serialized output is a pure function of
(workload, seed, scheme) — so computing the suite twice yields the same
digests, the committed fixture matches the current build, and a
deliberate one-bit perturbation of the hash mixer is caught with a
*pointed* diff naming the first divergent checkpoint, not a bare
"digest mismatch".
"""

import os

import pytest

from repro.core.checker.golden import (DEFAULT_SUITE, GoldenCase,
                                       canonical_json, compute_suite,
                                       diff_case, digest_payload,
                                       load_fixture, verify_suite,
                                       write_fixture)
from repro.core.engine.executors import resolve_executor, resolve_workers
from repro.core.hashing.mixers import SplitMix64Mixer
from repro.errors import CheckerError

COMMITTED_FIXTURE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "fixtures", "golden", "checker_digests.json")

#: One fast case for perturbation tests (full-suite runs are covered by
#: the committed-fixture test below).
FAST_SUITE = (GoldenCase("session-fft-hw", "fft"),)


# -- digest plumbing -----------------------------------------------------------


def test_canonical_json_is_key_order_independent():
    assert canonical_json({"b": 1, "a": [2, 3]}) == \
        canonical_json({"a": [2, 3], "b": 1})
    assert digest_payload({"b": 1, "a": 2}) == digest_payload({"a": 2, "b": 1})
    assert digest_payload({"a": 2}) != digest_payload({"a": 3})


def test_case_validation():
    with pytest.raises(CheckerError):
        GoldenCase("bad", "fft", kind="nope")
    with pytest.raises(CheckerError):
        GoldenCase("bad", "fft", kind="campaign")  # campaigns need inputs


# -- the self-determinism property ---------------------------------------------


def test_suite_is_bit_identical_across_passes():
    first = compute_suite(FAST_SUITE)
    second = compute_suite(FAST_SUITE)
    assert first == second
    entry = first["session-fft-hw"]
    assert entry["digest"].startswith("sha256:")
    assert entry["deterministic"] is True
    assert entry["run0_checkpoints"]


def test_verify_roundtrip_through_fixture_file(tmp_path):
    path = str(tmp_path / "digests.json")
    write_fixture(path, compute_suite(FAST_SUITE))
    fixture = load_fixture(path)
    assert verify_suite(fixture, FAST_SUITE) == []
    # Twice: the gate's CI mode runs verify twice back to back.
    assert verify_suite(fixture, FAST_SUITE) == []


def test_missing_fixture_is_a_pointed_error(tmp_path):
    with pytest.raises(CheckerError, match="repro golden update"):
        load_fixture(str(tmp_path / "nope.json"))


def test_version_mismatch_is_a_pointed_error(tmp_path):
    path = str(tmp_path / "digests.json")
    with open(path, "w") as handle:
        handle.write('{"fixture_version": 999, "cases": {}}')
    with pytest.raises(CheckerError, match="fixture_version"):
        load_fixture(path)


def test_committed_fixture_matches_this_build():
    """The real gate: the repo's committed digests vs the current code."""
    problems = verify_suite(load_fixture(COMMITTED_FIXTURE), DEFAULT_SUITE)
    assert problems == [], "\n".join(problems)


def test_pooled_twins_digest_as_their_serial_cases():
    """Each ``-pool`` case runs on the process pool, yet pins the same
    digest as its serial case: the gate covers pool code, and the
    fixture cannot drift between the two (the test above pins the
    fixture to the build)."""
    cases = {case.name: case for case in DEFAULT_SUITE}
    twins = sorted(name for name in cases if name.endswith("-pool"))
    assert twins == ["session-sb-visible-late-tso-pool",
                     "session-seeded-radix-ndet-pool"]
    fixture = load_fixture(COMMITTED_FIXTURE)["cases"]
    for twin in twins:
        config = cases[twin].check_config()
        assert resolve_executor(config.executor,
                                resolve_workers(config.workers)) \
            == "process-pool"
        serial = twin.removesuffix("-pool")
        assert fixture[twin]["digest"] == fixture[serial]["digest"]


# -- drift detection -----------------------------------------------------------


def test_one_bit_mixer_perturbation_fails_with_a_pointed_diff(
        tmp_path, monkeypatch):
    """Flip one bit of the SplitMix64 golden-gamma constant: every
    checkpoint hash moves, and the gate must say *where*, not just that
    a digest changed."""
    path = str(tmp_path / "digests.json")
    write_fixture(path, compute_suite(FAST_SUITE))
    fixture = load_fixture(path)

    monkeypatch.setattr(SplitMix64Mixer, "_GOLDEN",
                        SplitMix64Mixer._GOLDEN ^ 1)
    problems = verify_suite(fixture, FAST_SUITE)
    assert problems, "a perturbed mixer must not verify"
    text = "\n".join(problems)
    assert "session-fft-hw" in text
    assert "first divergent run-0 checkpoint: index 0" in text
    assert "expected" in text and "got" in text


def test_missing_and_stale_cases_count_as_drift(tmp_path):
    path = str(tmp_path / "digests.json")
    entries = compute_suite(FAST_SUITE)
    entries["ghost-case"] = {"digest": "sha256:0"}
    write_fixture(path, entries)
    problems = verify_suite(load_fixture(path), FAST_SUITE)
    assert any("ghost-case" in p and "stale" in p for p in problems)

    write_fixture(path, {})
    problems = verify_suite(load_fixture(path), FAST_SUITE)
    assert any("not in fixture" in p for p in problems)


def test_diff_case_points_at_summary_fields():
    expected = {"digest": "sha256:a", "outcome": "deterministic",
                "deterministic": True, "runs": 3}
    actual = {"digest": "sha256:b", "outcome": "nondeterministic",
              "deterministic": False, "runs": 3}
    lines = diff_case("case", expected, actual)
    text = "\n".join(lines)
    assert "outcome: expected 'deterministic', got 'nondeterministic'" in text


def test_diff_case_falls_back_to_digest_note():
    expected = {"digest": "sha256:a", "outcome": "deterministic"}
    actual = {"digest": "sha256:b", "outcome": "deterministic"}
    text = "\n".join(diff_case("case", expected, actual))
    assert "drift is in the full serialized report" in text
