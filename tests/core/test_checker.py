"""Tests for the multi-run determinism checker (Sections 2 and 7)."""

import pytest

from repro.core.checker.distribution import (distribution_of,
                                             format_distribution,
                                             format_groups,
                                             group_distributions,
                                             point_distributions)
from repro.core.checker.runner import CheckConfig, check_determinism
from repro.core.hashing.rounding import default_policy, no_rounding
from repro.core.schemes.base import SchemeConfig
from repro.errors import CheckerError

from _programs import AllocProgram, Fig1Program, RacyProgram


class TestDistributions:
    def test_distribution_of(self):
        assert distribution_of([1, 1, 1]) == (3,)
        assert distribution_of([1, 2, 1, 3]) == (2, 1, 1)

    def test_point_distributions(self):
        points = point_distributions(
            ["a", "end"], [(10, 20), (10, 21), (10, 20)])
        assert points[0].deterministic
        assert points[0].distribution == (3,)
        assert points[1].distribution == (2, 1)
        assert points[1].n_states == 2
        assert points[1].n_runs == 3

    def test_group_distributions(self):
        points = point_distributions(
            ["a", "b", "c"],
            [(1, 1, 5), (1, 2, 6), (1, 1, 7)])
        groups = group_distributions(points)
        assert groups[(3,)] == 1
        assert groups[(2, 1)] == 1
        assert groups[(1, 1, 1)] == 1

    def test_formatting(self):
        assert format_distribution((16, 11, 3)) == "16-11-3"
        points = point_distributions(["a"], [(1,), (1,)])
        assert "deterministic" in format_groups(points)


def test_deterministic_program(fig1):
    result = check_determinism(fig1, runs=8)
    assert result.deterministic
    verdict = result.verdict("main")
    assert verdict.n_ndet_points == 0
    assert verdict.first_ndet_run is None
    assert verdict.det_at_end


def test_nondeterministic_program(racy):
    result = check_determinism(racy, runs=10)
    assert not result.deterministic
    verdict = result.verdict("main")
    assert verdict.n_ndet_points >= 1
    assert verdict.first_ndet_run is not None
    assert 2 <= verdict.first_ndet_run <= 10


def test_first_ndet_run_is_one_based():
    """Table 1 reports 'first NDet run' counting the reference run as 1."""
    racy = RacyProgram()
    result = check_determinism(racy, runs=30)
    assert result.verdict("main").first_ndet_run >= 2


def test_stop_on_first():
    racy = RacyProgram()
    result = check_determinism(racy, runs=30, stop_on_first=True)
    assert result.runs < 30  # stopped as soon as a mismatch appeared
    assert not result.deterministic


def test_multi_variant_session(fig1):
    result = check_determinism(fig1, runs=5, schemes={
        "bitwise": SchemeConfig(kind="hw", rounding=no_rounding()),
        "rounded": SchemeConfig(kind="hw", rounding=default_policy()),
    })
    assert set(result.verdicts) == {"bitwise", "rounded"}
    assert result.verdict("bitwise").deterministic
    assert result.verdict("rounded").deterministic


def test_malloc_replay_controls_alloc_nondeterminism(allocp):
    controlled = check_determinism(allocp, runs=8)
    assert controlled.deterministic
    uncontrolled = check_determinism(AllocProgram(), runs=8,
                                     malloc_replay=False)
    assert not uncontrolled.deterministic


def test_requires_two_runs(fig1):
    with pytest.raises(CheckerError):
        check_determinism(fig1, runs=1)


def test_config_overrides_are_applied(fig1):
    config = CheckConfig(runs=20)
    result = check_determinism(fig1, config, runs=4)
    assert result.runs == 4


def test_fp_fig1_rounding_ladder():
    """Figure 1 with FP operands: bit-by-bit nondet, rounded det."""
    # (1.1 + 0.7) + 0.13 != (1.1 + 0.13) + 0.7 — one ulp apart, far
    # below the 0.001 rounding grain.
    program = Fig1Program(fp=True, initial=1.1, locals_=(0.7, 0.13))
    result = check_determinism(program, runs=12, schemes={
        "bitwise": SchemeConfig(kind="hw", rounding=no_rounding()),
        "rounded": SchemeConfig(kind="hw", rounding=default_policy()),
    })
    assert not result.verdict("bitwise").deterministic
    assert result.verdict("rounded").deterministic


def test_verdict_point_counts_sum(racy):
    result = check_determinism(racy, runs=6)
    verdict = result.verdict("main")
    assert verdict.n_det_points + verdict.n_ndet_points == len(verdict.points)


def test_records_kept(fig1):
    result = check_determinism(fig1, runs=4)
    assert len(result.records) == 4
    assert all(r.program == "fig1" for r in result.records)
    assert result.structures_match


def test_empty_point_list_is_not_deterministic():
    """Regression: a session with zero comparable checkpoints must not
    silently read as deterministic — it proved nothing."""
    from repro.core.engine.judge import make_verdict

    verdict = make_verdict("main", False, [], [(), ()], 2)
    assert not verdict.deterministic
    assert not verdict.det_at_end
    assert verdict.n_det_points == 0
    assert verdict.n_ndet_points == 0
