"""The Figure 7 seeded bugs and Table 2's detection results."""

import pytest

from repro.core.checker.runner import (OUTCOME_NONDETERMINISTIC,
                                       check_determinism)
from repro.core.hashing.kernels import has_numpy
from repro.core.hashing.rounding import default_policy
from repro.core.schemes.base import SchemeConfig
from repro.workloads import (Radix, WaterNS, WaterSP, seeded_program,
                             seeded_radix, seeded_waterNS, seeded_waterSP)
from repro.workloads.seeded_bugs import SEEDED_BUGS


def check_rounded(program, runs=12):
    """Table 2 checks the formerly-deterministic apps in their
    deterministic configuration, i.e. with FP rounding on."""
    result = check_determinism(
        program, runs=runs,
        schemes={"r": SchemeConfig(kind="hw", rounding=default_policy())})
    return result.verdict("r")


@pytest.mark.parametrize("app", [name for name, _bug in SEEDED_BUGS])
def test_seeded_bug_detected(app):
    verdict = check_rounded(seeded_program(app))
    assert not verdict.deterministic
    assert verdict.first_ndet_run is not None


@pytest.mark.skipif(not has_numpy(), reason="numpy backend not installed")
@pytest.mark.parametrize("app,bug", SEEDED_BUGS)
def test_seeded_bug_detected_under_numpy_batched_path(app, bug):
    """Catch-rate meta-test: the numpy kernel must flag every Table 2
    bug with the same verdict class (a nondeterministic session, not a
    crash) as the pure-Python reference kernel."""
    result = check_determinism(
        seeded_program(app), runs=12,
        schemes={"r": SchemeConfig(kind="hw", rounding=default_policy(),
                                   backend="numpy")})
    assert result.outcome == OUTCOME_NONDETERMINISTIC, (app, bug)
    verdict = result.verdict("r")
    assert not verdict.deterministic
    assert verdict.first_ndet_run is not None
    # Same detection point as the reference session.
    scalar = check_determinism(
        seeded_program(app), runs=12,
        schemes={"r": SchemeConfig(kind="hw", rounding=default_policy(),
                                   backend="python")})
    assert verdict.first_ndet_run == scalar.verdict("r").first_ndet_run
    assert (verdict.n_det_points, verdict.n_ndet_points) == (
        scalar.verdict("r").n_det_points, scalar.verdict("r").n_ndet_points)


def test_unseeded_hosts_are_deterministic():
    for program in (WaterNS(), WaterSP(), Radix()):
        verdict = check_rounded(program)
        assert verdict.deterministic, program.name


def test_waterNS_point_mix_matches_table2():
    """Table 2: waterNS semantic bug -> 12 det / 9 ndet points."""
    verdict = check_rounded(seeded_waterNS(), runs=30)
    assert (verdict.n_det_points, verdict.n_ndet_points) == (12, 9)


def test_waterSP_point_mix_shape():
    """Table 2 reports 9/12 for waterSP; the analog lands adjacent
    (8/13) — more nondeterministic than deterministic points, unlike
    waterNS, which is the shape that matters."""
    verdict = check_rounded(seeded_waterSP(), runs=30)
    assert verdict.n_ndet_points > verdict.n_det_points
    assert verdict.n_det_points >= 6


def test_radix_order_violation_partial_points():
    """Table 2: radix keeps a mix of det and ndet points because the
    violation has a single dynamic occurrence."""
    verdict = check_rounded(seeded_radix(), runs=30)
    assert verdict.n_det_points > 0
    assert verdict.n_ndet_points > 0


def test_radix_distribution_less_scattered_than_water():
    """Figure 8: radix's distributions are less scattered than the water
    bugs' (one dynamic occurrence limits the distinct outcomes)."""
    water = check_rounded(seeded_waterNS(), runs=20)
    radix = check_rounded(seeded_radix(), runs=20)

    def max_states(verdict):
        return max(p.n_states for p in verdict.points)

    assert max_states(radix) <= max_states(water)


def test_bugs_only_in_thread_3():
    """Figure 7 seeds the buggy path 'only for thread 3': with fewer
    than 4 workers the path never executes and the app stays clean."""
    verdict = check_rounded(WaterNS(n_workers=3, bug="semantic"))
    assert verdict.deterministic


def test_seeded_program_unknown_app():
    with pytest.raises(ValueError, match="no seeded bug"):
        seeded_program("fft")


def test_bug_argument_validated():
    with pytest.raises(ValueError):
        WaterNS(bug="off-by-one")
