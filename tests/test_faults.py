"""Seeded fault trials: each fixture is built once and copied per trial."""

from graypath.faults import corrupt_graycat, fault_detected, run_fault_trials
from graypath.fixtures import fixture
from graypath.kernel import all_pass, check_gray_axioms, structural_violations

NAMES = ["INT", "BIG", "PAIR", "CYC2", "TWIST", "CHAIN3"]


def test_fault_trials_build_each_fixture_once():
    built = []

    def counted(name):
        built.append(name)
        return fixture(name)
    result = run_fault_trials(counted, NAMES, 24, seed=5)
    assert built == NAMES
    # the trials a fresh fixture per trial gives
    misses = []
    for i in range(24):
        name = NAMES[i % len(NAMES)]
        D, info = corrupt_graycat(fixture(name), 5 + i)
        if not fault_detected(D):
            misses.append((name, 5 + i, info))
    assert result == (24 - len(misses), 24, misses)


def test_fault_trials_match_the_full_check_on_seeds_0_to_39():
    """fault_detected asks for a verdict only; over seeds 0-39 on the
    fixtures of `faults all` it agrees, trial by trial, with the full
    report of check_gray_axioms."""
    misses = []
    for i in range(40):
        name = NAMES[i % len(NAMES)]
        D, info = corrupt_graycat(fixture(name), i)
        verdict = bool(structural_violations(D)) \
            or not all_pass(check_gray_axioms(D))
        assert fault_detected(D) == verdict, (name, i, info)
        if not verdict:
            misses.append((name, i, info))
    assert run_fault_trials(fixture, NAMES, 40) == (40 - len(misses), 40,
                                                     misses)
