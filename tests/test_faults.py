"""Seeded fault trials: each fixture is built once and copied per trial."""

from graypath.faults import corrupt_graycat, fault_detected, run_fault_trials
from graypath.fixtures import fixture

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
