"""A seeded corruption keeps its input's structure, so fault_detected asks
only the Gray laws."""

import pytest

from graypath.faults import corrupt_graycat
from graypath.fixtures import fixture
from graypath.kernel import structural_violations

NAMES = ["INT", "BIG", "PAIR", "CYC2", "TWIST", "CHAIN3"]


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_copies_have_no_structural_violations(name):
    """corrupt_graycat swaps one table value for a declared cell of the
    same dimension: over seeds 0-199, structural_violations finds nothing
    in any corrupted copy of the fixtures of `faults all`."""
    C = fixture(name)
    assert structural_violations(C) == []
    for seed in range(200):
        D, info = corrupt_graycat(C, seed)
        assert structural_violations(D) == [], (seed, info)
