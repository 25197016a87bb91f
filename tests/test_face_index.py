"""GrayCat's face index against a linear scan of cells[d].

by_src, by_tgt and between must return exactly the cells a filtered scan
of cells[d] finds, in cells[d] order, for every face value; the checkers'
reports depend on that order.
"""

import pytest

from graypath.faults import corrupt_graycat
from graypath.fixtures import fixture, fixture_names
from graypath.kernel import GrayCat
from graypath.pathcomp import build_pullback
from graypath.pathspace import build_pathspace

ABSENT = ("not", "a", "cell")


def assert_index_matches_scan(C):
    for d in (1, 2, 3):
        faces = list(C.cells[d - 1]) + [ABSENT]
        for s in faces:
            from_s = tuple(c for c in C.cells[d] if C.src(d, c) == s)
            assert C.by_src(d, s) == from_s
            assert C.by_tgt(d, s) == tuple(c for c in C.cells[d]
                                           if C.tgt(d, c) == s)
            for t in faces:
                assert C.between(d, s, t) == tuple(c for c in from_s
                                                   if C.tgt(d, c) == t)


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_index(name):
    assert_index_matches_scan(fixture(name))


@pytest.mark.parametrize("name", ["BIG", "PAIR", "CYC2", "TWIST"])
def test_path_space_index(name):
    assert_index_matches_scan(build_pathspace(fixture(name)))


def test_pullback_index():
    H = fixture("BIG")
    assert_index_matches_scan(build_pullback(build_pathspace(H), H, 2))


def test_add_cell_drops_the_index():
    C = fixture("BIG")
    assert_index_matches_scan(C)
    C.add_cell(1, "f2", "x", "y")
    C.add_cell(2, "beta", "f", "f2")
    assert C.by_src(2, "f")[-1] == "beta"
    assert C.between(1, "x", "y")[-1] == "f2"
    assert_index_matches_scan(C)


def test_corrupted_copy_has_its_own_index():
    # the one-cell dimension makes corrupt_graycat swap a face
    C = GrayCat("ARROW")
    C.add_cell(0, "x")
    C.add_cell(0, "y")
    C.add_cell(1, "f", "x", "y")
    C.comp0_11[("f", "f")] = "f"
    assert C.by_src(1, "x") == ("f",)
    D, info = corrupt_graycat(C, 0)
    assert info[-1] == "face-swap" and D.src(1, "f") == "y"
    assert D.by_src(1, "x") == () and D.between(1, "y", "y") == ("f",)
    assert C.by_src(1, "x") == ("f",)
    assert_index_matches_scan(D)
