"""GrayCat's face index against a linear scan of cells[d].

by_src, by_tgt and between must return exactly the cells a filtered scan
of cells[d] finds, in cells[d] order, for every face value and every face
dimension k < d; the checkers' reports depend on that order.  The scan
takes a k-face the way the checkers did before the index: src0/tgt0 for
k = 0, src(2, src(3, .)) and tgt(2, src(3, .)) for a 3-cell and k = 1.
"""

import pytest

from graypath.faults import copy_graycat
from graypath.fixtures import fixture, fixture_names
from graypath.kernel import GrayCat
from graypath.pathcomp import build_pullback
from graypath.pathspace import build_pathspace

ABSENT = ("not", "a", "cell")


def face(C, which, d, k, c):
    """The k-dimensional source or target of the d-cell c, by hand."""
    if k == d - 1:
        return C.src(d, c) if which == "src" else C.tgt(d, c)
    if k == 0:
        return C.src0(d, c) if which == "src" else C.tgt0(d, c)
    a = C.src(3, c)
    return C.src(2, a) if which == "src" else C.tgt(2, a)


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
        for k in range(d):
            for x in list(C.cells[k]) + [ABSENT]:
                for which, by in (("src", C.by_src), ("tgt", C.by_tgt)):
                    assert by(d, x, k) == tuple(
                        c for c in C.cells[d] if face(C, which, d, k, c) == x)


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
    C = fixture("BIG")
    assert C.by_tgt(3, "idy", 1) == ("id[id[idy]]",)
    D = copy_graycat(C)
    D.tgt_[2]["alpha"] = "idy"
    assert D.by_tgt(2, "g") == ("id[g]",)
    assert D.by_tgt(3, "idy", 1) == ("id[id[idy]]", "id[alpha]")
    assert C.by_tgt(3, "idy", 1) == ("id[id[idy]]",)
    assert_index_matches_scan(D)


def test_non_globular_faces_follow_the_source_walk():
    # alpha: f => g with f: x -> y but g: x -> z, so alpha's faces end at
    # different 0-cells; its 0-target is f's target, as tgt0 has it
    C = GrayCat("SKEW")
    for x in ("x", "y", "z"):
        C.add_cell(0, x)
    C.add_cell(1, "f", "x", "y")
    C.add_cell(1, "g", "x", "z")
    C.add_cell(2, "alpha", "f", "g")
    C.add_cell(2, "beta", "g", "f")
    C.add_cell(3, "G", "alpha", "beta")
    assert C.by_tgt(2, "y", 0) == ("alpha",)
    assert C.by_tgt(2, "z", 0) == ("beta",)
    assert C.by_src(2, "x", 0) == ("alpha", "beta")
    assert C.by_tgt(3, "y", 0) == ("G",)
    assert C.by_tgt(3, "z", 0) == ()
    assert C.by_src(3, "f", 1) == ("G",)
    assert C.by_tgt(3, "g", 1) == ("G",)
    assert_index_matches_scan(C)



@pytest.mark.parametrize("name", ["BIG", "TWIST", "CHAIN4", "path(BIG)"])
def test_either_is_a_scan_with_an_or_condition(name):
    """either(d, xs, ys) keeps the cells a scan of cells[d] keeps when a
    cell is in xs or in ys, in the same order; the checker's two-condition
    loops depend on that order."""
    C = build_pathspace(fixture("BIG")) if name == "path(BIG)" else fixture(name)
    for d in (1, 2, 3):
        lookups = [()] + [by(d, x) for x in C.cells[d - 1]
                          for by in (C.by_src, C.by_tgt)]
        for xs in lookups:
            for ys in lookups:
                assert C.either(d, xs, ys) == tuple(
                    c for c in C.cells[d] if c in xs or c in ys)
