"""The bigon tower: 2- and 3-paths, whiskers, horizontal composites, tensor."""

import pytest

from graypath.fixtures import fixture
from graypath.highercells import (Tower, assemble_internal_graycat,
                                  check_1cartesian, undegenerate,
                                  functorial_face)
from graypath.kernel import StrictMap, all_pass
from graypath.pathspace import PathView, pd0, pd1


@pytest.fixture(scope="module")
def big_tower():
    return Tower(fixture("BIG"))


@pytest.fixture(scope="module")
def twist_tower():
    return Tower(fixture("TWIST"))


def test_bigons_are_2cells_between_shared_endpoints(big_tower):
    """Independent enumeration: bigon count equals the 2-cell count."""
    tw = big_tower
    H = tw.H
    assert len(tw.DD.cells[0]) == len(H.cells[2]) == 5
    for q in tw.DD.cells[0]:
        assert H.is_id1(q[2]) and H.is_id1(q[3])


def test_dblbar_globularity(big_tower):
    tw = big_tower
    H = tw.H
    for d in range(4):
        for c in tw.DD.cells[d]:
            a0, a1 = tw.dj(d, c, 0), tw.dj(d, c, 1)
            assert pd0(H, d, a0) == pd0(H, d, a1)
            assert pd1(H, d, a0) == pd1(H, d, a1)


def test_ibar_joint_section(big_tower):
    tw = big_tower
    for d in range(4):
        for p in tw.PH.cells[d]:
            ib = tw.ibar(d, p)
            assert tw.dj(d, ib, 0) == p
            assert tw.dj(d, ib, 1) == p


def test_mbar_is_restricted_ambient_m(big_tower):
    from graypath.pathcomp import m_apply
    tw = big_tower
    count = 0
    for d in range(2):
        by = {}
        for a in tw.DD.cells[d]:
            by.setdefault(pd1(tw.PH, d, a), []).append(a)
        for b in tw.DD.cells[d]:
            for a in by.get(pd0(tw.PH, d, b), ()):
                r = tw.mbar(d, b, a)
                assert r == m_apply(tw.PH, d, b, a)
                assert tw.DD.has_cell(d, r)
                # face laws of the vertical multiplication
                assert tw.dj(d, r, 0) == tw.dj(d, a, 0)
                assert tw.dj(d, r, 1) == tw.dj(d, b, 1)
                count += 1
    assert count > 0


def test_whisker_by_identity_path_is_unchanged(big_tower):
    tw = big_tower
    for d in range(2):
        for A in tw.DD.cells[d]:
            from graypath.pathspace import degeneracy
            p0 = degeneracy(tw.H, d, tw.dbar(d, A, 1))
            p1 = degeneracy(tw.H, d, tw.dbar(d, A, 0))
            assert tw.w_r(d, p0, A) == A
            assert tw.w_l(d, A, p1) == A


def test_mbar_map_is_pseudo(big_tower):
    from graypath.resolution import validate_pseudo_map
    tw = big_tower
    Kb, mbar = tw.mbar_map()
    reports = validate_pseudo_map(mbar)
    assert all_pass(reports), [r for r in reports if not r.ok]


@pytest.mark.parametrize("name", ["T1", "BIG", "CYC2"])
def test_assemble_internal_graycat(name):
    reports = assemble_internal_graycat(Tower(fixture(name)))
    assert all_pass(reports), [r for r in reports if not r.ok]
    nonvacuous = {"reflexive-globular", "mbar-category", "whisker-extension",
                  "hcomp-faces", "mbarbar-category", "tensor-map",
                  "P-internal-category", "one-cartesian"}
    for r in reports:
        if r.law in nonvacuous:
            assert r.tuples_checked > 0, r.law


def test_assemble_with_strict_naturality():
    H = fixture("BIG")
    T = fixture("T1")
    maps = {0: {x: "*" for x in H.cells[0]},
            1: {f: "id*" for f in H.cells[1]},
            2: {a: "id[id*]" for a in H.cells[2]},
            3: {g: "id[id[id*]]" for g in H.cells[3]}}
    bang = StrictMap(H, T, maps, name="!")
    reports = assemble_internal_graycat(Tower(H), strict_functor=bang)
    assert all_pass(reports), [r for r in reports if not r.ok]
    nat = [r for r in reports if r.law == "strict-naturality"]
    assert nat and nat[0].tuples_checked > 0


def test_tensor_objects_twist_carry_interchanger(twist_tower):
    tw = twist_tower
    found = False
    for b in tw.DD.cells[0]:
        for a in tw.DD.cells[0]:
            if tw.dbar(0, b, 0) == tw.dbar(0, a, 1):
                t = tw.tensor_obj(b, a)
                assert t[4] == tw.h_l(0, b, a)
                assert t[5] == tw.h_r(0, b, a)
                if t[1][1] == "tau":
                    found = True
    assert found


def test_twist_three_paths_lift_p2(twist_tower):
    """DDD(TWIST), lifted from P2, has the cell counts that enumerating
    path(DD) and filtering by tri_keep gives, and is 1-Cartesian."""
    DDD = twist_tower.DDD
    assert [len(DDD.cells[d]) for d in range(4)] == [21, 322, 745, 817]
    rep = check_1cartesian(twist_tower)
    assert rep.ok and rep.tuples_checked > 0


def test_tensor_on_one_cells_unique_filler(big_tower):
    tw = big_tower
    count = 0
    for b in tw.DD.cells[1]:
        for a in tw.DD.cells[1]:
            if tw.dbar(1, b, 0) == tw.dbar(1, a, 1):
                t = tw.tensor_t(b, a)
                assert pd0(tw.DD, 1, t) == tw.h_l(1, b, a)
                assert pd1(tw.DD, 1, t) == tw.h_r(1, b, a)
                count += 1
    assert count > 0


def test_filler_index_matches_linear_scan(big_tower):
    """Tower.filler against a scan of DDD for every tensor_t pair."""
    tw = big_tower
    DDD, DD = tw.DDD, tw.DD
    count = 0
    for b in DD.cells[1]:
        for a in DD.cells[1]:
            if tw.dbar(1, b, 0) != tw.dbar(1, a, 1):
                continue
            src = tw.tensor_obj(b[4], a[4])
            tgt = tw.tensor_obj(b[5], a[5])
            hl, hr = tw.h_l(1, b, a), tw.h_r(1, b, a)
            scan = [w for w in DDD.cells[1]
                    if DDD.src(1, w) == src and DDD.tgt(1, w) == tgt
                    and pd0(DD, 1, w) == hl and pd1(DD, 1, w) == hr]
            assert [tw.filler(1, src, tgt, hl, hr)] == scan
            assert tw.tensor_t(b, a) == scan[0]
            count += 1
    assert count > 0


def test_one_cartesian(big_tower):
    rep = check_1cartesian(big_tower)
    assert rep.ok and rep.tuples_checked > 0


def test_undegenerate_roundtrip(big_tower):
    from graypath.pathspace import degeneracy
    tw = big_tower
    H = tw.H
    for d in range(4):
        for c in H.cells[d]:
            assert undegenerate(H, d, degeneracy(H, d, c)) == c


def test_p2_parallel_pairs(big_tower):
    tw = big_tower
    for d in range(4):
        for (u, v) in tw.P2.cells[d]:
            assert pd0(tw.PH, d, u) == pd0(tw.PH, d, v)
            assert pd1(tw.PH, d, u) == pd1(tw.PH, d, v)
