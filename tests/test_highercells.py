"""The bigon tower: 2- and 3-paths, whiskers, horizontal composites, tensor."""

import pytest

from graypath.fixtures import fixture
from graypath.highercells import (Tower, _pairs, assemble_internal_graycat,
                                  check_1cartesian, undegenerate,
                                  functorial_face)
from graypath.kernel import FactorizationFailed, GrayError, StrictMap, all_pass
from graypath.pathspace import PPrime, PathView, pd0, pd1


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


def test_twist_bigon_counts(twist_tower):
    DD = twist_tower.DD
    assert [len(DD.cells[d]) for d in range(4)] == [19, 274, 673, 745]


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
                t = tw.tensor_t(1, b, a)
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
            assert tw.tensor_t(1, b, a) == scan[0]
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


# -- the tower reads its own stages --------------------------------------------

TOWER_FIXTURES = ["T1", "INT", "BIG", "PAIR", "CYC2", "CHAIN3"]


@pytest.fixture(scope="module")
def towers():
    return {}


def _tower(towers, name):
    if name not in towers:
        towers[name] = Tower(fixture(name))
    return towers[name]


@pytest.mark.parametrize("name", TOWER_FIXTURES)
def test_faces_by_projection_match_the_degeneracy_oracle(towers, name):
    """dbar and dbar3 read a face of the dj-image; the oracle undoes the
    degeneracy of the componentwise face image."""
    tw = _tower(towers, name)
    for d in range(4):
        for c in tw.DD.cells[d]:
            for w in (0, 1):
                oracle = undegenerate(tw.H, d, functorial_face(tw.H, d, c, w))
                assert oracle is not None
                assert tw.dbar(d, c, w) == oracle
        for c in tw.DDD.cells[d]:
            for w in (0, 1):
                oracle = undegenerate(tw.PH, d,
                                      functorial_face(tw.PH, d, c, w))
                assert oracle is not None
                assert tw.dbar3(d, c, w) == oracle


def test_faces_reject_cells_outside_their_stage(big_tower):
    tw = big_tower
    p = tw.PH.cells[1][0]
    with pytest.raises(FactorizationFailed, match="is not a 2-path"):
        tw.dbar(1, p, 0)
    with pytest.raises(FactorizationFailed, match="is not a 3-path"):
        tw.dbar3(0, tw.DD.cells[0][0], 0)


@pytest.mark.parametrize("name", ["BIG", "CYC2", "CHAIN3"])
def test_pairs_by_index_equal_the_filtered_double_loop(towers, name):
    tw = _tower(towers, name)
    cases = [(tw.DD, tw.dbar), (tw.DD, tw.dj), (tw.DDD, tw.dbar3)]
    found = 0
    for C, face in cases:
        for d in range(4):
            cells = C.cells[d]
            left = lambda b, d=d: face(d, b, 0)
            right = lambda a, d=d: face(d, a, 1)
            loop = [(b, a) for b in cells for a in cells if left(b) == right(a)]
            assert list(_pairs(cells, left, right)) == loop
            found += len(loop)
    assert found > 0


def _outside(tw, d):
    """A path cell over DD that is not a 3-path d-cell."""
    return next(c for c in tw.DD.cells[d + 1] if not tw.DDD.has_cell(d, c))


def test_constructions_that_escape_the_3_path_space_fail(monkeypatch):
    from graypath import highercells, pathspace
    tw = Tower(fixture("BIG"))
    out = _outside(tw, 0)
    c, A, p = tw.DDD.cells[0][0], tw.DD.cells[0][0], tw.PH.cells[0][0]
    bg, bf = next(_pairs(tw.DD.cells[0], lambda b: tw.dbar(0, b, 0),
                         lambda a: tw.dbar(0, a, 1)))
    real_sq = pathspace.sq
    monkeypatch.setattr(highercells, "m_apply", lambda *args: out)
    monkeypatch.setattr(PPrime, "cell", lambda self, d, z: out)
    monkeypatch.setattr(pathspace, "sq", lambda B, *args:
                        out if B is tw.PH else real_sq(B, *args))
    for name, call in [("mbarbar", lambda: tw.mbarbar(0, c, c)),
                       ("wbar_l", lambda: tw.wbar_l(0, c, p)),
                       ("wtil_r", lambda: tw.wtil_r(0, A, c)),
                       ("tensor_obj", lambda: tw.tensor_obj(bg, bf))]:
        with pytest.raises(FactorizationFailed,
                           match=f"^{name} output escaped the 3-path space$"):
            call()


def test_three_paths_returned_are_the_stored_objects(big_tower):
    """Like mbar, w_l and w_r for DD, the 3-path constructions return the
    object DDD stores, not an equal copy."""
    tw = big_tower
    DD, DDD, PH = tw.DD, tw.DDD, tw.PH
    calls = {
        "mbarbar": [(tw.mbarbar, b, a) for b, a in _pairs(
            DDD.cells[0], lambda b: pd0(DD, 0, b), lambda a: pd1(DD, 0, a))],
        "wbar_l": [(tw.wbar_l, c, p) for c in DDD.cells[0] for p in PH.cells[0]],
        "wbar_r": [(tw.wbar_r, p, c) for c in DDD.cells[0] for p in PH.cells[0]],
        "wtil_l": [(tw.wtil_l, c, A) for c in DDD.cells[0] for A in DD.cells[0]],
        "wtil_r": [(tw.wtil_r, A, c) for c in DDD.cells[0] for A in DD.cells[0]],
    }
    for name, cases in calls.items():
        returned = 0
        for f, x, y in cases:
            try:
                r = f(0, x, y)
            except (GrayError, KeyError):
                continue
            assert DDD.canonical(0, r) is r, name
            returned += 1
        assert returned > 0, name
    pairs = list(_pairs(DD.cells[0], lambda b: tw.dbar(0, b, 0),
                        lambda a: tw.dbar(0, a, 1)))
    assert pairs
    for b, a in pairs:
        t = tw.tensor_obj(b, a)
        assert DDD.canonical(0, t) is t


def test_hom_builds_each_whisker_pprime_once_per_tower(monkeypatch):
    """[PAIR,BIG] whiskers 3-paths through P' of mbar, w_l and w_r: each is
    built once per Tower, not once per call."""
    from graypath import highercells
    from graypath.homspace import hom_graycat
    built = []

    class Counted(PPrime):
        def __init__(self, F):
            built.append(F)
            super().__init__(F)

    monkeypatch.setattr(highercells, "PPrime", Counted)
    C, _, reports = hom_graycat(fixture("PAIR"), fixture("BIG"))
    assert all(r.ok for r in reports) and C.cells[3]
    per_tower = {}
    for F in built:
        if isinstance(F, highercells.OpMap):
            per_tower.setdefault(id(F.cod), []).append(F.name)
    assert per_tower
    for names in per_tower.values():
        assert len(names) == len(set(names)) <= 3


def test_a_tower_with_its_whiskers_is_freed_without_the_collector():
    """The Tower keeps P' of mbar, w_l and w_r, and their OpMaps hold it
    weakly, so dropping the last reference frees it and its stages at once,
    not at the next full garbage collection."""
    import gc
    import weakref
    tw = Tower(fixture("BIG"))
    c, A, p = tw.DDD.cells[0][0], tw.DD.cells[0][0], tw.PH.cells[0][0]
    for call in (lambda: tw.wbar_l(0, c, p), lambda: tw.wbar_r(0, p, c),
                 lambda: tw.wtil_l(0, c, A)):
        try:
            call()
        except (GrayError, KeyError):
            pass
    assert sorted(pp.F.name for pp in tw._pps.values()) == ["mbar", "w_l",
                                                            "w_r"]
    ref, dd = weakref.ref(tw), weakref.ref(tw.DD)
    gc.disable()
    try:
        del tw
        assert ref() is None and dd() is None
    finally:
        gc.enable()


# -- no law skips a tuple because its construction raised -----------------------


def _admitted(tw, method):
    """One (d, x, y) that the law of method admits by faces on BIG, not the
    first: a 3-path 1-cell with a path cell or bigon that composes with it,
    or a composable pair of whisker composites of whisk23-interchange."""
    DD, DDD, PH, H = tw.DD, tw.DDD, tw.PH, tw.H
    c = DDD.cells[1][3]
    if method == "wbar_l":
        key = tw.dbar(1, pd0(DD, 1, c), 0)
        return 1, c, next(p for p in PH.cells[1] if pd1(H, 1, p) == key)
    if method == "wtil_r":
        key = tw.dj(1, pd0(DD, 1, c), 1)
        return 1, next(A for A in DD.cells[1] if tw.dj(1, A, 0) == key), c
    pairs = list(_pairs(DDD.cells[0], lambda b: tw.dbar3(0, b, 0),
                        lambda a: tw.dbar3(0, a, 1)))
    b, a = pairs[len(pairs) // 2]
    return 0, tw.wtil_l(0, b, pd1(DD, 0, a)), tw.wtil_r(0, pd0(DD, 0, b), a)


@pytest.mark.parametrize("method, law", [("wbar_l", "wbar-extension"),
                                         ("wtil_r", "wtil-extension"),
                                         ("mbarbar", "whisk23-interchange")])
def test_a_construction_that_raises_on_an_admitted_tuple_fails_its_law(
        monkeypatch, method, law):
    from graypath.kernel import NotComposable
    tw = Tower(fixture("BIG"))
    bad = _admitted(tw, method)
    real = getattr(Tower, method)

    def raising(self, d, x, y):
        if (d, x, y) == bad:
            raise NotComposable(f"{method} on an admitted tuple")
        return real(self, d, x, y)

    monkeypatch.setattr(Tower, method, raising)
    rep, = [r for r in assemble_internal_graycat(tw) if r.law == law]
    assert rep.status == "fail"
    assert rep.counterexample == ("error", "NotComposable",
                                  f"{method} on an admitted tuple")


# -- cells that keep their hash ------------------------------------------------


def _plain(c):
    """c with every nested tuple a plain tuple."""
    return tuple(map(_plain, c)) if isinstance(c, tuple) else c


def _nodes(c):
    yield c
    if isinstance(c, tuple):
        for x in c:
            yield from _nodes(x)


@pytest.mark.parametrize("name, stage", [
    *((n, s) for n in ("T1", "INT", "BIG", "CYC2", "PAIR")
      for s in ("DD", "DDD")),
    ("PAIR", "path(path)")])
def test_cells_that_keep_their_hash_agree_with_plain_tuples(towers, name,
                                                            stage):
    """A path cell over a path space keeps the hash of its plain-tuple
    copy, so the copy finds it: canonical returns the stored object.  The
    loader builds plain tuples, and its document writes the same bytes."""
    from graypath import presentation
    from graypath.pathspace import build_pathspace
    if stage == "path(path)":
        C = build_pathspace(build_pathspace(fixture(name)))
    else:
        C = getattr(_tower(towers, name), stage)
    kept = 0
    for d in C.DIMS:
        for c in C.cells[d]:
            plain = _plain(c)
            assert hash(c) == hash(plain)
            assert C.canonical(d, plain) is c
            kept += type(c) is not tuple
    assert kept
    text = presentation.dumps(C)
    loaded = presentation.loads(text)
    assert all(type(x) is tuple for d in loaded.DIMS
               for c in loaded.cells[d] for x in _nodes(c)
               if isinstance(x, tuple))
    assert presentation.dumps(loaded) == text


@pytest.mark.parametrize("name", ["T1", "INT", "BIG", "PAIR", "CYC2", "TWIST",
                                  "CHAIN3", "CHAIN4"])
def test_path_cells_over_a_fixture_are_plain_tuples(name):
    """A fixture's cells are interned ids, so path(H) builds no cell that
    keeps its hash: hashing a small tuple in C is the cheaper route."""
    from graypath.pathspace import build_pathspace
    PH = build_pathspace(fixture(name))
    for d in PH.DIMS:
        for c in PH.cells[d]:
            assert all(type(x) is tuple for x in _nodes(c)
                       if isinstance(x, tuple))


@pytest.mark.parametrize("name", ["BIG", "PAIR", "CYC2"])
def test_whisker_and_internal_laws_check_every_tuple(towers, name):
    """wtil-extension checks every A that composes with c, and
    P-internal-category every pair of composable cells and every unit:
    their tuple counts are those of a double loop over all candidates."""
    from graypath.pathspace import path_squares
    tw = _tower(towers, name)
    H, PH, DD, DDD = tw.H, tw.PH, tw.DD, tw.DDD
    til = 0
    for d in (0, 1):
        for c in DDD.cells[d]:
            below = pd0(DD, d, c)
            til += 2 * sum(tw.dj(d, A, 0) == tw.dj(d, below, 1)
                           for A in DD.cells[d])
            til += 2 * sum(tw.dj(d, A, 1) == tw.dj(d, below, 0)
                           for A in DD.cells[d])
    cells = (PH.cells[1], path_squares(PH, PH.cells[1]))
    pm = 0
    for d in (0, 1):
        pm += len(cells[d])
        pm += 2 * sum(functorial_face(H, d, b, 0) == functorial_face(H, d, a, 1)
                      for b in cells[d] for a in cells[d])
    reports = {r.law: r for r in assemble_internal_graycat(tw)}
    assert reports["wtil-extension"].tuples_checked == til
    assert reports["P-internal-category"].tuples_checked == pm


def test_a_cell_pickled_in_another_process_hashes_as_here():
    """A pickled cell that keeps its hash is rebuilt, not restored with the
    hash of the process that pickled it, whose string hashes differ."""
    import os
    import pickle
    import subprocess
    import sys
    from pathlib import Path

    import graypath
    code = ("import pickle, sys\n"
            "from graypath.fixtures import fixture\n"
            "from graypath.highercells import Tower\n"
            "cells = Tower(fixture('BIG')).DDD.cells[2]\n"
            "sys.stdout.buffer.write(pickle.dumps(cells))\n")
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=str(Path(graypath.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, check=True).stdout
    cells = pickle.loads(out)
    assert cells and type(cells[0]) is not tuple
    for c in cells:
        assert hash(c) == hash(_plain(c))
