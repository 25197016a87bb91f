"""Hom-space constructions are built once per argument and keep their checks.

compose_0, trans_to_pseudo, trans_sq, acoc, mod_to_pseudo, mod_bigon and
pert_square keep their results on the objects they are built from, and a Tower keeps mbar,
w_l and w_r per argument.  These tests check that a memoized result is the
formula's result, that a construction that raises raises again, that [G,H]
runs each un-memoized body once per distinct argument, and that the
objects of [G,H] are keyed by the whole functor.
"""

import sys

import pytest

from graypath import homspace
from graypath.fixtures import fixture
from graypath.highercells import Tower
from graypath.homspace import (LaxTransformation, Modification, compose_0,
                               compose_0_oracle, Perturbation,
                               enumerate_modifications,
                               enumerate_perturbations,
                               enumerate_strict_functors,
                               enumerate_transformations, functor_key,
                               hom_graycat, mod_to_pseudo, pert_square,
                               trans_to_pseudo)
from graypath.kernel import (GrayError, Mismatch, NotComposable,
                             composable_keys)
from graypath.pathcomp import m_pseudo
from graypath.resolution import strict_as_pseudo


def _transformations(gname, hname):
    """(G, H, {(i, j): transformations F_i => F_j}) over the strict functors."""
    G, H = fixture(gname), fixture(hname)
    funs, _ = enumerate_strict_functors(G, H)
    pseudos = [strict_as_pseudo(F) for F in funs]
    trans = {(i, j): enumerate_transformations(F, Gp)[0]
             for i, F in enumerate(pseudos) for j, Gp in enumerate(pseudos)}
    return G, H, trans


def _composable(trans):
    for (i, j), ts in trans.items():
        for (j2, k), us in trans.items():
            if j2 == j:
                for a in ts:
                    for b in us:
                        yield b, a


@pytest.mark.parametrize("gname,pairs", [("INT", 30), ("PAIR", 80)])
def test_compose_0_memo_is_the_formula(gname, pairs):
    G, H, trans = _transformations(gname, "BIG")
    PH, K, m = m_pseudo(H)
    checked = 0
    for b, a in _composable(trans):
        ba = compose_0(b, a)
        assert compose_0(b, a) is ba
        assert ba.key() == homspace._compose_0(b, a).key()
        assert ba.key() == compose_0_oracle(b, a, PH, K, m).key()
        checked += 1
    assert checked == pairs


def test_compose_0_mismatch_raises_every_time():
    _, _, trans = _transformations("INT", "BIG")
    a = next(t for (_, j), ts in trans.items() if j == 0 for t in ts)
    b = next(t for (i, _), ts in trans.items() if i == 1 for t in ts)
    for _ in range(2):
        with pytest.raises(Mismatch):
            compose_0(b, a)
    assert b not in a._after


def _modifications(trans):
    for ts in trans.values():
        for a in ts:
            for b in ts:
                if a.F is b.F and a.G is b.G:
                    yield from enumerate_modifications(a, b)[0]


def test_conversion_memos_match_a_fresh_conversion():
    G, H, trans = _transformations("INT", "BIG")
    tower = Tower(H)
    for t in (t for ts in trans.values() for t in ts):
        P = trans_to_pseudo(t, tower.PH)
        assert trans_to_pseudo(t, tower.PH) is P
        fresh = homspace._trans_to_pseudo(t, tower.PH)
        assert (P.assignment, P.cocycle) == (fresh.assignment, fresh.cocycle)
    other = Tower(H)
    mods = list(_modifications(trans))
    assert len(mods) == 19
    for A in mods:
        Am = mod_to_pseudo(A, tower)
        assert mod_to_pseudo(A, tower) is Am
        fresh = mod_to_pseudo(A, other)
        assert fresh is not Am
        assert (Am.assignment, Am.cocycle) == (fresh.assignment,
                                               fresh.cocycle)


def test_corrupted_modification_raises_every_time():
    G, H, trans = _transformations("INT", "BIG")
    tower = Tower(H)
    A = next(_modifications(trans))
    f = next(f for f in G.cells[1] if not G.is_id1(f))
    wrong = next(g3 for g3 in H.cells[3] if g3 != A.at1[f])
    bad = Modification(A.alpha, A.beta, A.at0, {**A.at1, f: wrong})
    for _ in range(2):
        with pytest.raises(GrayError):
            mod_to_pseudo(bad, tower)
    assert not bad._pseudo and f not in bad._cell1


def test_pert_square_memo_matches_a_fresh_square():
    G, H, trans = _transformations("INT", "BIG")
    tower = Tower(H)
    other = Tower(H)
    perts = [s for A in _modifications(trans)
             for s in enumerate_perturbations(A, A)[0]]
    assert len(perts) == 19
    for s in perts:
        for x in G.cells[0]:
            P = pert_square(s, x, tower)
            assert pert_square(s, x, tower) is P
            assert pert_square(s, x, other) == P
            assert homspace._pert_square(s, x, tower) == P
        assert len(s._square) == 2 * len(G.cells[0])


def test_pert_square_that_raises_raises_every_time():
    """A 3-cell with the wrong faces raises on every call and leaves no
    entry behind."""
    G, H, trans = _transformations("INT", "BIG")
    tower = Tower(H)
    A = next(_modifications(trans))
    x = G.cells[0][0]
    wrong = next(g3 for g3 in H.cells[3]
                 if H.src(3, g3) != A.at0[x])
    s = Perturbation(A, A, {**{y: H.ident(2, A.at0[y]) for y in G.cells[0]},
                            x: wrong})
    for _ in range(2):
        with pytest.raises(NotComposable):
            pert_square(s, x, tower)
    assert not s._square


@pytest.mark.parametrize("gname,counts", [
    ("INT", {"_compose_0": 30, "_mod_to_pseudo": 19, "_trans_to_pseudo": 14,
             "_pert_square": 38, "_mod_bigon": 38}),
    ("PAIR", {"_compose_0": 80, "_mod_to_pseudo": 45, "_trans_to_pseudo": 30,
              "_pert_square": 135, "_mod_bigon": 135}),
])
def test_hom_graycat_builds_each_construction_once(monkeypatch, gname,
                                                   counts):
    """One call of each un-memoized body per distinct argument: on
    [PAIR,BIG] the bodies used to run 1,780, 135, 90, 1,407 and 7,335
    times."""
    calls = dict.fromkeys(counts, 0)
    for name in counts:
        body = getattr(homspace, name)

        def counted(*args, _name=name, _body=body):
            calls[_name] += 1
            return _body(*args)
        monkeypatch.setattr(homspace, name, counted)
    G = fixture(gname)
    C, _, reports = hom_graycat(G, fixture("BIG"))
    assert all(r.ok for r in reports)
    assert calls == counts
    # each transformation and each modification is converted once
    assert calls["_trans_to_pseudo"] == len(C.cells[1])
    assert calls["_mod_to_pseudo"] == len(C.cells[2])
    # each perturbation gets one square per 0-cell of G
    assert calls["_pert_square"] == len(C.cells[3]) * len(G.cells[0])
    # and each modification one bigon per 0-cell of G
    assert calls["_mod_bigon"] == len(C.cells[2]) * len(G.cells[0])


def test_functor_key_tells_apart_functors_that_agree_on_1_cells():
    """BIG -> TWIST has 19 strict functors; two of them agree on every
    0- and 1-cell and differ at alpha, which the 1-cell part cannot see."""
    funs, _ = enumerate_strict_functors(fixture("BIG"), fixture("TWIST"))
    pseudos = [strict_as_pseudo(F) for F in funs]
    assert len(pseudos) == 19
    assert len({functor_key(F) for F in pseudos}) == 19
    assert len({tuple(sorted(F.assignment[1].items(), key=repr))
                for F in pseudos}) == 18


def test_hom_objects_are_functor_keys():
    G, H = fixture("INT"), fixture("BIG")
    funs, _ = enumerate_strict_functors(G, H)
    C, reg, _ = hom_graycat(G, H)
    keys = [functor_key(strict_as_pseudo(F)) for F in funs]
    assert C.cells[0] == keys
    # INT has identities only above dimension 1: the 1-cell part alone
    assert all(len(k) == 2 for k in keys)
    assert all(reg[k].assignment == F.maps for k, F in zip(keys, funs))


def test_tower_runs_each_whisker_and_multiplication_once(monkeypatch):
    """On [PAIR,BIG] Tower.mbar, w_l and w_r run their bodies once per
    distinct argument; they used to run 4,572, 5,226 and 5,226 times."""
    from graypath import highercells
    args = {name: [] for name in ("_mbar", "_w_l", "_w_r")}
    for name in args:
        body = getattr(highercells, name)

        def counted(tw, *a, _name=name, _body=body):
            args[_name].append(a)
            return _body(tw, *a)
        monkeypatch.setattr(highercells, name, counted)
    C, _, reports = hom_graycat(fixture("PAIR"), fixture("BIG"))
    assert all(r.ok for r in reports)
    assert {name: len(a) for name, a in args.items()} == \
        {"_mbar": 31, "_w_l": 43, "_w_r": 43}
    assert all(len(set(a)) == len(a) for a in args.values())


def test_tower_memo_is_the_formula_and_keeps_no_failure():
    """On every pair of cells of dimensions 0 and 1, a memoized mbar, w_l or
    w_r is the body's value on a fresh tower and the object the bigon space
    stores, and a pair the body rejects raises on every call and leaves no
    entry behind."""
    from graypath import highercells
    tower, fresh = Tower(fixture("BIG")), Tower(fixture("BIG"))
    PH, DD = tower.PH, tower.DD
    cases = [(tower.mbar, highercells._mbar, tower._mbars, DD, DD),
             (tower.w_l, highercells._w_l, tower._wls, DD, PH),
             (tower.w_r, highercells._w_r, tower._wrs, PH, DD)]
    stored = raised = 0
    for memoized, body, memo, X, Y in cases:
        for d in (0, 1):
            for x in X.cells[d]:
                for y in Y.cells[d]:
                    try:
                        out = memoized(d, x, y)
                    except (GrayError, KeyError) as exc:
                        with pytest.raises(type(exc)):
                            memoized(d, x, y)
                        assert (d, x, y) not in memo
                        raised += 1
                        continue
                    assert memoized(d, x, y) is out
                    assert out is DD.canonical(d, out)
                    assert body(fresh, d, x, y) == out
                    stored += 1
    assert stored == sum(map(len, (tower._mbars, tower._wls, tower._wrs)))
    assert stored and raised


@pytest.mark.parametrize("gname,squares", [("INT", 42), ("PAIR", 180)])
def test_hom_graycat_builds_each_transformation_square_once(monkeypatch,
                                                            gname, squares):
    """trans_sq builds the square of each (transformation, 1-cell) once,
    and a kept square is the formula's; on [PAIR,BIG] the body used to run
    5,436 times for 180 distinct arguments."""
    built = []
    body = homspace._trans_sq

    def counted(t, f):
        built.append((t, f))
        return body(t, f)
    monkeypatch.setattr(homspace, "_trans_sq", counted)
    C, _, reports = hom_graycat(fixture(gname), fixture("BIG"))
    assert all(r.ok for r in reports)
    assert len(built) == len({(id(t), f) for t, f in built}) == squares
    for t, f in built:
        assert homspace.trans_sq(t, f) is t._sq[f] == body(t, f)


def test_acoc_derives_each_normalized_cocycle_once(monkeypatch):
    """acoc keeps the normalized cocycle of each (transformation, pair
    with an identity) on the transformation, and the kept cocycle is the
    formula's.  On [PAIR,BIG] acoc runs 7,260 times for 1,150 distinct
    arguments; it called _coc_src 5,760 times, and 270 with the memo."""
    derived = []
    body = homspace._coc_src

    def counted(F, G, at0, at1, f2, f1):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "acoc":
            derived.append((caller.f_locals["self"], (f2, f1)))
        return body(F, G, at0, at1, f2, f1)
    monkeypatch.setattr(homspace, "_coc_src", counted)
    _, _, reports = hom_graycat(fixture("PAIR"), fixture("BIG"))
    assert all(r.ok for r in reports)
    assert 0 < len(derived) <= 1150
    assert len({(id(t), key) for t, key in derived}) == len(derived)
    for t, key in derived:
        assert t._acoc[key] == t.H.ident(
            2, body(t.F, t.G, t.at0, t.at1, *key))
        assert t.acoc(*key) is t._acoc[key]


def test_acoc_that_raises_raises_every_time():
    """A transformation without a cocycle component at a pair of
    non-identity 1-cells raises on every acoc call and keeps nothing."""
    G, H, trans = _transformations("PAIR", "BIG")
    t = next(t for ts in trans.values() for t in ts)
    bare = LaxTransformation(t.F, t.G, t.at0, t.at1, t.at2, {}, name="bare")
    f2, f1 = next((f2, f1) for f2, f1 in composable_keys(G, "comp0")
                  if not (G.is_id1(f2) or G.is_id1(f1)))
    for _ in range(2):
        with pytest.raises(Mismatch):
            bare.acoc(f2, f1)
    assert not bare._acoc
