"""The mapping space: validators, composites vs the m-oracle, [INT,BIG]."""

import pytest

from graypath.fixtures import fixture
from graypath.highercells import Tower
from graypath.kernel import all_pass, check_gray_axioms, structural_violations
from graypath.homspace import (LaxTransformation, Modification, Perturbation,
                               compose_0, compose_0_oracle, compose_mods,
                               compose_perts, enumerate_modifications,
                               enumerate_perturbations,
                               enumerate_strict_functors,
                               enumerate_transformations, hom_graycat,
                               hom_hl_mod, hom_hr_mod, identity_transformation,
                               is_stiff, mod_to_pseudo, pert_square,
                               pert_to_pseudo, precompose, postcompose,
                               pseudo_to_trans, rho, sesquicategory_check,
                               tensor_mods, trans_to_pseudo,
                               validate_modification, validate_perturbation,
                               validate_transformation)
from graypath.pathcomp import m_pseudo
from graypath.resolution import (strict_as_pseudo, validate_pseudo_map,
                                 pseudo_maps_equal)


@pytest.fixture(scope="module")
def intbig():
    G, H = fixture("INT"), fixture("BIG")
    funs, _ = enumerate_strict_functors(G, H)
    pseudos = [strict_as_pseudo(F) for F in funs]
    trans = {}
    for i, F in enumerate(pseudos):
        for j, Gp in enumerate(pseudos):
            ts, _ = enumerate_transformations(F, Gp)
            trans[(i, j)] = ts
    return G, H, funs, pseudos, trans


def test_strict_functor_counts(intbig):
    """Hand count: the generator goes to any 1-cell, endpoints follow."""
    G, H, funs, _, _ = intbig
    assert len(funs) == 4
    t1 = fixture("T1")
    only, _ = enumerate_strict_functors(t1, t1)
    assert len(only) == 1


def test_transformation_count_and_validation(intbig):
    G, H, funs, pseudos, trans = intbig
    total = sum(len(ts) for ts in trans.values())
    # hand count: per functor pair, components (a0_0, a0_1, a_a) with the
    # required incidences; tallied independently below
    expected = 0
    for F in pseudos:
        for Gp in pseudos:
            for a00 in H.cells[1]:
                if H.src(1, a00) != F(0, "0") or H.tgt(1, a00) != Gp(0, "0"):
                    continue
                for a01 in H.cells[1]:
                    if H.src(1, a01) != F(0, "1") or H.tgt(1, a01) != Gp(0, "1"):
                        continue
                    lhs = H.comp0(Gp(1, "a"), a00)
                    rhs = H.comp0(a01, F(1, "a"))
                    expected += sum(1 for u in H.cells[2]
                                    if H.src(2, u) == lhs and H.tgt(2, u) == rhs)
    assert total == expected == 14
    for ts in trans.values():
        for t in ts:
            assert all(r.ok for r in validate_transformation(t))


def test_transformation_pseudo_route_agreement(intbig):
    """The componentwise validators agree with the assembled pseudo map."""
    G, H, funs, pseudos, trans = intbig
    PH, K, m = m_pseudo(H)
    for ts in trans.values():
        for t in ts:
            P = trans_to_pseudo(t, PH)
            assert all_pass(validate_pseudo_map(P))
            from graypath.pathspace import pd0, pd1
            for d in range(4):
                for c in G.cells[d]:
                    assert pd0(H, d, P(d, c)) == t.F(d, c)
                    assert pd1(H, d, P(d, c)) == t.G(d, c)
            t2 = pseudo_to_trans(P, t.F, t.G)
            assert t2.key() == t.key()


def test_identity_transformation_stiff(intbig):
    _, H, _, pseudos, _ = intbig
    for F in pseudos:
        idt = identity_transformation(F)
        assert all(r.ok for r in validate_transformation(idt))
        assert is_stiff(idt)


def test_corrupted_cocycle_fails(intbig):
    from graypath.faults import corrupt_transformation
    _, H, _, pseudos, trans = intbig
    hits = 0
    for ts in trans.values():
        for t in ts:
            bad, info = corrupt_transformation(t, seed=7)
            reports = validate_transformation(bad)
            if not all(r.ok for r in reports):
                hits += 1
    assert hits > 0


def test_compose_matches_m_oracle(intbig):
    G, H, funs, pseudos, trans = intbig
    PH, K, m = m_pseudo(H)
    checked = 0
    for (i, j), ts in trans.items():
        for (j2, k), us in trans.items():
            if j2 != j:
                continue
            for a in ts:
                for b in us:
                    ba = compose_0(b, a)
                    assert ba.key() == compose_0_oracle(b, a, PH, K, m).key()
                    assert all(r.ok for r in validate_transformation(ba))
                    checked += 1
    assert checked == 30


def test_compose_identity_is_unit(intbig):
    _, H, _, pseudos, trans = intbig
    for (i, j), ts in trans.items():
        for t in ts:
            li = identity_transformation(pseudos[j])
            ri = identity_transformation(pseudos[i])
            assert compose_0(li, t).key() == t.key()
            assert compose_0(t, ri).key() == t.key()


def test_composite_cocycle_trivial_when_everything_trivial(intbig):
    _, H, _, _, trans = intbig
    for (i, j), ts in trans.items():
        for (j2, k), us in trans.items():
            if j2 != j:
                continue
            for a in ts:
                for b in us:
                    if is_stiff(a) and is_stiff(b):
                        assert is_stiff(compose_0(b, a))


def test_modifications_and_vertical_composite(intbig):
    G, H, _, pseudos, trans = intbig
    tower = Tower(H)
    checked = 0
    for ts in trans.values():
        for a in ts:
            for b in ts:
                if a.F is b.F and a.G is b.G:
                    for A in enumerate_modifications(a, b)[0]:
                        assert all(r.ok for r in validate_modification(A))
                        Am = mod_to_pseudo(A, tower)
                        assert all_pass(validate_pseudo_map(Am))
                        checked += 1
    assert checked > 0
    # vertical composite against the mbar evaluation of the conversions
    for ts in trans.values():
        for a in ts:
            mods_aa = enumerate_modifications(a, a)[0]
            for A in mods_aa:
                for B in mods_aa:
                    BA = compose_mods(B, A, tower)
                    lhs = mod_to_pseudo(BA, tower)
                    Amap = mod_to_pseudo(A, tower)
                    Bmap = mod_to_pseudo(B, tower)
                    for d in range(4):
                        for c in G.cells[d]:
                            assert lhs(d, c) == tower.mbar(
                                d, Bmap(d, c), Amap(d, c))


def test_tensor_of_modifications_lands_over_hcomps(intbig):
    G, H, _, pseudos, trans = intbig
    tower = Tower(H)
    checked = 0
    for (i, j), ts in trans.items():
        for (j2, k), us in trans.items():
            if j2 != j:
                continue
            for a in ts:
                for b in us:
                    A = enumerate_modifications(a, a)[0][0]
                    B = enumerate_modifications(b, b)[0][0]
                    s = tensor_mods(B, A, tower)
                    assert all(r.ok for r in validate_perturbation(s))
                    # faces are the horizontal composites
                    assert s.A.key() == hom_hl_mod(B, A, tower).key()
                    assert s.B.key() == hom_hr_mod(B, A, tower).key()
                    checked += 1
                    if checked > 6:
                        return
    assert checked > 0


def test_perturbations(intbig):
    G, H, _, pseudos, trans = intbig
    found = 0
    for ts in trans.values():
        for a in ts:
            for A in enumerate_modifications(a, a)[0]:
                for s in enumerate_perturbations(A, A)[0]:
                    assert all(r.ok for r in validate_perturbation(s))
                    found += 1
    assert found > 0


def test_modification_enumeration_stops_at_its_cap():
    """T1 -> TWIST has a pair of transformations with two modifications:
    cap 2 passes with both, cap 1 keeps one and reports the hit cap."""
    G, H = fixture("T1"), fixture("TWIST")
    funs, _ = enumerate_strict_functors(G, H)
    pseudos = [strict_as_pseudo(F) for F in funs]
    ts = [t for F in pseudos for Gp in pseudos
          for t in enumerate_transformations(F, Gp)[0]]
    a, b = next((a, b) for a in ts for b in ts
                if len(enumerate_modifications(a, b)[0]) == 2)
    both, reports = enumerate_modifications(a, b, cap=2)
    assert len(both) == 2
    assert [r.as_dict() for r in reports] == [
        {"law": "enumeration-cap", "status": "pass", "tuples_checked": 2,
         "counterexample": None}]
    capped, reports = enumerate_modifications(a, b, cap=1)
    assert [A.key() for A in capped] == [both[0].key()]
    assert [r.as_dict() for r in reports] == [
        {"law": "enumeration-cap", "status": "fail", "tuples_checked": 1,
         "counterexample": ["CapExceeded", 1]}]


def test_perturbation_enumeration_reports_its_cap(intbig):
    G, H, _, _, trans = intbig
    a = next(t for ts in trans.values() for t in ts)
    A = enumerate_modifications(a, a)[0][0]
    perts, reports = enumerate_perturbations(A, A)
    assert perts and [r.status for r in reports] == ["pass"]
    assert reports[0].tuples_checked == len(perts)


def test_pert_square_and_compose_perts_match_conversion(intbig):
    """Dimension 0 of pert_to_pseudo is pert_square, and compose_perts is
    mbarbar on the converted perturbations, at every 0-cell."""
    G, H, _, _, trans = intbig
    tower = Tower(H)
    mods = [A for ts in trans.values() for a in ts for b in ts
            for A in enumerate_modifications(a, b)[0]]
    perts = [s for A in mods for B in mods
             if A.alpha is B.alpha and A.beta is B.beta
             for s in enumerate_perturbations(A, B)[0]]
    images = [pert_to_pseudo(s, tower) for s in perts]
    for s, P in zip(perts, images):
        for x in G.cells[0]:
            assert pert_square(s, x, tower) == P(0, x)
    composed = 0
    for s, P in zip(perts, images):
        for u, U in zip(perts, images):
            if s.B.key() != u.A.key():
                continue
            us = compose_perts(u, s, tower)
            for x in G.cells[0]:
                assert us.at0[x] == tower.mbarbar(0, U(0, x), P(0, x))[1][1]
            composed += 1
    assert composed > 0


def test_precompose_identity_and_postcompose_collapse(intbig):
    from graypath.kernel import StrictMap, identity_map
    G, H, _, pseudos, trans = intbig
    idG = identity_map(G)
    T = fixture("T1")
    maps = {0: {x: "*" for x in H.cells[0]},
            1: {f: "id*" for f in H.cells[1]},
            2: {a: "id[id*]" for a in H.cells[2]},
            3: {g: "id[id[id*]]" for g in H.cells[3]}}
    bang = StrictMap(H, T, maps, name="!")
    for ts in trans.values():
        for t in ts:
            pre = precompose(t, idG)
            assert pre.at0 == t.at0 and pre.at1 == t.at1
            post = postcompose(bang, t)
            assert all(T.is_id1(v) for v in post.at0.values())
            assert all(r.ok for r in validate_transformation(post))


def test_hom_graycat_int_big_is_gray_category():
    C, reg, reports = hom_graycat(fixture("INT"), fixture("BIG"))
    assert all(r.ok for r in reports)
    assert structural_violations(C) == []
    assert all_pass(check_gray_axioms(C))
    assert [len(C.cells[d]) for d in range(4)] == [4, 14, 19, 19]


def test_hom_graycat_t1_cases():
    for h in ("T1", "BIG"):
        C, reg, reports = hom_graycat(fixture("T1"), fixture(h))
        assert structural_violations(C) == []
        assert all_pass(check_gray_axioms(C))


def test_restricted_space_closure():
    from graypath.homspace import restricted_space
    C, reg, reports = restricted_space(fixture("INT"), fixture("BIG"))
    # every 1-cell lies between strict functors and the tables are closed
    assert structural_violations(C) == []
    for (u, t), v in C.comp0_11.items():
        assert C.has_cell(1, v)


def test_stiff_implies_malleable(intbig):
    _, H, _, pseudos, trans = intbig
    for ts in trans.values():
        for t in ts:
            if is_stiff(t):
                # malleable = transformation between strict functors
                assert t.F.is_strict() and t.G.is_strict()


def test_sesquicategory_laws():
    reports = sesquicategory_check(fixture("INT"), fixture("BIG"))
    assert all_pass(reports), [r for r in reports if not r.ok]
    assert all(r.tuples_checked > 0 for r in reports)


def test_rho_strict_is_identity(intbig):
    _, H, _, pseudos, _ = intbig
    for F in pseudos:
        r = rho(F)
        assert all(v == H.ident(1, F(1, f)) for f, v in r.at1.items())
        assert all(rr.ok for rr in validate_transformation(r))
        assert is_stiff(r)


def test_rho_nontrivial_pseudo_map():
    from tests.test_resolution import nontrivial_pseudo_into_path_twist
    from graypath.resolution import strictify
    F, PT = nontrivial_pseudo_into_path_twist()
    r = rho(F)
    s = strictify(F)
    # rho runs from F to its strictification and is the identity on objects
    assert r.F is F and pseudo_maps_equal(r.G, s)
    for x in F.dom.cells[0]:
        assert PT.is_id1(r.at0[x])
    assert all(rr.ok for rr in validate_transformation(r))
    # cocycle entries are identity 3-cells
    assert is_stiff(r)
    # the component at the composite is the nontrivial compositor itself
    assert r.at1["h"] == F.coc("g", "f")
    assert not PT.is_id2(r.at1["h"])


def test_perturbation_missing_component_fails(intbig):
    G, H, _, _, trans = intbig
    a = next(t for ts in trans.values() for t in ts)
    A = next(iter(enumerate_modifications(a, a)[0]))
    dropped = G.cells[0][0]
    at0 = {x: H.ident(2, A.at0[x]) for x in G.cells[0] if x != dropped}
    reports = validate_perturbation(Perturbation(A, A, at0))
    assert [r.law for r in reports] == ["perturbation-incidence",
                                        "perturbation-square"]
    assert not all(r.ok for r in reports)
    assert reports[0].counterexample == ("component-0", dropped)


# -- whisker-compatibility reads composable_keys --------------------------------


def _nested_whisker_tuples(t):
    """The whisker-compatibility tuples as the validator enumerated them
    before it read composable_keys: 2-cell outermost, by face-index loops."""
    from graypath.homspace import _whisker_left, _whisker_right
    dom = t.dom
    for gam in dom.cells[2]:
        for f in dom.by_tgt(1, dom.src0(2, gam)):
            yield _whisker_left, (t, gam, f), ("whisker-left", gam, f)
    for delt in dom.cells[2]:
        for g in dom.by_src(1, dom.tgt0(2, delt)):
            yield _whisker_right, (t, g, delt), ("whisker-right", g, delt)


def _transformations(gname, hname):
    funs, _ = enumerate_strict_functors(fixture(gname), fixture(hname))
    pseudos = [strict_as_pseudo(F) for F in funs]
    return [t for F in pseudos for Gp in pseudos
            for t in enumerate_transformations(F, Gp)[0]]


@pytest.mark.parametrize("gname", ["PAIR", "CHAIN3"])
def test_whisker_compatibility_matches_the_nested_loops(gname):
    """Same status as the nested loops; a pass checks as many tuples, and a
    failure names a tuple (or error) that the nested loops fail on too."""
    from graypath.faults import corrupt_transformation
    from graypath.kernel import GrayError
    ts = _transformations(gname, "BIG")
    cases = ts + [corrupt_transformation(ts[s % len(ts)], s)[0]
                  for s in range(20)]
    statuses = set()
    for t in cases:
        bad, n = [], 0
        for f, args, witness in _nested_whisker_tuples(t):
            n += 1
            try:
                if not f(*args):
                    bad.append(witness)
            except (GrayError, KeyError) as exc:
                bad.append(("error", type(exc).__name__, str(exc)))
        rep, = [r for r in validate_transformation(t)
                if r.law == "whisker-compatibility"]
        statuses.add(rep.status)
        if bad:
            assert rep.status == "fail" and rep.counterexample in bad
        else:
            assert rep.status == "pass" and rep.tuples_checked == n > 0
    assert statuses == {"pass", "fail"}


# -- broken components keep their verdicts ---------------------------------------

# (case, dom) -> the failing reports (law, tuples checked, counterexample),
# taken before the incidence laws read the component boundaries instead of
# catching the errors that building the path cells raised
KE, NC = ("error", "KeyError"), ("error", "NotComposable")
BROKEN = {
    ("missing-at1", "INT"): [
        ("transformation-incidence", 5, ("component-1", "a")),
        ("transformation-units", 4, KE + ("'a'",)),
        ("three-cell-square", 2, KE + ("'a'",)),
        ("cocycle-condition", 3, KE + ("'a'",)),
        ("whisker-compatibility", 1, KE + ("'a'",))],
    ("missing-at1", "PAIR"): [
        ("transformation-incidence", 7, ("component-1", "f")),
        ("transformation-units", 6, KE + ("'f'",)),
        ("three-cell-square", 3, KE + ("'f'",)),
        ("cocycle-condition", 3, KE + ("'f'",)),
        ("whisker-compatibility", 1, KE + ("'f'",))],
    ("non-cell-at1", "INT"): [
        ("transformation-incidence", 5, ("component-1", "a")),
        ("transformation-units", 4, KE + ("'nope'",)),
        ("three-cell-square", 2, KE + ("'nope'",)),
        ("cocycle-condition", 3, KE + ("'nope'",)),
        ("whisker-compatibility", 1, KE + ("'nope'",))],
    ("non-cell-at1", "PAIR"): [
        ("transformation-incidence", 7, ("component-1", "f")),
        ("transformation-units", 6, KE + ("'nope'",)),
        ("three-cell-square", 3, KE + ("'nope'",)),
        ("cocycle-condition", 3, KE + ("'nope'",)),
        ("whisker-compatibility", 1, KE + ("'nope'",))],
    ("swap-seed-1", "INT"): [
        ("transformation-incidence", 5, ("component-1", "a")),
        ("transformation-units", 5, ("unit-2", "a")),
        ("three-cell-square", 2, NC + ("wr23 'id[id[g]]' 'id[f]'",)),
        ("cocycle-condition", 3, NC + ("comp1 'id[g]' after 'id[f]'",)),
        ("whisker-compatibility", 1, NC + ("comp1 'id[g]' after 'id[f]'",))],
    ("swap-seed-1", "PAIR"): [
        ("transformation-incidence", 8, ("component-1", "g")),
        ("transformation-units", 8, ("unit-2", "g")),
        ("three-cell-square", 4,
         NC + ("comp2 'id[id[g]]' after 'id[alpha]'",)),
        ("cocycle-condition", 12, NC + ("comp1 'alpha' after 'id[g]'",)),
        ("whisker-compatibility", 4, NC + ("wl23 'alpha' 'id[id[g]]'",))],
    # an identity 2-cell's missing component is the normalized one
    ("missing-at2", "INT"): [],
    ("missing-at2", "PAIR"): [],
    ("wrong-at2", "INT"): [
        ("transformation-incidence", 8, ("component-2", "id[a]")),
        ("transformation-units", 5, ("unit-2", "a")),
        ("three-cell-square", 2,
         NC + ("comp2 'id[id[idx]]' after 'id[alpha]'",)),
        ("vertical-composites", 0, NC + ("wl23 'id[g]' 'id[id[idx]]'",)),
        ("whisker-compatibility", 1, NC + ("wr23 'id[id[idx]]' 'id[f]'",))],
    ("wrong-at2", "PAIR"): [
        ("transformation-incidence", 15, ("component-2", "id[h]")),
        ("transformation-units", 9, ("unit-2", "h")),
        ("three-cell-square", 5,
         NC + ("comp2 'id[id[idx]]' after 'id[alpha]'",)),
        ("vertical-composites", 2, NC + ("wl23 'id[g]' 'id[id[idx]]'",)),
        ("whisker-compatibility", 2, NC + ("wr23 'id[id[idx]]' 'id[f]'",))],
    ("wrong-coc", "INT"): [
        ("cocycle-condition", 10, ("cocycle-faces", "id1", "a")),
        ("whisker-compatibility", 3, NC + ("wr23 'id[id[idx]]' 'id[f]'",))],
    ("wrong-coc", "PAIR"): [
        ("cocycle-condition", 22, ("cocycle-faces", "g", "f")),
        ("whisker-compatibility", 7, NC + ("wr23 'id[id[idx]]' 'id[f]'",))],
    ("wrong-mod-at1", "INT"): [
        ("modification-incidence", 5, ("component-1", "a")),
        ("two-cell-compatibility", 2, NC + ("wl23 'id[g]' 'id[id[idx]]'",)),
        ("cocycle-compatibility", 1, NC + ("wr23 'id[id[idx]]' 'id[f]'",))],
    ("wrong-mod-at1", "PAIR"): [
        ("modification-incidence", 7, ("component-1", "f")),
        ("two-cell-compatibility", 3, NC + ("wl23 'id[g]' 'id[id[idx]]'",)),
        ("cocycle-compatibility", 1, NC + ("wr23 'id[id[idx]]' 'id[f]'",))],
}


def _failing(reports):
    return [(r.law, r.tuples_checked, r.counterexample)
            for r in reports if not r.ok]


def _broken(case, t, f):
    """validate_* of t (or of its first endo-modification) with one
    component broken; f is a non-identity 1-cell of t's domain."""
    from graypath.faults import corrupt_transformation
    from graypath.kernel import composable_keys
    dom, H = t.dom, t.H
    parts = {"at0": t.at0, "at1": t.at1, "at2": t.at2, "coc": t.coc}
    g = dom.cells[2][-1]
    if case == "swap-seed-1":
        return validate_transformation(corrupt_transformation(t, 1)[0])
    if case == "wrong-mod-at1":
        A = enumerate_modifications(t, t)[0][0]
        other = next(c for c in H.cells[3] if c != A.at1[f])
        return validate_modification(
            Modification(t, t, A.at0, {**A.at1, f: other}))
    if case == "missing-at1":
        parts["at1"] = {k: v for k, v in t.at1.items() if k != f}
    elif case == "non-cell-at1":
        parts["at1"] = {**t.at1, f: "nope"}
    elif case == "missing-at2":
        parts["at2"] = {k: v for k, v in t.at2.items() if k != g}
    elif case == "wrong-at2":
        parts["at2"] = {**t.at2,
                        g: next(c for c in H.cells[3] if c != t.a2(g))}
    elif case == "wrong-coc":
        pairs = list(composable_keys(dom, "comp0"))
        p = next((q for q in pairs
                  if not (dom.is_id1(q[0]) or dom.is_id1(q[1]))), pairs[-1])
        parts["coc"] = {**t.coc,
                        p: next(c for c in H.cells[3] if c != t.acoc(*p))}
    return validate_transformation(LaxTransformation(t.F, t.G, **parts))


@pytest.mark.parametrize("case, gname", sorted(BROKEN))
def test_broken_components_keep_their_verdicts(case, gname):
    """The first transformation of [gname,BIG] with a non-identity
    component at the first non-identity 1-cell f, broken one way."""
    ts = _transformations(gname, "BIG")
    dom, H = ts[0].dom, ts[0].H
    f = next(c for c in dom.cells[1] if not dom.is_id1(c))
    t = next(t for t in ts if not H.is_id2(t.at1[f]))
    assert _failing(_broken(case, t, f)) == BROKEN[(case, gname)]


def test_a_non_identity_2_cell_component_missing_or_wrong_fails_incidence():
    """On the identity transformation of BIG's identity functor, at the
    non-identity 2-cell alpha."""
    from graypath.kernel import identity_map
    B = fixture("BIG")
    t = identity_transformation(strict_as_pseudo(identity_map(B)))
    missing = {k: v for k, v in t.at2.items() if k != "alpha"}
    other = next(c for c in B.cells[3] if c != t.at2["alpha"])
    witness = ("transformation-incidence", 11, ("component-2", "alpha"))
    for at2, rest in (
            (missing, [
                ("three-cell-square", 4, ("error", "Mismatch",
                                          "missing 2-cell component for 'alpha'")),
                ("vertical-composites", 0, ("error", "Mismatch",
                                            "missing 2-cell component for 'alpha'")),
                ("whisker-compatibility", 3, ("error", "Mismatch",
                                              "missing 2-cell component for 'alpha'"))]),
            ({**t.at2, "alpha": other}, [
                ("three-cell-square", 4,
                 NC + ("comp2 'id[id[idx]]' after 'id[alpha]'",)),
                ("vertical-composites", 0,
                 NC + ("wr23 'id[id[idx]]' 'id[f]'",)),
                ("whisker-compatibility", 3,
                 NC + ("wr23 'id[id[idx]]' 'id[f]'",))])):
        bad = LaxTransformation(t.F, t.G, t.at0, t.at1, at2, t.coc)
        assert _failing(validate_transformation(bad)) == [witness] + rest
