"""Symbolic Q1 cells, kappa, pseudo maps, tilde/vee, strictification."""

import pytest
from hypothesis import given, settings, strategies as st

from graypath.fixtures import fixture
from graypath.kernel import NotComposable, all_pass, composable_keys
from graypath.resolution import (Q1Layer, comonad_law_check, kappa,
                                 kappa_coherence_check, kappa_tensor_check,
                                 kleisli_compose, kleisli_identity,
                                 pseudo_map_from_doc, pseudo_map_to_doc,
                                 pseudo_maps_equal, q1_comult, q1_counit,
                                 q1_normalize, strict_as_pseudo, strictify,
                                 tilde, tilde_vee_roundtrip, vee,
                                 validate_pseudo_map, PseudoMap,
                                 generator_decomposition, section_k)


def test_normalize_drops_identities():
    P = fixture("PAIR")
    assert q1_normalize(P, ["idx"], anchor="x") == ("q1", "x", ())
    assert q1_normalize(P, ["g", "idy", "f"]) == ("q1", "x", ("g", "f"))
    I = fixture("INT")
    assert q1_normalize(I, ["a"]) == ("q1", "0", ("a",))


def test_normalize_rejects_noncomposable():
    P = fixture("PAIR")
    with pytest.raises(NotComposable):
        q1_normalize(P, ["f", "g"])


@given(st.lists(st.sampled_from(["c01", "c12", "c23", "idx1", "idx0"]),
                max_size=4))
@settings(max_examples=200, deadline=None)
def test_normalize_idempotent_and_concat(entries):
    C = fixture("CHAIN3")
    try:
        n = q1_normalize(C, entries, anchor="x0")
    except NotComposable:
        return
    assert q1_normalize(C, list(n[2]), anchor=n[1]) == n
    L = Q1Layer(C)
    # unit concatenation: the empty list at the target is a left unit
    from graypath.resolution import q1_tgt
    m = ("q1", q1_tgt(C, n), ())
    assert L.comp0(m, n) == n


def test_counit_examples():
    P = fixture("PAIR")
    assert q1_counit(P, ("q1", "x", ())) == "idx"
    assert q1_counit(P, q1_normalize(P, ["g", "f"])) == "h"
    B = fixture("BIG")
    c = ("q2", "alpha", ("q1", "x", ("f",)), ("q1", "x", ("g",)))
    assert q1_counit(B, c) == "alpha"


def test_comultiplication_examples():
    P = fixture("PAIR")
    d = q1_comult(P, q1_normalize(P, ["g", "f"]))
    assert d == ("q1", "x", (("q1", "y", ("g",)), ("q1", "x", ("f",))))
    assert q1_comult(P, ("q1", "x", ())) == ("q1", "x", ())
    B = fixture("BIG")
    c = ("q2", "alpha", ("q1", "x", ("f",)), ("q1", "x", ("g",)))
    dc = q1_comult(B, c)
    assert dc[1] == c
    assert dc[2] == ("q1", "x", (("q1", "x", ("f",)),))


def test_kappa_pair():
    P = fixture("PAIR")
    k = kappa(P, "g", "f")
    assert k == ("q2", "id[h]", ("q1", "x", ("g", "f")), ("q1", "x", ("h",)))
    L = Q1Layer(P)
    assert L.inv_2(k) == ("q2", "id[h]", k[3], k[2])


def test_kappa_coherence_chain():
    for name in ("CHAIN3", "CHAIN4"):
        C = fixture(name)
        gens = C.generators
        for i in range(len(gens) - 2):
            f3, f2, f1 = gens[i + 2], gens[i + 1], gens[i]
            assert kappa_coherence_check(C, f3, f2, f1)


def test_kappa_coherence_all_length4_tuples():
    C = fixture("CHAIN4")
    triples = 0
    for f1 in C.cells[1]:
        for f2 in C.cells[1]:
            if C.is_id1(f1) or C.is_id1(f2) or C.src(1, f1) != C.tgt(1, f2):
                continue
            for f3 in C.cells[1]:
                if C.is_id1(f3) or C.src(1, f2) != C.tgt(1, f3):
                    continue
                assert kappa_coherence_check(C, f1, f2, f3)
                triples += 1
    assert triples >= 4


def test_kappa_tensor_trivial():
    """kappa (x) kappa is the identity 3-cell on every 0-composable pair
    of composable pairs, up to length 4 chains."""
    C = fixture("CHAIN4")
    tuples = []
    nonid = [f for f in C.cells[1] if not C.is_id1(f)]
    for n in (2, 3):
        from itertools import product as prod
        for combo in prod(nonid, repeat=n):
            try:
                q1_normalize(C, list(combo))
            except NotComposable:
                continue
            tuples.append(combo)
    checked = 0
    for pb in tuples:
        for pa in tuples:
            if C.src(1, pb[-1]) == C.tgt(1, pa[0]):
                assert kappa_tensor_check(C, pb, pa), (pb, pa)
                checked += 1
    assert checked >= 1


def test_strict_embedding_has_trivial_cocycle_and_validates():
    for name in ("PAIR", "BIG", "TWIST"):
        C = fixture(name)
        F = kleisli_identity(C)
        assert F.is_strict()
        assert all_pass(validate_pseudo_map(F))


def test_corrupted_cocycle_fails_normalization():
    B = fixture("BIG")
    F = kleisli_identity(B)
    # replace an identity-pair cocycle entry by a non-identity 2-cell;
    # no invertible non-identity 2-cell exists in BIG, so both the
    # normalization and the invertibility condition must fire
    F.cocycle[("idy", "f")] = "alpha"
    reports = validate_pseudo_map(F)
    bad = {r.law for r in reports if not r.ok}
    assert "cocycle" in bad


def test_tilde_on_lists_and_kappa():
    P = fixture("PAIR")
    F = kleisli_identity(P)
    W = tilde(F)
    assert W(q1_normalize(P, ["g", "f"])) == "h"
    assert W(kappa(P, "g", "f")) == F.coc("g", "f")
    # F~ preserves whiskers and composition on symbolic cells
    L = Q1Layer(P)
    k = kappa(P, "g", "f")
    assert W(L.comp1(L.inv_2(k), k)) == P.comp1(P.inv_2(W(k)), W(k))


def test_tilde_vee_roundtrip_enumerated_big():
    from graypath.homspace import enumerate_strict_functors
    B = fixture("BIG")
    funs, _ = enumerate_strict_functors(B, B)
    assert len(funs) >= 4
    for F in funs:
        P = strict_as_pseudo(F)
        assert tilde_vee_roundtrip(P, max_len=2)


def test_kleisli_unit_and_strictness():
    B = fixture("BIG")
    idp = kleisli_identity(B)
    assert pseudo_maps_equal(kleisli_compose(idp, idp), idp)
    from graypath.homspace import enumerate_strict_functors
    funs, _ = enumerate_strict_functors(B, B)
    for F in funs:
        Fp = strict_as_pseudo(F)
        Fp.cod = B
        Fp.dom = B
        assert pseudo_maps_equal(kleisli_compose(idp, Fp), Fp)


def test_kleisli_cocycle_matches_remark_formula():
    """(GF)^2 must agree with G~ o Q1(F~) o d evaluated on kappa cells."""
    B = fixture("BIG")
    from graypath.homspace import enumerate_strict_functors
    funs, _ = enumerate_strict_functors(B, B)
    maps = [strict_as_pseudo(F) for F in funs]
    for Fp in maps:
        for Gp in maps:
            Gp.dom = B
            Fp.cod = B
            GF = kleisli_compose(Gp, Fp)
            WG, WF = tilde(Gp), tilde(Fp)
            for (f1, f2) in composable_keys(B, "comp0"):
                k = kappa(B, f1, f2) if not (B.is_id1(f1) or B.is_id1(f2)) \
                    else None
                if k is None:
                    continue
                # oracle: push kappa through d, Q1(F~), then G~
                dk = q1_comult(B, k)
                from graypath.resolution import q1_tag

                def q1F(c):
                    # Q1 of the strict evaluator: entrywise F~ on lists
                    tag = q1_tag(c)
                    if tag is None:
                        return WF(c)
                    if tag == "q1":
                        entries = [q1_normalize(B, [WF(e)],
                                                anchor=Fp(0, e[1]))
                                   for e in c[2]]
                        flat = [f for e in entries for f in e[2]]
                        return q1_normalize(B, flat, anchor=Fp(0, c[1]))
                    return (tag, WF(c[1]), q1F(c[2]), q1F(c[3]))

                oracle = WG(q1F(dk))
                assert GF.coc(f1, f2) == oracle


def test_strictify_idempotent_and_multiplicative():
    for name in ("PAIR", "INT", "TWIST"):
        C = fixture(name)
        F = kleisli_identity(C)
        s = strictify(F)
        assert pseudo_maps_equal(s, F)  # strict input is fixed
        assert pseudo_maps_equal(strictify(s), s)
        for (f1, f2) in composable_keys(C, "comp0"):
            assert s(1, C.comp0(f1, f2)) == C.comp0(s(1, f1), s(1, f2))


def nontrivial_pseudo_into_path_twist():
    """A pseudo map PAIR -|-> path(TWIST) with a genuinely nontrivial cocycle."""
    from graypath.pathspace import build_pathspace, PathView, p2
    T = fixture("TWIST")
    PT = build_pathspace(T)
    P = fixture("PAIR")
    V = PathView(T)
    qf = ("sq", "alpha", "idx", "idy", "f", "fp")
    qg = ("sq", "beta.fp", "idx", "g", "fp", "gp.fp")
    comp = V.comp0(qg, qf)
    qh = ("sq", "b>a", "idx", "g", "f", "gp.fp")
    coc3 = p2(T, "tau", T.ident(1, "idx"), T.ident(1, "g"), comp, qh)
    assign = {
        0: {"x": "f", "y": "fp", "z": "gp.fp"},
        1: {"f": qf, "g": qg, "h": qh,
            "idx": PT.ident(0, "f"), "idy": PT.ident(0, "fp"),
            "idz": PT.ident(0, "gp.fp")},
        2: {}, 3: {},
    }
    for a in P.cells[2]:
        assign[2][a] = PT.ident(1, assign[1][P.src(2, a)])
    for g3 in P.cells[3]:
        assign[3][g3] = PT.ident(2, assign[2][P.src(3, g3)])
    coc = {}
    for (f1, f2) in composable_keys(P, "comp0"):
        if (f1, f2) == ("g", "f"):
            coc[(f1, f2)] = coc3
        else:
            img = PT.comp0(assign[1][f1], assign[1][f2])
            coc[(f1, f2)] = PT.ident(1, img)
    return PseudoMap(P, PT, assign, coc, name="twisted"), PT


def test_nontrivial_pseudo_map_validates_and_strictifies():
    F, PT = nontrivial_pseudo_into_path_twist()
    assert all_pass(validate_pseudo_map(F))
    assert not F.is_strict()
    s = strictify(F)
    assert s.is_strict()
    assert s(1, "h") == PT.comp0(F(1, "g"), F(1, "f"))  # image-composite
    assert pseudo_maps_equal(strictify(s), s)
    assert tilde_vee_roundtrip(F, max_len=2)


def test_comonad_laws():
    for name, L in (("PAIR", 3), ("TWIST", 3), ("T1", 4)):
        reports = comonad_law_check(fixture(name), max_len=L)
        assert all_pass(reports), [r for r in reports if not r.ok]
        assert all(r.tuples_checked > 0 for r in reports)


# sha256 of `graypath --report json check comonad NAME`, taken before the
# check computed the generator words once
COMONAD_REPORTS = {
    "PAIR": "30ab9f29bc7e80eaac971fe01e9e030f4a2128c1c91364edb5a9017a6e1ef0ed",
    "TWIST": "68438aca557b0cda9a6ee091a8907ac2c64796eeea4eb0e03c81fca181d3688f",
    "CHAIN4":
        "3e8d77472c2626c90ab38a78f6ce973a22fed9bfc62202e700572aa64a5dabe9",
}


@pytest.mark.parametrize("name", sorted(COMONAD_REPORTS))
def test_comonad_check_decomposes_the_generators_once(monkeypatch, name):
    """check comonad computes the generator words once per check, and its
    JSON report keeps its digest."""
    import hashlib

    from click.testing import CliRunner

    from graypath import resolution
    from graypath.cli import main
    calls = []
    body = resolution.generator_decomposition

    def counted(C):
        calls.append(C.name)
        return body(C)
    monkeypatch.setattr(resolution, "generator_decomposition", counted)
    r = CliRunner().invoke(main, ["--report", "json", "check", "comonad",
                                  name])
    assert r.exit_code == 0, r.output
    assert calls == [name]
    assert hashlib.sha256(r.output.encode("utf-8")).hexdigest() == \
        COMONAD_REPORTS[name]


def test_k_section_of_e_on_one_free():
    I = fixture("INT")
    words = generator_decomposition(I)
    assert words["a"] == ("a",)
    for d in range(4):
        for c in I.cells[d]:
            assert q1_counit(I, section_k(I, c)) == c


def test_not_one_free():
    from graypath.kernel import NotOneFree
    C = fixture("CYC2")
    with pytest.raises(NotOneFree):
        generator_decomposition(C)


def test_pseudo_map_json_roundtrip():
    B = fixture("BIG")
    F = kleisli_identity(B)
    doc = pseudo_map_to_doc(F)
    F2 = pseudo_map_from_doc(doc, B, B)
    assert pseudo_maps_equal(F, F2)
