"""Kernel: axiom checker, horizontal composites, pullback along a functor."""

import hashlib

import pytest

from graypath.fixtures import fixture, fixture_names
from graypath.kernel import (FinCat, Functor, NotAFunctor, NotComposable,
                             all_pass, check_gray_axioms, hcomp_left,
                             hcomp_right, pullback_along_functor,
                             structural_violations)

ALL = ["T1", "INT", "BIG", "PAIR", "CYC2", "TWIST", "CHAIN3", "CHAIN4"]


@pytest.mark.parametrize("name", ALL)
def test_fixture_passes_axioms(name):
    C = fixture(name)
    assert structural_violations(C) == []
    reports = check_gray_axioms(C)
    assert all_pass(reports), [r for r in reports if not r.ok]
    assert all(r.tuples_checked >= 1 for r in reports
               if r.law not in ("groupoid-laws",) or C.is_groupoid)


def test_hcomp_identity_whisker_is_unit():
    B = fixture("BIG")
    # hcomp with the identity 2-cell on id_y collapses to alpha
    a = "alpha"
    idy2 = B.ident(1, "idy")
    assert hcomp_left(B, idy2, a) == a
    assert hcomp_right(B, idy2, a) == a


def test_hcomp_twist_matches_table_oracle():
    T = fixture("TWIST")
    # oracle: direct two-step lookup
    left = T.comp1_22[(T.whisk_r12[("beta", "fp")], T.whisk_l12[("g", "alpha")])]
    assert hcomp_left(T, "beta", "alpha") == left == "b<a"
    right = T.comp1_22[(T.whisk_l12[("gp", "alpha")], T.whisk_r12[("beta", "f")])]
    assert hcomp_right(T, "beta", "alpha") == right == "b>a"


def test_hcomp_t1_identity():
    C = fixture("T1")
    i2 = C.ident(1, "id*")
    assert hcomp_left(C, i2, i2) == i2


def test_hcomp_sides_agree_on_identities_and_tensor_trivial():
    for name in ALL:
        C = fixture(name)
        for (b, a) in sorted(C.tensor_, key=repr):
            if C.is_id2(b) or C.is_id2(a):
                assert hcomp_left(C, b, a) == hcomp_right(C, b, a)
                assert C.is_id3(C.tensor(b, a))


def test_noncomposable_raises():
    B = fixture("BIG")
    with pytest.raises(NotComposable):
        B.comp0("f", "g")  # f: x->y after g: x->y does not compose


def test_twist_closure_against_free_enumerator():
    """Brute-force free construction on two 0-composable 2-cells.

    2-cells of the composite hom are the monotone paths in the 2x2 grid of
    whiskered generators; 3-cells are the identities plus the invertible
    interchanger pair.
    """
    T = fixture("TWIST")
    # hom(x, z): 4 identity 2-cells + 4 single moves + 2 full paths
    homxz = [a for a in T.cells[2]
             if T.src0(2, a) == "x" and T.tgt0(2, a) == "z"]
    assert len(homxz) == 10
    grid_vertices = {("f", "g"), ("fp", "g"), ("f", "gp"), ("fp", "gp")}
    ones = {a for a in T.cells[1] if T.src(1, a) == "x" and T.tgt(1, a) == "z"}
    assert ones == {f"{g}.{f}" for (f, g) in grid_vertices}
    # 3-cells: one identity per 2-cell plus the interchanger and its inverse
    assert len(T.cells[3]) == len(T.cells[2]) + 2
    nonid = [g for g in T.cells[3] if not T.is_id3(g)]
    assert sorted(nonid) == ["tau", "tau~"]
    assert T.tensor_[("beta", "alpha")] == "tau"
    assert T.src(3, "tau") == hcomp_left(T, "beta", "alpha")
    assert T.tgt(3, "tau") == hcomp_right(T, "beta", "alpha")
    assert T.inv_3("tau") == "tau~"


def test_corrupted_tensor_face_is_caught():
    from graypath.faults import copy_graycat
    T = copy_graycat(fixture("TWIST"))
    # swap the interchanger's faces by corrupting the tensor entry
    T.tensor_[("beta", "alpha")] = "tau~"
    reports = check_gray_axioms(T)
    bad = [r for r in reports if not r.ok]
    assert bad and any(r.counterexample for r in bad)
    # re-evaluating the law on the counterexample still fails
    law = [r for r in bad if r.law == "tensor-laws"]
    assert law and law[0].counterexample[0] == "tensor-faces"


def _free_interval_fincat():
    C = FinCat("free-a")
    for x in ("0", "1"):
        C.add_object(x)
        C.add_morphism(f"id{x}", x, x)
        C.ids[x] = f"id{x}"
    C.add_morphism("a", "0", "1")
    for f in C.morphisms:
        C.comp[(f, C.ids[C.src[f]])] = f
        C.comp[(C.ids[C.tgt[f]], f)] = f
    # dedupe identity-square entries
    C.comp[("id0", "id0")] = "id0"
    C.comp[("id1", "id1")] = "id1"
    return C


def test_pullback_along_identity_functor():
    G = fixture("BIG")
    C = FinCat("big1")
    for x in G.cells[0]:
        C.add_object(x)
        C.ids[x] = G.id_up[0][x]
    for f in G.cells[1]:
        C.add_morphism(f, G.src(1, f), G.tgt(1, f))
    C.comp = dict(G.comp0_11)
    F = Functor(C, G, {x: x for x in C.objects}, {f: f for f in C.morphisms})
    P, proj = pullback_along_functor(F, G)
    assert structural_violations(P) == []
    assert all_pass(check_gray_axioms(P))
    # canonical bijection on every dimension
    for d in range(4):
        assert len(P.cells[d]) == len(G.cells[d])
    # projection is face-preserving by construction
    for c in P.cells[2]:
        assert G.src(2, proj[2][c]) == proj[1][P.src(2, c)]
        assert G.tgt(2, proj[2][c]) == proj[1][P.tgt(2, c)]


def test_pullback_free_interval_into_int():
    G = fixture("INT")
    C = _free_interval_fincat()
    F = Functor(C, G, {"0": "0", "1": "1"},
                {"id0": "id0", "id1": "id1", "a": "a"})
    P, proj = pullback_along_functor(F, G)
    # oracle: 2-cells are exactly (id; f, g) pairs over equal composites
    expected = set()
    for f in C.morphisms:
        for g in C.morphisms:
            if C.src[f] == C.src[g] and C.tgt[f] == C.tgt[g]:
                for a in G.cells[2]:
                    if (G.src(2, a) == F.mor_map[f]
                            and G.tgt(2, a) == F.mor_map[g]):
                        expected.add(("pb2", a, f, g))
    assert set(P.cells[2]) == expected
    assert all_pass(check_gray_axioms(P))


def test_pullback_empty_index():
    G = fixture("BIG")
    C = FinCat("empty")
    F = Functor(C, G, {}, {})
    P, _ = pullback_along_functor(F, G)
    assert all(len(P.cells[d]) == 0 for d in range(4))


def test_pullback_rejects_non_functor():
    G = fixture("PAIR")
    C = _free_interval_fincat()
    bad = Functor(C, G, {"0": "x", "1": "z"},
                  {"id0": "idx", "id1": "idz", "a": "f"})  # f: x->y, not x->z
    with pytest.raises(NotAFunctor):
        pullback_along_functor(bad, G)


def _identity_functor(G):
    """G's underlying category as a FinCat, with the identity functor."""
    C = FinCat(f"{G.name}1")
    for x in G.cells[0]:
        C.add_object(x)
        C.ids[x] = G.id_up[0][x]
    for f in G.cells[1]:
        C.add_morphism(f, G.src(1, f), G.tgt(1, f))
    C.comp = dict(G.comp0_11)
    return Functor(C, G, {x: x for x in C.objects},
                   {f: f for f in C.morphisms})


# sha256 of presentation.dumps of each pullback, taken from the code that
# filled the ten tables by hand, one loop per table, before they were
# filled over composable_keys
PULLBACK_DOCUMENTS = {
    "BIG": "fa74feae6c998d59964dee12c7d33eedb9b478e63de086ee3122e86dfd43f0c5",
    "INT": "355fc64930a03790f00e765c0278113be66a87fe9efa57d61c3cc8254e11d3e1",
}


@pytest.mark.parametrize("name", sorted(PULLBACK_DOCUMENTS))
def test_pullback_document_is_pinned(name):
    from graypath import presentation
    G = fixture(name)
    if name == "BIG":
        F = _identity_functor(G)
    else:
        F = Functor(_free_interval_fincat(), G, {"0": "0", "1": "1"},
                    {"id0": "id0", "id1": "id1", "a": "a"})
    P, _ = pullback_along_functor(F, G)
    text = presentation.dumps(P)
    assert hashlib.sha256(text.encode()).hexdigest() == PULLBACK_DOCUMENTS[name]
    assert structural_violations(P) == []


def test_unknown_fixture():
    from graypath.fixtures import UnknownFixture
    with pytest.raises(UnknownFixture):
        fixture("NOPE")


def test_cyc2_group_law():
    C = fixture("CYC2")
    assert C.comp0("s", "s") == "e"
    assert C.inv_1("s") == "s"
    assert C.is_groupoid


def test_one_sort_per_table_keeps_both_orders():
    """The checker sorts each operation table once, by the repr of its keys,
    and reads that order both where it used to sort the items by repr and
    where it used to sort the keys by repr; on these inputs, built and
    loaded, the three orders agree table by table."""
    from graypath import presentation
    from graypath.homspace import hom_graycat
    from graypath.kernel import TABLES, _key_order
    from graypath.pathspace import build_pathspace
    path_pair = build_pathspace(fixture("PAIR"))
    inputs = [fixture(name) for name in ALL] + [
        path_pair, presentation.loads(presentation.dumps(path_pair)),
        hom_graycat(fixture("INT"), fixture("BIG"))[0]]
    for C in inputs:
        for _, name, *_ in TABLES:
            table = getattr(C, name)
            once = _key_order(table)
            assert once == sorted(table.items(), key=repr), (C.name, name)
            assert [k for k, _ in once] == sorted(table, key=repr)


def _numbered_document():
    """BIG's document with its cell ids renamed to JSON numbers, ints and
    floats whose reprs are prefixes of each other's (1, 12, 1.5, ...)."""
    import json

    from graypath import presentation
    doc = json.loads(presentation.dumps(fixture("BIG")))
    ids = iter([n for k in range(1, 40)
                for n in (k, 10 * k + 2, k + 0.5)])
    numbers = {}

    def renamed(x):
        if isinstance(x, str):
            if x not in numbers:
                numbers[x] = next(ids)
            return numbers[x]
        if isinstance(x, list):
            return [renamed(y) for y in x]
        if isinstance(x, dict):
            return {k: renamed(v) for k, v in x.items()}
        return x

    for key in ("objects", "morphisms", "two_cells", "three_cells",
                "identities", "tables"):
        doc[key] = renamed(doc[key])
    doc["flags"]["generators"] = renamed(doc["flags"]["generators"])
    return presentation.loads(json.dumps(doc))


def test_key_order_is_the_order_of_the_keys_reprs():
    """_key_order, which reads each operand's repr once, sorts every table
    as sorting its items by the repr of the whole key does: on the
    fixtures, path(TWIST), pb2(CYC2), [PAIR,BIG] and a loaded document
    whose cell ids are JSON numbers."""
    from graypath.homspace import hom_graycat
    from graypath.kernel import TABLES, _key_order
    from graypath.pathcomp import build_pullback
    from graypath.pathspace import build_pathspace
    cyc2 = fixture("CYC2")
    numbered = _numbered_document()
    assert {type(c) for d in numbered.DIMS for c in numbered.cells[d]} == \
        {int, float}
    inputs = [fixture(name) for name in ALL] + [
        build_pathspace(fixture("TWIST")),
        build_pullback(build_pathspace(cyc2), cyc2, 2),
        hom_graycat(fixture("PAIR"), fixture("BIG"))[0], numbered]
    for C in inputs:
        for _, name, *_ in TABLES:
            table = getattr(C, name)
            assert _key_order(table) == \
                sorted(table.items(), key=lambda kv: repr(kv[0])), \
                (C.name, name)


def _keep_all(d, c):
    return True


@pytest.mark.parametrize("name", ALL + ["path(PAIR)"])
def test_sub_graycat_keeping_everything_is_a_copy(name):
    from graypath.kernel import sub_graycat
    from graypath.pathspace import build_pathspace
    from graypath.presentation import dumps
    C = build_pathspace(fixture("PAIR")) if name == "path(PAIR)" else fixture(name)
    S = sub_graycat(C, _keep_all, name=C.name)
    S.generators = C.generators
    assert dumps(S) == dumps(C)


def test_sub_graycat_without_an_identity_fails():
    from graypath.kernel import FactorizationFailed, sub_graycat
    B = fixture("BIG")
    dropped = B.ident(1, "f")
    with pytest.raises(FactorizationFailed):
        sub_graycat(B, lambda d, c: c != dropped)


@pytest.mark.parametrize("left, right, counts", [
    ("BIG", "PAIR", [6, 24, 30, 30]),
    ("INT", "TWIST", [6, 33, 57, 63]),
    ("CYC2", "CYC2", [1, 4, 4, 4]),
])
def test_product_graycat_is_a_gray_category(left, right, counts):
    """The product is a Gray-category whose tables and 1-cell inverses are
    the componentwise products of its factors'."""
    from graypath.kernel import TABLES, product_graycat
    A, B = fixture(left), fixture(right)
    P = product_graycat(A, B)
    assert [len(P.cells[d]) for d in range(4)] == counts
    assert structural_violations(P) == []
    reports = check_gray_axioms(P)
    assert all_pass(reports), [r for r in reports if not r.ok]
    assert P.is_groupoid == (left == right == "CYC2")
    for _, attr, *_ in TABLES:
        assert getattr(P, attr) == {
            ((l1, l2), (r1, r2)): (v1, v2)
            for (l1, r1), v1 in getattr(A, attr).items()
            for (l2, r2), v2 in getattr(B, attr).items()}, attr
    assert P.inv1 == ({(f, g): (fi, gi) for f, fi in A.inv1.items()
                       for g, gi in B.inv1.items()} if P.is_groupoid else {})


# (name in messages, GrayCat attribute, left, right and result dimensions)
_TABLE_DIMS = [
    ("comp0", "comp0_11", 1, 1, 1), ("whisk_l12", "whisk_l12", 1, 2, 2),
    ("whisk_r12", "whisk_r12", 2, 1, 2), ("whisk_l13", "whisk_l13", 1, 3, 3),
    ("whisk_r13", "whisk_r13", 3, 1, 3), ("comp1", "comp1_22", 2, 2, 2),
    ("whisk_l23", "whisk_l23", 2, 3, 3), ("whisk_r23", "whisk_r23", 3, 2, 3),
    ("comp2", "comp2_33", 3, 3, 3), ("tensor", "tensor_", 2, 2, 3),
]


@pytest.mark.parametrize("name, attr, dl, dr, dout", _TABLE_DIMS)
def test_dangling_table_row_is_located(name, attr, dl, dr, dout):
    from graypath.faults import copy_graycat
    C = copy_graycat(fixture("BIG"))
    table = getattr(C, attr)
    (l, r), v = sorted(table.items(), key=repr)[0]
    table[("ghost", r)] = v
    table[(l, "ghost")] = v
    table[(l, r)] = "ghost"
    assert structural_violations(C) == [
        f"{name}[{l!r},{r!r}]: result 'ghost' not a {dout}-cell",
        f"{name}['ghost',{r!r}]: left operand not a {dl}-cell",
        f"{name}[{l!r},'ghost']: right operand not a {dr}-cell",
    ]


# one pair of declared BIG cells per table that its operation cannot compose
_NOT_COMPOSABLE = [
    ("comp0", "comp0_11", "f", "f"),
    ("whisk_l12", "whisk_l12", "f", "alpha"),
    ("whisk_r12", "whisk_r12", "alpha", "f"),
    ("whisk_l13", "whisk_l13", "f", "id[alpha]"),
    ("whisk_r13", "whisk_r13", "id[alpha]", "f"),
    ("comp1", "comp1_22", "alpha", "alpha"),
    ("whisk_l23", "whisk_l23", "alpha", "id[alpha]"),
    ("whisk_r23", "whisk_r23", "id[alpha]", "alpha"),
    ("comp2", "comp2_33", "id[alpha]", "id[id[f]]"),
    ("tensor", "tensor_", "alpha", "alpha"),
]


@pytest.mark.parametrize("name, attr, l, r", _NOT_COMPOSABLE)
def test_non_composable_table_row_is_located(name, attr, l, r):
    """A table row re-keyed onto declared cells that do not compose is a
    structural violation, and the checker's faces entry for that table
    fails on it: a table's keys are exactly its composable pairs."""
    from graypath.faults import copy_graycat
    C = copy_graycat(fixture("BIG"))
    table = getattr(C, attr)
    v = table.pop(sorted(table, key=repr)[0])
    table[(l, r)] = v
    violations = structural_violations(C)
    assert violations[0] == f"{name}[{l!r},{r!r}]: operands not composable"
    assert sum("not composable" in msg for msg in violations) == 1
    # the tensor's faces entry opens the tensor laws; the others are
    # incidence-and-faces entries
    law = "tensor-laws" if name == "tensor" else "incidence-and-faces"
    report = next(rep for rep in check_gray_axioms(C) if rep.law == law)
    assert not report.ok
    assert report.counterexample[:3] == (f"{name}-faces", l, r)


# -- the checker's position route against the route on C ----------------------


def _c_route(C):
    """check_gray_axioms as it reads on C itself: every law on C's cells,
    each table sorted by _key_order."""
    from graypath.kernel import _gray_law_generators, _key_order, run_laws
    return [r.as_dict() for r in run_laws(_gray_law_generators(C, _key_order))]


def _path(name, loaded=False):
    from graypath import presentation
    from graypath.pathspace import build_pathspace
    P = build_pathspace(fixture(name))
    return presentation.loads(presentation.dumps(P)) if loaded else P


def _big_with_object_named_as_a_1_cell():
    """BIG's document with object 'x' renamed 'f', the id of a 1-cell, so
    that C has equal cells in two dimensions, as its position copy does."""
    import json

    from graypath import presentation
    doc = json.loads(presentation.dumps(fixture("BIG")))

    def renamed(x):
        if x == "x":
            return "f"
        if isinstance(x, list):
            return [renamed(y) for y in x]
        if isinstance(x, dict):
            return {k: renamed(v) for k, v in x.items()}
        return x

    for key in ("objects", "morphisms", "identities"):
        doc[key] = renamed(doc[key])
    C = presentation.loads(json.dumps(doc))
    assert "f" in C.cells[0] and "f" in C.cells[1]
    return C


def _pb2_cyc2():
    from graypath.pathcomp import build_pullback
    from graypath.pathspace import build_pathspace
    H = fixture("CYC2")
    return build_pullback(build_pathspace(H), H, 2)


def _hom(left, right):
    from graypath.homspace import hom_graycat
    return hom_graycat(fixture(left), fixture(right))[0]


PASSING = {
    **{name: (lambda name=name: fixture(name)) for name in ALL},
    **{f"path({name})": (lambda name=name: _path(name))
       for name in ("BIG", "PAIR", "CYC2", "CHAIN3", "TWIST")},
    **{f"loaded path({name})": (lambda name=name: _path(name, loaded=True))
       for name in ("BIG", "PAIR", "CYC2", "CHAIN3", "TWIST")},
    "pb2(CYC2)": _pb2_cyc2,
    "[INT,BIG]": lambda: _hom("INT", "BIG"),
    "[PAIR,BIG]": lambda: _hom("PAIR", "BIG"),
    "numbered BIG": _numbered_document,
    "BIG with object f": _big_with_object_named_as_a_1_cell,
}


@pytest.mark.parametrize("name", sorted(PASSING))
def test_position_route_matches_the_route_on_c_when_every_law_passes(name):
    """On a Gray-category, the laws run on the position copy give the
    reports of the laws run on C: same laws, order and tuple counts."""
    from graypath.kernel import gray_axioms_hold
    C = PASSING[name]()
    expected = _c_route(C)
    assert all(r["status"] == "pass" for r in expected)
    assert [r.as_dict() for r in check_gray_axioms(C)] == expected
    assert gray_axioms_hold(C)


_CORRUPTED = ["INT", "BIG", "PAIR", "CYC2", "TWIST", "CHAIN3", "path(PAIR)"]


@pytest.fixture(scope="module")
def corruptible():
    return {name: _path("PAIR") if name == "path(PAIR)" else fixture(name)
            for name in _CORRUPTED}


@pytest.mark.parametrize("seed", range(40))
def test_position_route_matches_the_route_on_c_on_a_seeded_fault(
        corruptible, seed):
    """A law that fails on the position copy is run again on C, so every
    report, counterexample included, is the route on C's."""
    from graypath.faults import corrupt_graycat
    from graypath.kernel import gray_axioms_hold
    D, _ = corrupt_graycat(corruptible[_CORRUPTED[seed % len(_CORRUPTED)]],
                           seed)
    expected = _c_route(D)
    assert any(r["status"] == "fail" for r in expected)
    assert [r.as_dict() for r in check_gray_axioms(D)] == expected
    assert not gray_axioms_hold(D)


@pytest.mark.parametrize("attr", ["comp0_11", "comp1_22", "whisk_l12",
                                  "comp2_33", "tensor_"])
def test_a_missing_row_is_reported_with_the_cells_of_c(attr):
    """Without one composable row an operation raises MissingTableEntry on
    the position copy; the re-run on C names C's cells in its message."""
    from graypath.faults import copy_graycat
    from graypath.kernel import TABLES, gray_axioms_hold
    C = copy_graycat(_path("PAIR"))
    table = getattr(C, attr)
    key = sorted(table, key=repr)[0]
    del table[key]
    expected = _c_route(C)
    assert [r.as_dict() for r in check_gray_axioms(C)] == expected
    name = next(name for name, a, *_ in TABLES if a == attr)
    errors = [r["counterexample"] for r in expected if r["status"] == "fail"]
    assert ["error", "MissingTableEntry",
            f"{C.name}: no {name} entry for {key!r}"] in errors
    assert not gray_axioms_hold(C)


# what the position copy names a non-cell "ghost" by
GHOST = ("absent", "ghost")


def _ghost_key(C):
    f = C.cells[1][0]
    C.comp0_11[("ghost", f)] = f
    return lambda N: N.comp0_11[(GHOST, 0)] == 0


def _ghost_value(C):
    l, r = sorted(C.comp1_22, key=repr)[0]
    C.comp1_22[(l, r)] = "ghost"
    i, j = C.cells[2].index(l), C.cells[2].index(r)
    return lambda N: N.comp1_22[(i, j)] == GHOST


def _ghost_face(C):
    C.src_[2][C.cells[2][-1]] = "ghost"
    return lambda N: N.src_[2][len(C.cells[2]) - 1] == GHOST


def _ghost_identity(C):
    C.id_up[1][C.cells[1][0]] = "ghost"
    return lambda N: N.id_up[1][0] == GHOST


def _entries(C):
    """Every face, identity, inverse and table dict of C, in one order."""
    from graypath.kernel import TABLES
    return ([C.src_[d] for d in (1, 2, 3)] + [C.tgt_[d] for d in (1, 2, 3)]
            + [C.id_up[d] for d in (0, 1, 2)] + [C.inv1, C.inv2, C.inv3]
            + [getattr(C, attr) for _, attr, *_ in TABLES])


@pytest.mark.parametrize("plant", [_ghost_key, _ghost_value, _ghost_face,
                                   _ghost_identity])
def test_a_name_that_is_not_a_cell_runs_every_law_on_c(plant):
    """A table key or value, a face or an identity that is not a declared
    cell keeps its entry in the position copy, under a name that no
    position equals; each law that fails there runs again on C, so every
    report is the route on C's."""
    from graypath.faults import copy_graycat
    from graypath.kernel import _by_position, _ranks, gray_axioms_hold
    C = copy_graycat(fixture("BIG"))
    kept = plant(C)
    N = _by_position(C, _ranks(C))
    assert [len(e) for e in _entries(N)] == [len(e) for e in _entries(C)]
    assert kept(N)
    expected = _c_route(C)
    assert any(r["status"] == "fail" for r in expected)
    assert [r.as_dict() for r in check_gray_axioms(C)] == expected
    assert not gray_axioms_hold(C)


def test_a_passing_check_sorts_no_table(monkeypatch):
    """Only a failing law's counterexample depends on the order of the
    tables, so a passing check and the fault trials sort nothing."""
    from graypath import kernel
    from graypath.faults import corrupt_graycat, run_fault_trials
    P = _path("PAIR")
    D, _ = corrupt_graycat(fixture("BIG"), 0)
    sorts = []
    key_order = kernel._key_order

    def counted(table):
        sorts.append(table)
        return key_order(table)

    monkeypatch.setattr(kernel, "_key_order", counted)
    assert all_pass(check_gray_axioms(P))
    assert run_fault_trials(fixture, ["BIG", "PAIR"], 10)[:2] == (10, 10)
    assert sorts == []
    # a failing law is run again on C, reading its tables sorted
    assert not all_pass(check_gray_axioms(D))
    assert sorts


def test_strict_map_violations_name_a_changed_table_image():
    """violations() is the list validate() raises on: empty on an identity
    map, and naming each table row that a changed image breaks."""
    from graypath.homspace import enumerate_strict_functors
    from graypath.kernel import Mismatch, StrictMap, identity_map
    for name in ("BIG", "PAIR"):
        assert identity_map(fixture(name)).violations() == []
    G, H = fixture("PAIR"), fixture("BIG")
    funs, _ = enumerate_strict_functors(G, H)
    F = next(F for F in funs
             if F.maps[1]["f"] == "f" and F.maps[1]["h"] == "f")
    assert F.violations() == []
    maps = {d: dict(F.maps[d]) for d in F.maps}
    # h = g #0 f goes to the parallel g, and its identities follow
    maps[1]["h"], maps[2]["id[h]"], maps[3]["id[id[h]]"] = \
        "g", "id[g]", "id[id[g]]"
    bad = StrictMap(G, H, maps)
    assert bad.violations()[:5] == [
        ("table", "comp0", "g", "f"), ("table", "wl12", "g", "id[f]"),
        ("table", "wr12", "id[g]", "f"), ("table", "wl13", "g", "id[id[f]]"),
        ("table", "wr13", "id[id[g]]", "f")]
    with pytest.raises(Mismatch):
        bad.validate()


def _law(name, verdicts, started):
    started.append(name)
    for i, ok in enumerate(verdicts, 1):
        yield ok, (name, i)


def test_run_laws_reruns_exactly_the_failing_laws_from_the_witness():
    """A failing law's report is replaced by its re-run from witness();
    a passing law is not run again and keeps its report."""
    from graypath.kernel import run_laws
    first, again = [], []
    fast = {"a": [True, True], "b": [True, False], "c": [True], "d": [False]}
    slow = {"a": [False], "b": [False, True], "c": [False], "d": [True, False]}
    reports = run_laws([(n, _law(n, v, first)) for n, v in fast.items()],
                       witness=lambda: [(n, _law(n, v, again))
                                        for n, v in slow.items()])
    assert [r.as_dict() for r in reports] == [
        {"law": "a", "status": "pass", "tuples_checked": 2,
         "counterexample": None},
        {"law": "b", "status": "fail", "tuples_checked": 1,
         "counterexample": ["b", 1]},
        {"law": "c", "status": "pass", "tuples_checked": 1,
         "counterexample": None},
        {"law": "d", "status": "fail", "tuples_checked": 2,
         "counterexample": ["d", 2]}]
    assert first == ["a", "b", "c", "d"]
    assert again == ["b", "d"]


def test_run_laws_asks_no_witness_when_every_law_passes():
    from graypath.kernel import run_laws

    def witness():
        raise AssertionError("a passing run asks for no witness")

    started = []
    reports = run_laws([("a", _law("a", [True], started))], witness=witness)
    assert all_pass(reports) and started == ["a"]
    # without a witness a failing report stands
    report, = run_laws([("b", _law("b", [True, False], started))])
    assert report.counterexample == ("b", 2)


def test_inv_2_and_inv_3_name_a_cell_without_an_inverse():
    from graypath.faults import copy_graycat
    from graypath.kernel import NotAGroupoid
    with pytest.raises(NotAGroupoid,
                       match=r"^BIG: 2-cell 'alpha' has no #1-inverse$"):
        fixture("BIG").inv_2("alpha")
    T = copy_graycat(fixture("TWIST"))
    T.inv3 = {}
    del T.comp2_33[("tau~", "tau")]
    with pytest.raises(NotAGroupoid,
                       match=r"^TWIST: 3-cell 'tau' has no #2-inverse$"):
        T.inv_3("tau")


def test_inverse_reads_the_table_then_searches():
    """GrayCat.inverse is the #1-inverse of a 2-cell or the #2-inverse of a
    3-cell, or None when there is none."""
    from graypath.faults import copy_graycat
    B, T = fixture("BIG"), fixture("TWIST")
    assert B.inverse(2, "alpha") is None
    assert B.inverse(2, "id[f]") == "id[f]"
    assert T.inverse(3, "tau") == "tau~"
    found = copy_graycat(T)
    found.inv3 = {}
    assert found.inverse(3, "tau") == "tau~"
    lost = copy_graycat(T)
    lost.inv3 = {}
    del lost.comp2_33[("tau~", "tau")]
    assert lost.inverse(3, "tau") is None
