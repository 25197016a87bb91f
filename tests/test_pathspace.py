"""Path spaces: construction, operations against term-by-term oracles, psi."""

import pytest

from graypath.fixtures import fixture
from graypath.highercells import Tower
from graypath.kernel import (TABLES, GrayCat, GrayError, NotComposable,
                             all_pass, check_gray_axioms, composable_keys,
                             hcomp_left, hcomp_right)
from graypath.pathspace import (PPrime, PathView, build_pathspace, degeneracy,
                                materialize, p2, p3, path_cells, path_map, pd0,
                                pd1, pdim, psi, sq, p_functor, face_map,
                                degeneracy_map)
from graypath.resolution import (Q1Layer, kleisli_identity, q1_comult,
                                 q1_counit, q1_normalize, validate_pseudo_map)

PATH_FIXTURES = ["T1", "INT", "BIG", "PAIR", "CYC2", "TWIST"]


@pytest.fixture(scope="module")
def spaces():
    return {name: (fixture(name), build_pathspace(fixture(name)))
            for name in PATH_FIXTURES}


@pytest.mark.parametrize("name", PATH_FIXTURES)
def test_pathspace_is_gray_category(spaces, name):
    _, P = spaces[name]
    reports = check_gray_axioms(P)
    assert all_pass(reports), [r for r in reports if not r.ok]


def test_pathspace_t1_trivial(spaces):
    _, P = spaces["T1"]
    assert [len(P.cells[d]) for d in range(4)] == [1, 1, 1, 1]


def test_pathspace_int_commuting_squares(spaces):
    """Independent incidence enumeration: all 2-cells of INT are identities,
    so squares are exactly the commuting quadruples."""
    H, P = spaces["INT"]
    count = 0
    for t in H.cells[1]:
        for b in H.cells[1]:
            for g0 in H.cells[1]:
                for g1 in H.cells[1]:
                    ok = (H.src(1, g0) == H.src(1, t)
                          and H.tgt(1, g0) == H.src(1, b)
                          and H.src(1, g1) == H.tgt(1, t)
                          and H.tgt(1, g1) == H.tgt(1, b)
                          and H.comp0_11.get((g1, t)) == H.comp0_11.get((b, g0)))
                    if ok:
                        count += 1
    assert count == 6
    assert len(P.cells[1]) == count
    assert set(P.cells[0]) == set(H.cells[1])


def test_pathspace_big_contains_bigon(spaces):
    _, P = spaces["BIG"]
    assert P.has_cell(1, ("sq", "alpha", "idx", "idy", "f", "g"))


def test_comp0_unit_and_big_example(spaces):
    H, P = spaces["BIG"]
    V = PathView(H)
    bigon = ("sq", "alpha", "idx", "idy", "f", "g")
    assert V.comp0(V.ident(0, "g"), bigon) == bigon
    assert V.comp0(bigon, V.ident(0, "f")) == bigon
    # oracle: two table lookups
    ig = V.ident(0, "g")
    two = H.comp1(H.whisk_r12[(ig[1], bigon[2])],
                  H.whisk_l12[(ig[3], bigon[1])])
    assert V.comp0(ig, bigon)[1] == two


def test_comp0_cyc2_faces_by_enumeration(spaces):
    H, P = spaces["CYC2"]
    V = PathView(H)
    for b in P.cells[1]:
        for a in P.cells[1]:
            if b[4] == a[5]:
                r = V.comp0(b, a)
                assert r[2] == H.comp0(b[2], a[2])
                assert r[3] == H.comp0(b[3], a[3])


def test_comp1_unit_and_associativity(spaces):
    H, P = spaces["BIG"]
    V = PathView(H)
    for a in P.cells[2]:
        assert V.comp1(V.ident(1, a[5]), a) == a
        assert V.comp1(a, V.ident(1, a[4])) == a
    triples = 0
    for (b, a) in P.comp1_22:
        for c in P.cells[2]:
            if c[4] == b[5]:
                assert V.comp1(V.comp1(c, b), a) == V.comp1(c, V.comp1(b, a))
                triples += 1
    assert triples > 0


def test_comp1_twist_matches_stepwise_oracle(spaces):
    H, P = spaces["TWIST"]
    V = PathView(H)
    checked = 0
    for (b, a) in P.comp1_22:
        if H.is_id3(b[1]) and H.is_id3(a[1]):
            continue
        # oracle: paste the two three-components term by term
        gq = a[4]
        f, f1 = gq[4], gq[5]
        step1 = H.wl23(H.wl12(f1, b[2]), a[1])
        step2 = H.wr23(b[1], H.wr12(a[3], f))
        expected = H.comp2(step2, step1)
        assert V.comp1(b, a)[1] == expected
        checked += 1
    assert checked > 0


def test_comp2_componentwise(spaces):
    H, P = spaces["TWIST"]
    V = PathView(H)
    for (d3, g3) in list(P.comp2_33)[:200]:
        r = V.comp2(d3, g3)
        assert r[1] == H.comp2(d3[1], g3[1])
        assert r[2] == H.comp2(d3[2], g3[2])
    for g3 in P.cells[3][:50]:
        assert V.comp2(V.ident(2, g3[4]), g3) == g3


def test_whisker12_identity_square(spaces):
    H, P = spaces["BIG"]
    V = PathView(H)
    for a in P.cells[2][:40]:
        gq = a[4]
        k = V.ident(0, gq[5])
        n = V.ident(0, gq[4])
        assert V.wl12(k, a) == a
        assert V.wr12(a, n) == a


def test_whisker12_faces(spaces):
    H, P = spaces["TWIST"]
    V = PathView(H)
    checked = 0
    for (k, a) in list(P.whisk_l12.items())[:150]:
        (kq, aa), r = k, a
        assert r[2] == H.wl12(kq[2], aa[2])
        assert r[3] == H.wl12(kq[3], aa[3])
        checked += 1
    assert checked > 0


def test_whisker13_two_functorial(spaces):
    H, P = spaces["BIG"]
    V = PathView(H)
    count = 0
    for (k, g3) in P.whisk_l13:
        for d3 in P.cells[3]:
            if P.src(3, d3) == P.tgt(3, g3):
                lhs = V.wl13(k, V.comp2(d3, g3))
                rhs = V.comp2(V.wl13(k, d3), V.wl13(k, g3))
                assert lhs == rhs
                count += 1
    assert count > 0


def test_whisker23_functorial_chain(spaces):
    H, P = spaces["BIG"]
    V = PathView(H)
    count = 0
    for (c, g3) in P.whisk_l23:
        # functoriality against comp1 of 2-cells
        for b in P.cells[2]:
            if P.src(2, b) == P.tgt(2, c):
                lhs = V.wl23(V.comp1(b, c), g3)
                rhs = V.wl23(b, V.wl23(c, g3))
                assert lhs == rhs
                count += 1
    assert count > 0


def test_hcomp_definitional(spaces):
    H, P = spaces["TWIST"]
    V = PathView(H)
    count = 0
    for b in P.cells[2][:60]:
        for a in P.cells[2][:60]:
            if b[4][4] != a[4][5]:
                continue
            left = hcomp_left(V, b, a)
            assert left == V.comp1(V.wr12(b, a[5]), V.wl12(b[4], a))
            right = hcomp_right(V, b, a)
            assert right == V.comp1(V.wl12(b[5], a), V.wr12(b, a[4]))
            count += 1
    assert count > 0


def test_tensor_identity_and_faces(spaces):
    H, P = spaces["TWIST"]
    V = PathView(H)
    nontrivial = 0
    for (bb, aa), t in list(P.tensor_.items())[:400]:
        assert P.src(3, t) == hcomp_left(V, bb, aa)
        assert P.tgt(3, t) == hcomp_right(V, bb, aa)
        if P.is_id2(bb) or P.is_id2(aa):
            assert P.is_id3(t)
        if t[1] == "tau" or t[2] == "tau":
            nontrivial += 1
    assert nontrivial > 0


def test_tensor_unique_nontrivial_instance_components(spaces):
    """The nonidentity instances carry the base interchanger componentwise."""
    H, P = spaces["TWIST"]
    V = PathView(H)
    b = degeneracy(H, 2, "beta")
    a = degeneracy(H, 2, "alpha")
    t = V.tensor(b, a)
    assert t[1] == H.tensor("beta", "alpha") == "tau"
    assert t[2] == "tau"
    assert P.has_cell(3, t)


def test_inverse_square(spaces):
    H, P = spaces["CYC2"]
    V = PathView(H)
    # double inverse is the identity on every square of the path space
    from graypath.pathcomp import o_cell
    for q in P.cells[1]:
        assert o_cell(H, o_cell(H, q)) == q
    isq = V.ident(0, H.ident(0, "*"))
    assert o_cell(H, isq) == isq


def test_pathspace_of_groupoid_is_groupoid(spaces):
    H, P = spaces["CYC2"]
    assert P.is_groupoid
    for f in P.cells[1]:
        assert f in P.inv1
    for a in P.cells[2]:
        P.inv_2(a)
    for g in P.cells[3]:
        P.inv_3(g)


def test_p_functor_identity_and_collapse(spaces):
    from graypath.kernel import identity_map
    H, P = spaces["BIG"]
    T, PT = spaces["T1"]
    idF = identity_map(H)
    FF = p_functor(idF, P, P)
    FF.validate()
    assert all(FF.maps[d][c] == c for d in range(4) for c in P.cells[d])
    # the unique map BIG -> T1
    from graypath.kernel import StrictMap
    maps = {0: {x: "*" for x in H.cells[0]},
            1: {f: "id*" for f in H.cells[1]},
            2: {a: "id[id*]" for a in H.cells[2]},
            3: {g: "id[id[id*]]" for g in H.cells[3]}}
    bang = StrictMap(H, T, maps, name="!")
    bang.validate()
    Pb = p_functor(bang, P, PT)
    Pb.validate()


def test_p_functor_face_degeneracy_naturality(spaces):
    from graypath.kernel import StrictMap, compose_maps
    H, P = spaces["CYC2"]
    auto = StrictMap(H, H, {d: {c: c for c in H.cells[d]} for d in range(4)})
    PF = p_functor(auto, P, P)
    d0P = face_map(P, H, 0)
    d1P = face_map(P, H, 1)
    iP = degeneracy_map(H, P)
    d0P.validate(), d1P.validate(), iP.validate()
    for d in range(4):
        for c in P.cells[d]:
            assert d0P.maps[d][PF.maps[d][c]] == auto.maps[d][d0P.maps[d][c]]
            assert d1P.maps[d][PF.maps[d][c]] == auto.maps[d][d1P.maps[d][c]]
        for c in H.cells[d]:
            assert PF.maps[d][iP.maps[d][c]] == iP.maps[d][auto.maps[d][c]]


def test_two_faithfulness_of_face_pair(spaces):
    """Distinct path 3-cells over equal 2-cell boundaries have distinct
    stored components; the enumeration never constructs duplicates."""
    for name in PATH_FIXTURES:
        _, P = spaces[name]
        seen = set()
        for g3 in P.cells[3]:
            key = (g3[1], g3[2], g3[3], g3[4])
            assert key not in seen
            seen.add(key)


# -- the semi-distributive law -------------------------------------------------


def _epath(G, cell):
    if pdim(cell) == 0:
        return q1_counit(G, cell)
    return path_map(lambda d, c: q1_counit(G, c), cell)


def _dpath(G, cell):
    if pdim(cell) == 0:
        return q1_comult(G, cell)
    return path_map(lambda d, c: q1_comult(G, c), cell)


def _q1psi(G, cell):
    from graypath.resolution import q1_tag
    tag = q1_tag(cell)
    if tag is None:
        return psi(G, cell)
    if tag == "q1":
        return ("q1", psi(G, cell[1]), tuple(psi(G, e) for e in cell[2]))
    return (tag, psi(G, cell[1]), _q1psi(G, cell[2]), _q1psi(G, cell[3]))


@pytest.mark.parametrize("name", ["BIG", "PAIR"])
def test_psi_counit_and_comultiplication_squares(spaces, name):
    G, PG = spaces[name]
    L = Q1Layer(PG)
    LG = Q1Layer(G)
    cells = (list(L.lists1(2)) + list(L.cells2(2)) + list(L.cells3(2)))
    assert cells
    for c in cells:
        ps = psi(G, c)
        assert _epath(G, ps) == q1_counit(PG, c)
        lhs = psi(LG, _q1psi(G, q1_comult(PG, c)))
        rhs = _dpath(G, ps)
        assert lhs == rhs


def test_psi_on_singletons_is_kappa_free(spaces):
    G, PG = spaces["BIG"]
    for q in PG.cells[1]:
        single = ("q1", q[4], (q,))
        out = psi(G, single)
        assert out[2] == q1_normalize(G, [q[2]], anchor=G.src(1, q[2]))
        assert out[3] == q1_normalize(G, [q[3]], anchor=G.src(1, q[3]))
        assert out[1][1] == q[1]


def test_p_on_strict_acts_like_path_functor(spaces):
    G, PG = spaces["BIG"]
    idp = kleisli_identity(G)
    pp = PPrime(idp)
    for d in range(4):
        for c in PG.cells[d]:
            assert pp.cell(d, c) == c


def test_p_prime_cocycle_matches_psi_route(spaces):
    """P'(G) cocycle equals path(G~) after psi on the kappa of two squares."""
    G, PG = spaces["BIG"]
    idp = kleisli_identity(G)
    pp = PPrime(idp)
    from graypath.resolution import TildeMap, kappa
    W = TildeMap(idp)
    checked = 0
    for (h, g) in list(PG.comp0_11)[:80]:
        if PG.is_id1(h) or PG.is_id1(g):
            continue
        kap = ("q2", PG.ident(1, PG.comp0(h, g)),
               ("q1", g[4], (h, g)), ("q1", g[4], (PG.comp0(h, g),)))
        ps = psi(G, kap)
        oracle = path_map(lambda d, c: W(c), ps)
        assert pp.coc(h, g) == oracle
        checked += 1
    assert checked > 0


def test_p_on_pseudo_is_pseudo(spaces):
    from graypath.pathspace import p_on_pseudo
    G, PG = spaces["BIG"]
    idp = kleisli_identity(G)
    PP = p_on_pseudo(idp, PG, PathView(G))
    assert all_pass(validate_pseudo_map(PP))


# -- materialize by lookup against a formula-only fill ------------------------


def _formula_fill(view, cells, name=""):
    """materialize as it was before it read its own tables: every identity
    and table value by the view's formula, each checked to be a listed
    cell and kept as the formula returned it."""
    C = GrayCat(name=name or view.name)
    for c in cells[0]:
        C.add_cell(0, c)
    for d in (1, 2, 3):
        for c in cells[d]:
            C.add_cell(d, c, view.src(d, c), view.tgt(d, c))

    def place(d, c, what):
        if not C.has_cell(d, c):
            raise GrayError(f"{name}: {what} produced an unlisted {d}-cell {c!r}")
        return c

    for d in (0, 1, 2):
        for c in C.cells[d]:
            C.id_up[d][c] = place(d + 1, view.ident(d, c), "identity")
    for table_name, attr, op, _, _, dout in TABLES:
        table, apply = getattr(C, attr), getattr(view, op)
        for l, r in composable_keys(C, op):
            table[(l, r)] = place(dout, apply(l, r), table_name)
    return C


def _path_input(H, name):
    return PathView(H), path_cells(H), name


def _dd_input(tower):
    return (PathView(tower.PH), path_cells(tower.PH, tower.dbl_keep),
            f"dbl({tower.H.name})")


LOOKUP_INPUTS = {
    **{name: (lambda name=name: _path_input(fixture(name), f"path({name})"))
       for name in ["T1", "INT", "BIG", "PAIR", "CYC2", "TWIST", "CHAIN3",
                    "CHAIN4"]},
    "path(path(PAIR))": lambda: _path_input(build_pathspace(fixture("PAIR")),
                                            "path(path(PAIR))"),
    "Tower(BIG).DD": lambda: _dd_input(Tower(fixture("BIG"))),
}


@pytest.mark.parametrize("name", LOOKUP_INPUTS)
def test_materialize_by_lookup_matches_formula_fill(name):
    """The same cells, faces, identities and tables in the same order, and
    every identity and table value is the object C.cells holds."""
    view, cells, cname = LOOKUP_INPUTS[name]()
    C = materialize(view, cells, name=cname)
    oracle = _formula_fill(view, cells, name=cname)
    assert C.cells == oracle.cells
    assert C.src_ == oracle.src_ and C.tgt_ == oracle.tgt_
    for d in (0, 1, 2):
        assert list(C.id_up[d].items()) == list(oracle.id_up[d].items())
        assert all(v is C.canonical(d + 1, v) for v in C.id_up[d].values())
    for _, attr, _, _, _, dout in TABLES:
        table = getattr(C, attr)
        assert list(table.items()) == list(getattr(oracle, attr).items())
        assert all(v is C.canonical(dout, v) for v in table.values())


class _UnlistedTensor(PathView):
    """A view whose tensor, the last table filled, leaves the cell set."""

    def tensor(self, b, a):
        return ("p3", "unlisted", b, a)


def test_materialize_by_lookup_raises_as_formula_fill_on_an_unlisted_cell():
    H = fixture("BIG")
    view, cells = _UnlistedTensor(H), path_cells(H)
    with pytest.raises(GrayError) as lookup:
        materialize(view, cells, name="path(BIG)")
    with pytest.raises(GrayError) as formula:
        _formula_fill(view, cells, name="path(BIG)")
    assert str(lookup.value) == str(formula.value)
    assert str(lookup.value).startswith(
        "path(BIG): tensor produced an unlisted 3-cell ('p3', 'unlisted'")


def test_build_pathspace_runs_comp0_formula_once_per_entry(monkeypatch):
    """The whiskers, comp1 and the tensor read comp0 from its table: the
    formula runs once per comp0 entry.  Before, path(TWIST) ran it 18,965
    more times."""
    calls = 0
    formula = PathView.comp0

    def counted(self, h, g):
        nonlocal calls
        calls += 1
        return formula(self, h, g)
    monkeypatch.setattr(PathView, "comp0", counted)
    P = build_pathspace(fixture("TWIST"))
    assert calls == len(P.comp0_11)
