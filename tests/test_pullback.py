"""Strict pullbacks through kernel.pullback, against the routes they replace.

The oracles are the earlier constructions: the n-fold pullback from
composable_tuples and a TupleView over path(H), the parallel-cell space P2
from an all-pairs scan and a TupleView over the path formulas of path(H),
and the bigon pullback of mbar from composable_tuples and a TupleView over
the bigon space.  Each must agree in cells, faces, identities, tables and
the order every table was filled in; the P2 and bigon pullbacks also in
their documents.  The bigon space DD, built by path_cells filtering each dimension before the
next, is checked against enumerating all of path(path(H)), filtering by
dbl_keep and the path formulas over path(H).  The 3-path space DDD, lifted
from P2, is checked against enumerating path(DD), filtering by tri_keep and
the path formulas over DD.
The triple pullback verify_internal_category checks associativity on is
read on cell positions, never built: its position triples and composable
pairs are checked against pullback_cells' cell stage.
kernel.pullback's join on cell positions is checked against the per-key
fill it replaced, on every strict pullback the library builds and on
broken factors, where both must raise the same error.
"""

import pytest

from graypath import highercells, kernel, pathcomp, presentation
from graypath.fixtures import fixture, fixture_names
from graypath.highercells import Tower
from graypath.kernel import (COMPOSABLE, TABLES, FactorizationFailed,
                             GrayCat, GrayError, composable_keys,
                             product_graycat, sub_graycat)
from graypath.pathcomp import (build_pullback, composable_tuples,
                               extend_pullback, m_pseudo,
                               verify_internal_category)
from graypath.pathspace import (PathView, build_pathspace, face_map,
                                materialize, path_cells, pd0, pd1)
from tuple_view import TupleView

TOWER_INPUTS = ["T1", "INT", "BIG", "PAIR", "CYC2", "CHAIN3"]


def assert_same_graycat(C, D):
    assert C.name == D.name
    assert C.cells == D.cells
    assert (C.src_, C.tgt_, C.id_up) == (D.src_, D.tgt_, D.id_up)
    for _, attr, *_ in TABLES:
        assert list(getattr(C, attr).items()) == \
            list(getattr(D, attr).items()), attr
    assert (C.is_groupoid, C.inv1) == (D.is_groupoid, D.inv1)


def _tuple_oracle(view, cells, name):
    return materialize(view, tuple(cells[d] for d in range(4)), name=name)


@pytest.mark.parametrize("name", ["BIG", "PAIR", "CYC2", "CHAIN3"])
def test_triple_pullback_extends_the_pullback_of_m(name):
    """K3 = K x_H path(H) for m's K is the 3-fold pullback built from
    scratch, and the one the lookup TupleView over path(H) builds."""
    H = fixture(name)
    PH, K, _ = m_pseudo(H)
    K3 = extend_pullback(K, PH, H, f"pb3({H.name})")
    assert_same_graycat(K3, build_pullback(PH, H, 3))
    assert_same_graycat(K3, _tuple_oracle(TupleView(PH, 3),
                                          composable_tuples(PH, H, 3),
                                          f"pb3({H.name})"))


def test_internal_category_builds_no_second_pullback(monkeypatch):
    """verify_internal_category builds the 2-fold pullback once, for m, and
    extends it to the triple pullback."""
    calls = []
    body = pathcomp.build_pullback

    def counted(PH, H, n=2, name=""):
        calls.append(n)
        return body(PH, H, n, name)
    monkeypatch.setattr(pathcomp, "build_pullback", counted)
    verify_internal_category(fixture("BIG"))
    assert calls == [2]


def test_internal_category_builds_no_triple_pullback(monkeypatch):
    """verify_internal_category calls pullback_cells once, for m's 2-fold
    pullback: the triple pullback is read on positions, never built."""
    names = []
    body = kernel.pullback_cells

    def spy(A, fa, B, fb, pair, name=""):
        names.append(name)
        return body(A, fa, B, fb, pair, name)
    monkeypatch.setattr(kernel, "pullback_cells", spy)
    for name in ("BIG", "CYC2"):
        assert all(r.ok for r in verify_internal_category(fixture(name)))
    assert names == ["pb2(BIG)", "pb2(CYC2)"]


@pytest.mark.parametrize("name", fixture_names())
def test_internal_category_triple_pullback_on_positions(monkeypatch, name):
    """The position triples and composable pairs verify_internal_category
    checks associativity on, mapped back to path(H)'s cells, are the
    cells of the triple pullback's cell stage and its composable 1-cell
    pairs in composable_keys' order."""
    seen = {}
    laws, cocycles = pathcomp._internal_laws, pathcomp._assoc_cocycles

    def spied_laws(m, cells, comps, mul, triples, *args):
        seen.setdefault("triples", triples)
        return laws(m, cells, comps, mul, triples, *args)

    def spied_cocycles(pairs, *args):
        seen.setdefault("pairs", pairs)
        return cocycles(pairs, *args)
    monkeypatch.setattr(pathcomp, "_internal_laws", spied_laws)
    monkeypatch.setattr(pathcomp, "_assoc_cocycles", spied_cocycles)
    H = fixture(name)
    assert all(r.ok for r in verify_internal_category(H))
    PH, K, _ = m_pseudo(H)
    K3, _ = kernel.pullback_cells(*pathcomp._extension(K, PH, H), "pb3")

    def cell(d, t):
        return tuple(PH.cells[d][i] for i in t)
    for d in range(4):
        assert [cell(d, t) for t in seen["triples"][d]] == K3.cells[d]
    assert [(cell(1, h), cell(1, g)) for h, g in seen["pairs"]] == \
        list(composable_keys(K3, "comp0"))


@pytest.fixture(scope="module", params=TOWER_INPUTS)
def tower(request):
    return Tower(fixture(request.param))


def test_parallel_cells_match_the_all_pairs_scan(tower):
    DD, PH = tower.DD, tower.PH
    cells = [[(u, v) for u in DD.cells[d] for v in DD.cells[d]
              if pd0(PH, d, u) == pd0(PH, d, v)
              and pd1(PH, d, u) == pd1(PH, d, v)] for d in range(4)]
    oracle = _tuple_oracle(TupleView(PathView(PH), 2), cells,
                           f"P2({tower.H.name})")
    assert_same_graycat(tower.P2, oracle)
    assert presentation.dumps(tower.P2) == presentation.dumps(oracle)


def test_bigon_pullback_matches_the_tuple_view(tower):
    Kb, _ = tower.mbar_map()
    DD, PH = tower.DD, tower.PH
    oracle = _tuple_oracle(TupleView(DD, 2), composable_tuples(DD, PH, 2),
                           f"dblpb({tower.H.name})")
    assert_same_graycat(Kb, oracle)
    assert presentation.dumps(Kb) == presentation.dumps(oracle)


@pytest.mark.parametrize("name", TOWER_INPUTS + ["CHAIN4"])
def test_bigons_built_face_first_match_enumerate_and_filter(name):
    """DD, enumerated with dbl_keep filtering each dimension before the
    next is built, equals all of path(path(H)) filtered by dbl_keep and
    materialized: the same cells in the same order, faces, identities,
    tables in insertion order, inverses and document."""
    tower = Tower(fixture(name))
    kept = tuple([c for c in cs if tower.dbl_keep(d, c)]
                 for d, cs in enumerate(path_cells(tower.PH)))
    oracle = materialize(PathView(tower.PH), kept, name=f"dbl({name})")
    assert_same_graycat(tower.DD, oracle)
    assert presentation.dumps(tower.DD) == presentation.dumps(oracle)


@pytest.mark.parametrize("name, bound", [("BIG", 86), ("CHAIN4", 420)])
def test_bigons_test_dbl_keep_only_on_cells_over_kept_faces(monkeypatch,
                                                            name, bound):
    """Building DD asks dbl_keep about candidates over kept faces only:
    86 on BIG and 420 on CHAIN4, against 507 and 10,575 for all of
    path(path(H))."""
    calls = []
    body = Tower.dbl_keep

    def counted(self, d, c):
        calls.append(d)
        return body(self, d, c)
    monkeypatch.setattr(Tower, "dbl_keep", counted)
    Tower(fixture(name)).DD
    assert 0 < len(calls) <= bound


def _ddd_oracle(tower):
    DD = tower.DD
    kept = tuple([c for c in cs if tower.tri_keep(d, c)]
                 for d, cs in enumerate(path_cells(DD)))
    return materialize(PathView(DD), kept, name=f"tri({tower.H.name})")


def test_three_paths_lifted_from_p2_match_enumerate_and_filter(tower):
    """DDD, lifted from P2, equals the enumerated-and-filtered 3-paths in
    cells, faces, identities, tables and inverses, and filler returns the
    unique oracle cell over each (source, target, dj0, dj1).

    The lift takes its cells in P2's order.  That is the oracle's order
    except on BIG, whose 1-cells 11 and 12 change places (and with them
    the insertion order of the tables they key), so cells are compared as
    sets and tables as dicts.
    """
    DDD, DD = tower.DDD, tower.DD
    oracle = _ddd_oracle(tower)
    assert DDD.name == oracle.name
    for d in range(4):
        assert set(DDD.cells[d]) == set(oracle.cells[d]), d
    assert (DDD.src_, DDD.tgt_, DDD.id_up) == \
        (oracle.src_, oracle.tgt_, oracle.id_up)
    for _, attr, *_ in TABLES:
        assert getattr(DDD, attr) == getattr(oracle, attr), attr
    assert (DDD.is_groupoid, DDD.inv1) == (oracle.is_groupoid, oracle.inv1)
    for d in (1, 2, 3):
        over = {}
        for w in oracle.cells[d]:
            key = (oracle.src(d, w), oracle.tgt(d, w),
                   pd0(DD, d, w), pd1(DD, d, w))
            over.setdefault(key, []).append(w)
        for key, found in over.items():
            assert [tower.filler(d, *key)] == found


@pytest.mark.parametrize("name, keep", [("BIG", False), ("CYC2", False),
                                        ("CYC2", True)])
def test_a_lift_that_is_not_unique_fails_loudly(monkeypatch, name, keep):
    """With tri_keep rejecting every candidate, or accepting every one, a
    P2 cell has no lift or two, and building DDD names that cell and the
    count.  Accepting every candidate is tried on CYC2: on BIG each P2 cell
    has one candidate before tri_keep, but CYC2 has a P2 0-cell with two."""
    tw = Tower(fixture(name))
    monkeypatch.setattr(tw, "tri_keep", lambda d, c: keep)
    # over a P2 0-cell (u, v) the candidates are the bigon 1-cells u -> v
    uv, n = next((uv, n) for uv in tw.P2.cells[0]
                 for n in [len(tw.DD.between(1, *uv)) if keep else 0]
                 if n != 1)
    with pytest.raises(FactorizationFailed) as info:
        tw.DDD
    assert f"the P2 0-cell {uv!r} lifts to {n} 3-paths" in str(info.value)


def test_a_three_path_over_no_parallel_pair_fails_loudly(monkeypatch):
    """With tri_keep accepting every candidate on BIG, each P2 cell still
    has one 3-path over it, but some bigon 1-cell joins two bigons that are
    not parallel in path(H): building DDD names that stray 3-path."""
    tw = Tower(fixture("BIG"))
    monkeypatch.setattr(tw, "tri_keep", lambda d, c: True)
    stray = next(w for w in tw.DD.cells[1]
                 if (tw.DD.src(1, w), tw.DD.tgt(1, w)) not in
                 set(tw.P2.cells[0]))
    with pytest.raises(FactorizationFailed) as info:
        tw.DDD
    assert f"the 3-path 0-cell {stray!r} lies over no P2 cell" in \
        str(info.value)


# the operations whose fill loops ran over the left operand outermost; the
# others ran over the right one
_OUTER_LEFT = {"wl12", "wl13", "wl23", "tensor"}


def _scanned_keys(C, op, dl, dr):
    """op's composable pairs by a scan of all pairs with its predicate, in
    the order materialize's hand-written loops filled its table."""
    ok = COMPOSABLE[op]
    if op in _OUTER_LEFT:
        return [(l, r) for l in C.cells[dl] for r in C.cells[dr] if ok(C, l, r)]
    return [(l, r) for r in C.cells[dr] for l in C.cells[dl] if ok(C, l, r)]


@pytest.mark.parametrize("name", fixture_names() + ["path(PAIR)"])
def test_composable_keys_are_the_table_keys(name):
    """composable_keys lists what a scan of all pairs finds, in the same
    order, and each table of a fixture or a path space has exactly those
    keys."""
    C = build_pathspace(fixture("PAIR")) if name == "path(PAIR)" \
        else fixture(name)
    for _, attr, op, dl, dr, _ in TABLES:
        keys = list(composable_keys(C, op))
        assert keys == _scanned_keys(C, op, dl, dr), op
        assert set(keys) == set(getattr(C, attr)), op


# -- the position join against the per-key fill it replaced -------------------


def _per_key_pullback(A, fa, B, fb, pair, name=""):
    """kernel.pullback as it was before the position join: each table entry
    is read through both factors' guarded operations and lifted by its
    components.  The oracle for the join's cells, tables, order and errors.
    """
    P = GrayCat(name=name)
    cell = {d: {} for d in P.DIMS}
    parts = {d: {} for d in P.DIMS}

    def lift(d, x, y):
        try:
            return cell[d][(x, y)]
        except KeyError:
            raise FactorizationFailed(
                f"{name}: ({x!r}, {y!r}) is not a {d}-cell of the pullback"
            ) from None

    for d in P.DIMS:
        over = {}
        for y in B.cells[d]:
            over.setdefault(fb[d][y], []).append(y)
        for x in A.cells[d]:
            for y in over.get(fa[d][x], ()):
                c = cell[d][(x, y)] = pair(x, y)
                parts[d][c] = (x, y)
                if d == 0:
                    P.add_cell(0, c)
                else:
                    P.add_cell(d, c, lift(d - 1, A.src_[d][x], B.src_[d][y]),
                               lift(d - 1, A.tgt_[d][x], B.tgt_[d][y]))
    for d in (0, 1, 2):
        for c in P.cells[d]:
            x, y = parts[d][c]
            P.id_up[d][c] = lift(d + 1, A.id_up[d][x], B.id_up[d][y])
    for _, attr, op, dl, dr, dout in TABLES:
        table = getattr(P, attr)
        op_a, op_b = getattr(A, op), getattr(B, op)
        for l, r in composable_keys(P, op):
            (lx, ly), (rx, ry) = parts[dl][l], parts[dr][r]
            table[(l, r)] = lift(dout, op_a(lx, rx), op_b(ly, ry))
    P.is_groupoid = A.is_groupoid and B.is_groupoid
    if P.is_groupoid:
        for c in P.cells[1]:
            x, y = parts[1][c]
            if x in A.inv1 and y in B.inv1:
                P.inv1[c] = lift(1, A.inv1[x], B.inv1[y])
    return P


def _snapshot(C):
    """Everything a pullback build fixes, tables with their insertion order."""
    return (C.name, C.cells, C.src_, C.tgt_, C.id_up,
            [list(getattr(C, attr).items()) for _, attr, *_ in TABLES],
            C.is_groupoid, C.inv1)


def _outcome(build):
    try:
        return "built", _snapshot(build())
    except GrayError as exc:
        return "raised", type(exc).__name__, str(exc)


@pytest.fixture
def pullback_calls(monkeypatch):
    """Every kernel.pullback call made while the test runs: its arguments
    and its result, whichever module made it."""
    calls = []
    body = kernel.pullback

    def spy(*args):
        calls.append((args, body(*args)))
        return calls[-1][1]
    for module in (kernel, pathcomp, highercells):
        monkeypatch.setattr(module, "pullback", spy)
    return calls


@pytest.mark.parametrize("name", TOWER_INPUTS)
def test_position_join_matches_the_per_key_fill(pullback_calls, name):
    """pb2, pb3, P2 and mbar_map's pullback, as the library builds them,
    equal the per-key fill on the same arguments: cells, faces,
    identities, inv1 and every table in insertion order."""
    H = fixture(name)
    PH = build_pathspace(H)
    build_pullback(PH, H, 3)
    tower = Tower(H)
    tower.P2
    tower.mbar_map()
    assert {P.name for _, P in pullback_calls} == \
        {f"{pb}({name})" for pb in ("pb2", "pb3", "P2", "dblpb")}
    for args, P in pullback_calls:
        assert _snapshot(P) == _snapshot(_per_key_pullback(*args)), P.name


def test_product_matches_the_per_key_fill(pullback_calls):
    P = product_graycat(fixture("CYC2"), fixture("CYC2"))
    (args, built), = pullback_calls
    assert built is P and P.inv1
    assert _snapshot(P) == _snapshot(_per_key_pullback(*args))


def _copy(C):
    return sub_graycat(C, lambda d, c: True, name=C.name)


def _broken_factors(C, fa):
    """Copies of C, each with one table row changed: for each table, its
    first row dropped, its value moved to another cell of its dimension
    with another image under fa, and its value replaced by a non-cell."""
    for _, attr, _, _, _, dout in TABLES:
        table = getattr(C, attr)
        if not table:
            continue
        key, v = next(iter(table.items()))
        dropped = _copy(C)
        del getattr(dropped, attr)[key]
        yield f"{attr} drops {key!r}", dropped
        for w in C.cells[dout]:
            if fa[dout][w] != fa[dout][v]:
                moved = _copy(C)
                getattr(moved, attr)[key] = w
                yield f"{attr} moves {key!r} to {w!r}", moved
                break
        stray = _copy(C)
        getattr(stray, attr)[key] = ("not", "a", "cell")
        yield f"{attr} sends {key!r} off the cells", stray


@pytest.mark.parametrize("name, n", [("BIG", 2), ("CYC2", 2), ("BIG", 3)])
def test_broken_factor_fails_as_the_per_key_fill_does(name, n):
    """Built from a factor copy with one table row dropped or one table
    value moved off the pullback, the join raises the per-key fill's
    exception type and message, or builds what it builds."""
    H = fixture(name)
    PH = build_pathspace(H)
    d0, d1 = face_map(PH, H, 0).maps, face_map(PH, H, 1).maps
    if n == 2:
        left, fa, right, fb = PH, d0, PH, d1
        pair = lambda x, y: (x, y)
    else:
        K = build_pullback(PH, H, 2)
        left, right, fb = K, PH, d1
        fa = {d: {t: d0[d][t[-1]] for t in K.cells[d]} for d in K.DIMS}
        pair = lambda t, c: t + (c,)
    # (broken copies, the left and right factors built from each copy);
    # when both factors are one object, the copy is also both of them
    cases = [(_broken_factors(left, fa), lambda C: (C, right)),
             (_broken_factors(right, fb), lambda C: (left, C))]
    if left is right:
        cases.append((_broken_factors(left, fa), lambda C: (C, C)))
    seen = set()
    for copies, factors in cases:
        for what, C in copies:
            A, B = factors(C)
            args = (A, fa, B, fb, pair, f"pb{n}({name})")
            got = _outcome(lambda: kernel.pullback(*args))
            assert got == _outcome(lambda: _per_key_pullback(*args)), what
            seen.add(got[1])
    assert {"MissingTableEntry", "FactorizationFailed"} <= seen
    # both factors miss on every entry of one table: the error is the left
    # factor's, as it was
    for _, attr, *_ in TABLES:
        A, B = _copy(left), _copy(right)
        A.name, B.name = "left copy", "right copy"
        getattr(A, attr).clear()
        getattr(B, attr).clear()
        args = (A, fa, B, fb, pair, f"pb{n}({name})")
        got = _outcome(lambda: kernel.pullback(*args))
        assert got == _outcome(lambda: _per_key_pullback(*args)), attr
        assert got[0] == "raised" and "left copy" in got[2], attr


def _refuse_operations(monkeypatch, *factors):
    def refuse(*operands):
        raise AssertionError(f"a factor operation ran on {operands!r}")
    for C in factors:
        for _, _, op, *_ in TABLES:
            monkeypatch.setattr(C, op, refuse)


def test_a_valid_pullback_calls_no_factor_operation(monkeypatch):
    """Every entry of a valid pullback is a hit of the join: with the
    factors' ten operations made to raise, pb3(CYC2) and Tower(BIG).P2
    still build, and equal the builds with working operations."""
    H = fixture("CYC2")
    PH = build_pathspace(H)
    K = build_pullback(PH, H, 2)
    expected = _snapshot(extend_pullback(K, PH, H, "pb3(CYC2)"))
    tower = Tower(fixture("BIG"))
    DD = tower.DD
    expected_p2 = _snapshot(Tower(fixture("BIG")).P2)
    _refuse_operations(monkeypatch, K, PH, DD)
    assert _snapshot(extend_pullback(K, PH, H, "pb3(CYC2)")) == expected
    assert _snapshot(tower.P2) == expected_p2
