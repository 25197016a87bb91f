"""Strict pullbacks through kernel.pullback, against the routes they replace.

The oracles are the earlier constructions: the n-fold pullback from
composable_tuples and a TupleView over path(H), the parallel-cell space P2
from an all-pairs scan and a TupleView over the path formulas of path(H),
and the bigon pullback of mbar from composable_tuples and a TupleView over
the bigon space.  Each must agree in cells, faces, identities, tables and
the order every table was filled in; the P2 and bigon pullbacks also in
their documents.  The 3-path space DDD, lifted from P2, is checked against
enumerating path(DD), filtering by tri_keep and the path formulas over DD.
"""

import pytest

from graypath import pathcomp, presentation
from graypath.fixtures import fixture, fixture_names
from graypath.highercells import Tower
from graypath.kernel import (COMPOSABLE, TABLES, FactorizationFailed,
                             composable_keys)
from graypath.pathcomp import (TupleView, build_pullback, composable_tuples,
                               extend_pullback, m_pseudo,
                               verify_internal_category)
from graypath.pathspace import (PathView, build_pathspace, materialize,
                                path_cells, pd0, pd1)

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
