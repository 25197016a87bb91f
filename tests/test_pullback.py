"""Strict pullbacks through kernel.pullback, against the routes they replace.

The oracles are the earlier constructions: the n-fold pullback from
composable_tuples and a TupleView over path(H), the parallel-cell space P2
from an all-pairs scan and a TupleView over the path formulas of path(H),
and the bigon pullback of mbar from composable_tuples and a TupleView over
the bigon space.  Each must agree in cells, faces, identities, tables and
the order every table was filled in; the P2 and bigon pullbacks also in
their documents.
"""

import pytest

from graypath import pathcomp, presentation
from graypath.fixtures import fixture, fixture_names
from graypath.highercells import Tower
from graypath.kernel import COMPOSABLE, TABLES, composable_keys
from graypath.pathcomp import (TupleView, build_pullback, composable_tuples,
                               extend_pullback, m_pseudo,
                               verify_internal_category)
from graypath.pathspace import PathView, build_pathspace, materialize, pd0, pd1

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
