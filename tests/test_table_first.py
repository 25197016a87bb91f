"""Table-first operations agree with the guard-first reference.

Each guarded operation of GrayCat reads its table first and runs its
composability guard only when the key is missing.  guard_first below is
the operation as it was written before: the guard, then the table.  The two
routes must give the same cell, or the same exception type and message, on
every pair of declared cells of the operand dimensions, also on pairs that
do not compose or have no entry.  They can differ only where a table has a
key that is not composable, so the last test checks that no table has one.
"""

import functools

import pytest

from graypath.faults import copy_graycat, corrupt_graycat
from graypath.fixtures import fixture
from graypath.highercells import Tower
from graypath.homspace import hom_graycat
from graypath.kernel import (TABLES, GrayError, MissingTableEntry,
                             NotComposable)
from graypath.pathcomp import build_pullback
from graypath.pathspace import build_pathspace

FIXTURES = ["T1", "INT", "BIG", "PAIR", "CYC2", "TWIST", "CHAIN3", "CHAIN4"]

# op -> (the guard that rejects (l, r), the NotComposable message)
_GUARDS = {
    "comp0": (lambda C, g, f: C.src_[1][g] != C.tgt_[1][f],
              "comp0 {!r} after {!r}"),
    "wl12": (lambda C, k, a: C.src_[1][k] != C.tgt0(2, a), "wl12 {!r} {!r}"),
    "wr12": (lambda C, a, k: C.src0(2, a) != C.tgt_[1][k], "wr12 {!r} {!r}"),
    "wl13": (lambda C, k, g: C.src_[1][k] != C.tgt0(3, g), "wl13 {!r} {!r}"),
    "wr13": (lambda C, g, k: C.src0(3, g) != C.tgt_[1][k], "wr13 {!r} {!r}"),
    "comp1": (lambda C, b, a: C.src_[2][b] != C.tgt_[2][a],
              "comp1 {!r} after {!r}"),
    "wl23": (lambda C, c, g: C.src_[2][c] != C.tgt_[2][C.src_[3][g]],
             "wl23 {!r} {!r}"),
    "wr23": (lambda C, g, c: C.tgt_[2][c] != C.src_[2][C.src_[3][g]],
             "wr23 {!r} {!r}"),
    "comp2": (lambda C, d, g: C.src_[3][d] != C.tgt_[3][g],
              "comp2 {!r} after {!r}"),
    "tensor": (lambda C, b, a: C.src0(2, b) != C.tgt0(2, a),
               "tensor {!r} {!r}"),
}

_SCHEMA = {op: (name, attr) for name, attr, op, *_ in TABLES}


def guard_first(C, op, l, r):
    """op(l, r) the way the operations were written before they read the
    table first: the composability guard, then the table."""
    rejects, message = _GUARDS[op]
    if rejects(C, l, r):
        raise NotComposable(message.format(l, r))
    name, attr = _SCHEMA[op]
    try:
        return getattr(C, attr)[(l, r)]
    except KeyError:
        raise MissingTableEntry(
            f"{C.name}: no {name} entry for {(l, r)!r}") from None


def _outcome(call, *args):
    try:
        return ("value", call(*args))
    except (GrayError, KeyError) as exc:
        return (type(exc).__name__, str(exc))


def _pullback(name, n):
    H = fixture(name)
    return build_pullback(build_pathspace(H), H, n)


@functools.cache
def _tower_big():
    return Tower(fixture("BIG"))


SPACES = {
    **{name: functools.partial(fixture, name) for name in FIXTURES},
    "path(BIG)": lambda: build_pathspace(fixture("BIG")),
    "path(PAIR)": lambda: build_pathspace(fixture("PAIR")),
    "pb2(PAIR)": lambda: _pullback("PAIR", 2),
    "pb3(CYC2)": lambda: _pullback("CYC2", 3),
    "Tower(BIG).DD": lambda: _tower_big().DD,
    "Tower(BIG).DDD": lambda: _tower_big().DDD,
    "[INT,BIG]": lambda: hom_graycat(fixture("INT"), fixture("BIG"))[0],
    "[PAIR,BIG]": lambda: hom_graycat(fixture("PAIR"), fixture("BIG"))[0],
}


@functools.cache
def _space(name):
    return SPACES[name]()


ORACLE_INPUTS = FIXTURES + ["path(BIG)", "path(PAIR)", "pb2(PAIR)",
                            "Tower(BIG).DD", "[INT,BIG]"]
CORRUPTED = [(name, seed) for name in ("BIG", "path(PAIR)")
             for seed in range(20)]


def _disagreements(C):
    out = []
    for _, _, op, dl, dr, _ in TABLES:
        apply = getattr(C, op)
        for l in C.cells[dl]:
            for r in C.cells[dr]:
                table_first = _outcome(apply, l, r)
                reference = _outcome(guard_first, C, op, l, r)
                if table_first != reference:
                    out.append((op, l, r, table_first, reference))
    return out


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_table_first_matches_guard_first(name):
    C = _space(name)
    assert _disagreements(C) == []


@pytest.mark.parametrize("name, seed", CORRUPTED)
def test_table_first_matches_guard_first_on_corruptions(name, seed):
    C, _ = corrupt_graycat(_space(name), seed)
    assert _disagreements(C) == []


@pytest.mark.parametrize("attr", [attr for _, attr, *_ in TABLES])
def test_table_first_matches_guard_first_on_a_missing_entry(attr):
    """A composable pair whose row is gone: MissingTableEntry both ways."""
    C = copy_graycat(fixture("BIG"))
    table = getattr(C, attr)
    del table[sorted(table, key=repr)[0]]
    assert _disagreements(C) == []


@pytest.mark.parametrize("name", ORACLE_INPUTS + [
    "pb3(CYC2)", "Tower(BIG).DDD", "[PAIR,BIG]"])
def test_every_table_key_is_composable(name):
    C = _space(name)
    bad = [(op, l, r) for _, attr, op, *_ in TABLES
           for l, r in getattr(C, attr) if _GUARDS[op][0](C, l, r)]
    assert bad == []
