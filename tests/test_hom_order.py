"""[G,H] pinned entry for entry, in order.

The `hom` report digests see only counts and tuple totals, and the table
digest in test_golden_digests sorts every table, so neither would catch a
[G,H] whose cells, faces or table entries come out in another order or
under other names.  This digest reads every part of hom_graycat's result in
the order it holds it: the cells of each dimension, their faces, the
identities, each of the ten operation tables in insertion order, the
inverse tables, the enumeration reports and the registry's keys.  The
values were taken before hom_graycat enumerated each dimension through
[G,H]'s own face index and before its operations were read off the tower
by one pointwise evaluator.
"""

import hashlib

import pytest

from graypath.fixtures import fixture
from graypath.homspace import hom_graycat
from graypath.kernel import TABLES

DIGESTS = {
    ("T1", "INT"):
        "f31f050026a544806555678ee2523ad371cea6d77ca33518d2a6322b41157816",
    ("INT", "BIG"):
        "7cd250d553cb07fe288a085334e6264690dff2b4e451950516a9012a0c755581",
    ("INT", "CYC2"):
        "012caa3ba0a6980198cdb46f74aa1b4de57971b27d215018f80fe304f40d32ad",
    ("PAIR", "BIG"):
        "6f8685d4c9e33026ca58ec82112b4e53f74974fb130ba80c7aa0d85908243117",
    ("BIG", "BIG"):
        "a8692acabbd5244d706fce13cc9e5965f775418d64a7eb373eac9d5da8b02a33",
}


def hom_digest(C, reg, reports):
    """sha256 of everything hom_graycat returns, read in insertion order."""
    parts = [C.name, [C.cells[d] for d in C.DIMS],
             [list(C.src_[d].items()) for d in (1, 2, 3)],
             [list(C.tgt_[d].items()) for d in (1, 2, 3)],
             [list(C.id_up[d].items()) for d in (0, 1, 2)],
             [list(getattr(C, row[1]).items()) for row in TABLES],
             [C.inv1, C.inv2, C.inv3, C.is_groupoid, C.generators],
             [r.as_dict() for r in reports], list(reg)]
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("pair", sorted(DIGESTS), ids=",".join)
def test_hom_graycat_digest_in_insertion_order(pair):
    G, H = (fixture(name) for name in pair)
    assert hom_digest(*hom_graycat(G, H)) == DIGESTS[pair]


def test_the_digest_sees_the_order_of_a_table():
    """Reordering one table's entries, which keeps every key and value,
    changes the digest."""
    C, reg, reports = hom_graycat(fixture("INT"), fixture("BIG"))
    before = hom_digest(C, reg, reports)
    C.comp1_22 = dict(reversed(list(C.comp1_22.items())))
    assert len(C.comp1_22) > 1
    assert hom_digest(C, reg, reports) != before
