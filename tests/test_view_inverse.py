"""The inverse predicate of the formula views: PathView and Q1Layer.

A path 2-cell's #1-inverse inverts its two base 2-cells and its base 3-cell;
a path 3-cell's #2-inverse inverts its two base 3-cells; a Q1 cell's inverse
inverts the base cell it carries.  Each view's inverse(d, c) answers None
exactly when the base has no inverse for one of them, so
validate_pseudo_map reads invertibility into a formula view as a predicate,
and a broken base table fails the law with an ("error", ...) counterexample
instead of reading as "not invertible".
"""

import pytest

from graypath.faults import copy_graycat
from graypath.fixtures import fixture
from graypath.kernel import NotAGroupoid, all_pass, composable_keys
from graypath.pathspace import PathView, build_pathspace, p_on_pseudo
from graypath.resolution import (PseudoMap, Q1Layer, kleisli_identity,
                                 section_k, validate_pseudo_map)

# fixture -> (path 2-cells, those with no inverse)
NOT_INVERTIBLE = {"BIG": (19, 5), "TWIST": (274, 139), "CYC2": (8, 0)}


@pytest.mark.parametrize("name", sorted(NOT_INVERTIBLE))
def test_path_inverse_is_the_formula_where_the_base_inverts(name):
    X = fixture(name)
    V, P = PathView(X), build_pathspace(X)
    missing = 0
    for c in P.cells[2]:
        inv = V.inverse(2, c)
        if inv is None:
            missing += 1
            with pytest.raises(NotAGroupoid):
                V.inv_2(c)
        else:
            assert inv == V.inv_2(c)
        # the table search on the materialized path space agrees
        assert P.inverse(2, c) == inv
    assert (len(P.cells[2]), missing) == NOT_INVERTIBLE[name]
    for c in P.cells[3]:
        assert V.inverse(3, c) == V.inv_3(c) == P.inverse(3, c)


@pytest.mark.parametrize("name", ["BIG", "TWIST", "CYC2"])
def test_q1_inverse_is_the_formula_where_the_base_inverts(name):
    X = fixture(name)
    L = Q1Layer(X)
    for d, cells in ((2, L.cells2(2)), (3, L.cells3(2))):
        formula = L.inv_2 if d == 2 else L.inv_3
        for c in cells:
            inv = L.inverse(d, c)
            assert (inv is None) == (X.inverse(d, c[1]) is None)
            if inv is None:
                with pytest.raises(NotAGroupoid):
                    formula(c)
            else:
                assert inv == formula(c)


@pytest.mark.parametrize("name", ["INT", "BIG", "PAIR", "TWIST"])
def test_the_section_into_q1_is_a_pseudo_map(name):
    """k: G -> Q1 G on a 1-free G, with identity cocycles, passes every law
    of validate_pseudo_map with a Q1Layer codomain."""
    G = fixture(name)
    L = Q1Layer(G)
    assign = {d: {c: section_k(G, c) for c in G.cells[d]} for d in range(4)}
    coc = {(g, f): L.ident(1, L.comp0(assign[1][g], assign[1][f]))
           for g, f in composable_keys(G, "comp0")}
    assert all_pass(validate_pseudo_map(PseudoMap(G, L, assign, coc)))


def test_a_broken_base_is_an_error_not_a_missing_inverse():
    """With the base's whisk_l23 table emptied, inverting a cocycle into
    path(BIG) raises MissingTableEntry: cocycle-invertible reports that
    error at the first cocycle rather than a failing witness."""
    G = fixture("BIG")
    PP = p_on_pseudo(kleisli_identity(G), build_pathspace(G), PathView(G))
    assert all_pass(validate_pseudo_map(PP))
    broken = copy_graycat(G)
    broken.whisk_l23.clear()
    F = PseudoMap(PP.dom, PathView(broken), PP.assignment, PP.cocycle)
    report, = [r for r in validate_pseudo_map(F) if r.law == "cocycle"]
    assert report.status == "fail"
    assert report.tuples_checked == 1
    assert report.counterexample[:2] == ("error", "MissingTableEntry")
