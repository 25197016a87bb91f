"""No law of the tower checker, the Gray-axiom checker, the pseudo-map
and internal-category checkers (on either route) or the hom-space
validators and no hom-space enumerator catches an exception.

Every tuple a law checks is picked by an explicit face predicate, read
from an index, and invertibility is read as a predicate
(GrayCat.inverse), so a construction that raises on such a tuple fails
its law through law_report's ("error", ...) counterexample.  A `try` in
the checker would let it skip that tuple instead.  In the same way the
enumerators of [G,H] and of path cells keep a candidate by a predicate
(a component between its boundary cells, StrictMap.violations, the path
3-cell commuting condition), so a candidate that raises stops the
enumeration instead of being dropped, and undegenerate tells a degenerate
cell by comparing it with a degeneracy.  This guard fails on any `try`
statement inside the functions below, nested functions included.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CHECKERS = ("assemble_internal_graycat", "check_1cartesian")
# (module of graypath, names of its top-level functions)
ENUMERATORS = [
    ("homspace", ("_strict_functors", "_transformations", "_modifications",
                  "_perturbations")),
    ("pathspace", ("path_cells",)),
]
LAWS = [
    ("kernel", ("_gray_law_generators", "check_gray_axioms",
                "gray_axioms_hold")),
    ("homspace", ("validate_transformation", "validate_modification",
                  "validate_perturbation")),
    ("highercells", ("undegenerate",)),
    ("resolution", ("validate_pseudo_map", "_pseudo_map_laws",
                    "_validate_by_position")),
    ("pathcomp", ("verify_m_pseudo", "verify_internal_category",
                  "_internal_reports", "_internal_laws")),
]
# try/except* is ast.TryStar from Python 3.11 on
TRIES = tuple(getattr(ast, n) for n in ("Try", "TryStar") if hasattr(ast, n))


def _tries(tree, names):
    """(function name, line) of each try statement inside the top-level
    functions of tree named in names."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in names:
            found += [(node.name, n.lineno) for n in ast.walk(node)
                      if isinstance(n, TRIES)]
    return found


def _module_tries(module, names):
    """_tries over graypath's module, whose top-level functions must
    include every one of names."""
    path = ROOT / "src" / "graypath" / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert set(names) <= defined
    return _tries(tree, names)


def test_the_tower_checker_catches_no_exception():
    assert _module_tries("highercells", CHECKERS) == []


@pytest.mark.parametrize("module, names", ENUMERATORS,
                         ids=[m for m, _ in ENUMERATORS])
def test_no_enumerator_catches_an_exception(module, names):
    assert _module_tries(module, names) == []


@pytest.mark.parametrize("module, names", LAWS, ids=[m for m, _ in LAWS])
def test_no_law_catches_an_exception(module, names):
    assert _module_tries(module, names) == []


def test_the_guard_finds_a_nested_try():
    tree = ast.parse("def check_1cartesian(tw):\n"
                     "    def laws():\n"
                     "        try:\n"
                     "            yield tw.op()\n"
                     "        except KeyError:\n"
                     "            pass\n"
                     "    return laws()\n"
                     "def other():\n"
                     "    try:\n"
                     "        pass\n"
                     "    finally:\n"
                     "        pass\n")
    assert _tries(tree, CHECKERS) == [("check_1cartesian", 3)]
