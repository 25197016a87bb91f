"""Wire format round trips, the DSL, and loader validation."""

import json

import pytest

from graypath import presentation as pres
from graypath.fixtures import fixture
from graypath.kernel import ValidationError, all_pass, check_gray_axioms
from graypath.pathcomp import build_pullback
from graypath.pathspace import build_pathspace

ALL = ["T1", "INT", "BIG", "PAIR", "CYC2", "TWIST", "CHAIN3", "CHAIN4"]


@pytest.mark.parametrize("name", ALL)
def test_save_load_bit_exact(name):
    C = fixture(name)
    text = pres.dumps(C)
    C2 = pres.loads(text)
    assert pres.dumps(C2) == text
    # load o save is the identity on the in-memory structure (the document
    # canonicalizes cell order; everything else must agree on the nose)
    assert {d: set(cs) for d, cs in C2.cells.items()} == \
        {d: set(cs) for d, cs in C.cells.items()}
    assert C2.src_ == C.src_ and C2.tgt_ == C.tgt_
    assert C2.comp0_11 == C.comp0_11
    assert C2.tensor_ == C.tensor_
    assert C2.id_up == C.id_up
    assert C2.is_groupoid == C.is_groupoid


def test_canonical_t1_document():
    C = pres.loads(pres.dumps(fixture("T1")))
    assert len(C.cells[0]) == 1
    assert all(len(C.cells[d]) == 1 for d in (1, 2, 3))


def test_pair_document_composite():
    C = pres.loads(pres.dumps(fixture("PAIR")))
    assert C.comp0("g", "f") == "h"
    assert all_pass(check_gray_axioms(C))


def test_globularity_violation_reported(tmp_path):
    doc = pres.to_document(fixture("BIG"))
    for e in doc["two_cells"]:
        if e["id"] == "alpha":
            e["tgt"] = "idx"
    with pytest.raises(ValidationError) as err:
        pres.from_document(doc)
    assert any("globularity" in str(v) for v in err.value.violations)


def test_dangling_id_reported():
    doc = pres.to_document(fixture("BIG"))
    doc["tables"]["comp0"].append(["ghost", "f", "f"])
    with pytest.raises(ValidationError) as err:
        pres.from_document(doc)
    assert any("ghost" in str(v) for v in err.value.violations)


def test_undeclared_face_of_a_3cell_reported():
    doc = pres.to_document(fixture("BIG"))
    for e in doc["three_cells"]:
        if e["id"] == "id[alpha]":
            e["src"] = "ghost"
    with pytest.raises(ValidationError) as err:
        pres.from_document(doc)
    assert "3-cell 'id[alpha]': src 'ghost' not a declared 2-cell" in \
        err.value.violations


def test_missing_identity_reported():
    doc = pres.to_document(fixture("T1"))
    doc["identities"]["0"] = []
    with pytest.raises(ValidationError) as err:
        pres.from_document(doc)
    assert any("identity" in str(v) for v in err.value.violations)


def test_parse_error_position():
    with pytest.raises(pres.ParseError) as err:
        pres.loads("{ not json")
    assert "char" in str(err.value)


PAIR_DSL = """
# the composable pair, one declaration per line
name PAIR-DSL
object x
object y
object z
1cell idx : x -> x
1cell idy : y -> y
1cell idz : z -> z
1cell f : x -> y
1cell g : y -> z
1cell h : x -> z
id x = idx
id y = idy
id z = idz
comp0 g f = h
"""


def _complete_dsl(text, reference):
    """Append the unit-law entries and higher cells the fixture carries."""
    lines = [text]
    C = reference
    for f in C.cells[1]:
        lines.append(f"2cell id2.{f} : {f} => {f}")
        lines.append(f"id {f} = id2.{f}")
    for f in C.cells[1]:
        lines.append(f"3cell id3.{f} : id2.{f} -> id2.{f}")
        lines.append(f"id id2.{f} = id3.{f}")
    rename = {a: "id2." + C.src(2, a) for a in C.cells[2]}
    rename3 = {g: "id3." + C.src(2, C.src(3, g)) for g in C.cells[3]}

    def nm(d, c):
        return {1: lambda v: v, 2: rename.get, 3: rename3.get}[d](c)

    for key, attr, dl, dr, dout in [
            ("comp0", "comp0_11", 1, 1, 1), ("whisk_l12", "whisk_l12", 1, 2, 2),
            ("whisk_r12", "whisk_r12", 2, 1, 2), ("whisk_l13", "whisk_l13", 1, 3, 3),
            ("whisk_r13", "whisk_r13", 3, 1, 3), ("comp1", "comp1_22", 2, 2, 2),
            ("whisk_l23", "whisk_l23", 2, 3, 3), ("whisk_r23", "whisk_r23", 3, 2, 3),
            ("comp2", "comp2_33", 3, 3, 3), ("tensor", "tensor_", 2, 2, 3)]:
        for (l, r), v in getattr(C, attr).items():
            if key == "comp0" and (l, r) == ("g", "f"):
                continue
            lines.append(f"{key} {nm(dl, l)} {nm(dr, r)} = {nm(dout, v)}")
    return "\n".join(lines)


def test_dsl_compiles_to_same_category():
    ref = fixture("PAIR")
    text = _complete_dsl(PAIR_DSL, ref)
    doc = pres.parse_dsl(text)
    C = pres.from_document(doc)
    assert all_pass(check_gray_axioms(C))
    assert C.comp0("g", "f") == "h"
    # same shape as the shipped fixture
    for d in range(4):
        assert len(C.cells[d]) == len(ref.cells[d])


def test_dsl_error_carries_line():
    with pytest.raises(pres.ParseError) as err:
        pres.parse_dsl("object x\nbogus y\n")
    assert "line 2" in str(err.value)


def test_dsl_bad_arrow():
    with pytest.raises(pres.ParseError):
        pres.parse_dsl("object x\n1cell f ; x -> x\n")


def test_load_gc_file(tmp_path):
    ref = fixture("PAIR")
    path = tmp_path / "pair.gc"
    path.write_text(_complete_dsl(PAIR_DSL, ref), encoding="utf-8")
    C = pres.load(str(path))
    assert C.comp0("g", "f") == "h"


def test_pathspace_serializes_with_nested_payloads(tmp_path):
    from graypath.pathspace import build_pathspace
    P = build_pathspace(fixture("BIG"))
    path = tmp_path / "pathbig.graycat.json"
    pres.save(P, str(path))
    P2 = pres.load(str(path))
    assert {d: set(cs) for d, cs in P2.cells.items()} == \
        {d: set(cs) for d, cs in P.cells.items()}
    assert P2.comp0_11 == P.comp0_11
    # nested tuples survive the json round trip
    bigon = ("sq", "alpha", "idx", "idy", "f", "g")
    assert P2.has_cell(1, bigon)


def test_undeclared_source_of_a_2cell_reported():
    """The tensor closure check skips the 2-cell whose source dangles, so
    the loader reports where the document is wrong instead of a KeyError."""
    doc = pres.to_document(fixture("BIG"))
    for e in doc["two_cells"]:
        if e["id"] == "alpha":
            e["src"] = "ghost"
    with pytest.raises(ValidationError) as err:
        pres.from_document(doc)
    assert "2-cell 'alpha': src 'ghost' not a declared 1-cell" in \
        err.value.violations


def _odd_names_category():
    """Two objects with their identity towers, named with non-ASCII text,
    '"' and '\\', built through the DSL."""
    lines = ["name odd"]
    for x in ('é"x\\', 'Ω\\"y'):
        f, a, g = f"1{x}", f"2{x}", f"3{x}"
        lines += [f"object {x}", f"1cell {f} : {x} -> {x}",
                  f"2cell {a} : {f} => {f}", f"3cell {g} : {a} -> {a}",
                  f"id {x} = {f}", f"id {f} = {a}", f"id {a} = {g}",
                  f"comp0 {f} {f} = {f}", f"comp1 {a} {a} = {a}",
                  f"comp2 {g} {g} = {g}", f"tensor {a} {a} = {g}",
                  f"whisk_l12 {f} {a} = {a}", f"whisk_r12 {a} {f} = {a}",
                  f"whisk_l13 {f} {g} = {g}", f"whisk_r13 {g} {f} = {g}",
                  f"whisk_l23 {a} {g} = {g}", f"whisk_r23 {g} {a} = {g}"]
    return pres.from_document(pres.parse_dsl("\n".join(lines)))


def _oracle_inputs():
    for name in ALL:
        H = fixture(name)
        PH = build_pathspace(H)
        yield H
        yield PH
        if name == "PAIR":
            yield build_pullback(PH, H, 2)
    yield _odd_names_category()


def test_dumps_is_json_dumps_of_the_document():
    """The cached writer writes what the json module writes."""
    for C in _oracle_inputs():
        assert pres.dumps(C) == \
            json.dumps(pres.to_document(C), indent=1, sort_keys=True) + "\n", \
            C.name


def test_odd_names_round_trip():
    C = _odd_names_category()
    text = pres.dumps(C)
    assert "\\u00e9\\\"x\\\\" in text
    assert pres.dumps(pres.loads(text)) == text
    assert all_pass(check_gray_axioms(pres.loads(text)))


@pytest.mark.parametrize("name", ["BIG", "path(PAIR)"])
def test_loaded_cells_are_shared(name):
    """Every face, identity and table entry of a loaded document is the
    declared cell itself, not an equal copy."""
    C = fixture("BIG") if name == "BIG" else build_pathspace(fixture("PAIR"))
    C = pres.loads(pres.dumps(C))
    declared = {d: {c: c for c in C.cells[d]} for d in C.DIMS}

    def same(d, c):
        return declared[d][c] is c

    for d in (1, 2, 3):
        for c in C.cells[d]:
            assert same(d - 1, C.src(d, c)) and same(d - 1, C.tgt(d, c))
    for d in (0, 1, 2):
        for c, i in C.id_up[d].items():
            assert same(d, c) and same(d + 1, i)
    for attr, dl, dr, dout in [
            ("comp0_11", 1, 1, 1), ("whisk_l12", 1, 2, 2), ("whisk_r12", 2, 1, 2),
            ("whisk_l13", 1, 3, 3), ("whisk_r13", 3, 1, 3), ("comp1_22", 2, 2, 2),
            ("whisk_l23", 2, 3, 3), ("whisk_r23", 3, 2, 3), ("comp2_33", 3, 3, 3),
            ("tensor_", 2, 2, 3)]:
        for (l, r), v in getattr(C, attr).items():
            assert same(dl, l) and same(dr, r) and same(dout, v), attr


def test_ids_that_compare_equal_but_print_differently():
    """1, true and 1.0 are equal Python values; the loader keeps them apart
    and the writer prints each as it was."""
    text = pres.dumps(fixture("T1"))
    for old, new in (('"*"', "[1]"), ('"id*"', "[true]"),
                     ('"id[id*]"', "[1.0]"), ('"id[id[id*]]"', '[[1], "1"]')):
        text = text.replace(old, new)
    C = pres.loads(text)
    assert C.cells[1][0][0] is True and type(C.cells[2][0][0]) is float
    out = pres.dumps(C)
    assert out == json.dumps(pres.to_document(C), indent=1, sort_keys=True) + "\n"
    assert "true" in out and "1.0" in out
    assert pres.dumps(pres.loads(out)) == out
