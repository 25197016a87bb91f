"""The JSON loader and writer: the path-space documents they handle most,
the route loads stands in for, the memory they hold, the collector state a
load leaves behind, and the key it dedups cells by."""

import functools
import gc
import hashlib
import json
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings

from graypath import presentation as pres
from graypath.fixtures import fixture
from graypath.kernel import ValidationError, check_gray_axioms
from graypath.pathspace import build_pathspace

from mutations import mutated_json, with_cell_text

ALL = ["T1", "INT", "BIG", "PAIR", "CYC2", "TWIST", "CHAIN3", "CHAIN4"]

# fixture -> sha256 of presentation.dumps(path(fixture)), taken before the
# loader keyed arrays by their marshal bytes
PATH_DOCUMENTS = {
    "TWIST": "5b3549c3c148bf8241a3087e2c7c43ca4f9a16bc1cb96169e977c58c37993f44",
    "CHAIN4": "829370e090994e9c613464451ac34167b41633a23b3c1b3a663cff468fda00a6",
    "CHAIN3": "2835c61c225f076509eab5e221f3673cbbe3b908bfe5e229b900edc5945389ff",
}


@functools.lru_cache(maxsize=None)
def _path_space(name):
    PH = build_pathspace(fixture(name))
    return PH, pres.dumps(PH)


@pytest.mark.parametrize("name", sorted(PATH_DOCUMENTS))
def test_path_space_document_digest_and_round_trip(name):
    PH, text = _path_space(name)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PATH_DOCUMENTS[name]
    loaded = pres.loads(text)
    assert pres.dumps(loaded) == text
    assert [r.as_dict() for r in check_gray_axioms(loaded)] == \
        [r.as_dict() for r in check_gray_axioms(PH)]


def _bad_json():
    with pytest.raises(pres.ParseError):
        pres.loads('{"format": ')


def _invalid():
    doc = pres.to_document(fixture("BIG"))
    doc["tables"]["comp0"].pop()
    with pytest.raises(ValidationError):
        pres.loads(json.dumps(doc))


def _valid():
    text = pres.dumps(fixture("CYC2"))
    assert pres.dumps(pres.loads(text)) == text


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("load", [_valid, _bad_json, _invalid])
def test_loads_restores_the_collector_state(enabled, load):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        load()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_equal_strings_decode_to_one_cell_interned_or_not():
    """A cell whose strings are interned in one occurrence and built at run
    time in another is one cell: the dedup key reads values, not how the
    interpreter stores them."""
    def fresh(s):
        t = "".join(list(s))
        assert t == s and t is not sys.intern(t)
        return t

    doc = pres.to_document(fixture("T1"))
    star = ["ab", ["cd"]]
    assert star[0] is sys.intern("ab")
    doc["objects"][0]["id"] = star
    doc["morphisms"][0]["src"] = [fresh("ab"), [fresh("cd")]]
    doc["morphisms"][0]["tgt"] = [fresh("ab"), [fresh("cd")]]
    doc["identities"]["0"][0][0] = [fresh("ab"), [fresh("cd")]]
    C = pres.from_document(doc)
    (cell,) = C.cells[0]
    (idc,) = C.cells[1]
    assert C.src(1, idc) is cell and C.tgt(1, idc) is cell
    assert next(iter(C.id_up[0])) is cell


def test_an_array_in_a_cell_is_the_cell_it_spells():
    """An array nested in a cell decodes to the declared cell it spells,
    also when it holds a number, which json builds anew each time."""
    text = pres.dumps(fixture("T1")).replace('"*"', "[1.5]").replace(
        '"id*"', '["x", [1.5]]')
    C = pres.loads(text)
    assert C.cells[1][0] == ("x", (1.5,))
    assert C.cells[1][0][1] is C.cells[0][0]


def test_a_load_leaves_no_reference_cycle():
    """The decoder recurses through a method, not through a closure that
    names itself: with the loaded path(PAIR) dropped, a collection finds
    nothing left over."""
    _, text = _path_space("PAIR")
    gc.collect()
    C = pres.loads(text)
    del C
    assert gc.collect() == 0


# -- the route loads stands in for --------------------------------------------


def _old_loads(text):
    """json.loads, then from_document, with loads' error mapping: what loads
    did before it read documents row by row."""
    try:
        return pres.from_document(json.loads(text))
    except json.JSONDecodeError as exc:
        raise pres.ParseError(f"bad JSON at char {exc.pos}: {exc.msg}") from None
    except RecursionError:
        raise pres.ParseError("document nested too deeply") from None


def _outcome(load, text):
    """The dumps text of what load(text) returns, or the class and message
    of what it raises.  Both loads run at the same stack depth, so they have
    the same recursion to spend."""
    try:
        return pres.dumps(load(text))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_same_outcomes(texts):
    for text in texts:
        assert _outcome(pres.loads, text) == _outcome(_old_loads, text), text


@pytest.mark.parametrize("name", ["T1", "INT", "BIG"])
def test_every_truncation_loads_as_before(name):
    text = pres.dumps(fixture(name))
    _assert_same_outcomes(text[:i] for i in range(len(text) + 1))


def test_every_dropped_or_doubled_bracket_loads_as_before():
    text = pres.dumps(fixture("BIG"))
    at = [i for i, ch in enumerate(text) if ch in "[]{}"]
    _assert_same_outcomes(text[:i] + text[i + 1:] for i in at)
    _assert_same_outcomes(text[:i] + text[i] + text[i:] for i in at)


@given(mutated_json())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_mutated_json_texts_load_as_before(text):
    _assert_same_outcomes([text])


def _last_format(doc):
    """doc's text with the format member written last."""
    doc = {k: v for k, v in doc.items() if k != "format"} | \
        {"format": doc["format"]}
    return json.dumps(doc)


@pytest.mark.parametrize("name", ["T1", "BIG", "CYC2", "path(INT)"])
def test_other_layouts_load_as_before(name):
    """Compact separators, the format member last, and duplicate members:
    the last of two wins, at the top level and within tables.  Then other
    indents and line ends, and whitespace where the reader does not guess
    it: the first array element four deep (in a path space, a short one)
    and the first that ends in an array (a long one) closed one space in,
    the first row three deep closed one space out, and the first item after
    a comma four deep indented one space more than the item before it."""
    text = _path_space(name[5:-1])[1] if name.startswith("path(") else \
        pres.dumps(fixture(name))
    doc = json.loads(text)
    _assert_same_outcomes([
        json.dumps(doc, separators=(",", ":")),
        _last_format(doc),
        '{"tables": {}, ' + text[1:],
        text.rstrip()[:-1] + ', "tables": {}}',
        text.replace('"tables": {', '"tables": {"comp0": [], ', 1),
        text.replace('"tables": {', '"tables": {"comp0": [["x", "y", "z"]],'
                     ' "comp0": [], ', 1),
        text.replace('"objects": [', '"objects": [], "objects": [', 1),
        text.replace('"tables": {', '"tables": [], "tables": {', 1),
        json.dumps(doc, indent=2),
        json.dumps(doc, indent="\t"),
        text.replace("\n", "\r\n"),
        text.replace("\n    ]", "\n     ]", 1),
        text.replace("\n     ]\n    ]", "\n     ]\n     ]", 1),
        text.replace("\n   ]", "\n  ]", 1),
        text.replace(",\n    ", ",\n     ", 1),
    ])


def test_odd_texts_load_as_before():
    """A byte order mark, trailing data, a top level that is not an object,
    NaN for a cell and arrays or objects where rows belong."""
    text = pres.dumps(fixture("T1"))
    doc = json.loads(text)
    _assert_same_outcomes([
        "\ufeff" + text, text + "x", text + " {}", text + "]", "", "  ",
        "[1, 2]", "5", '"graycat/1"', "NaN", "null", "{", "{}", " {} ",
        with_cell_text(doc, (doc["objects"][0], "id"), "NaN"),
        text.replace('"objects": [', '"objects": {"a": 1}, "x": [', 1),
        text.replace('"tables": {', '"tables": {"comp0": {}, "x": ', 1),
        text.replace('"identities": {', '"identities": [], "x": {', 1),
        text.replace('"two_cells": [', '"two_cells": [1, "a", null, [], ', 1),
    ])


@pytest.mark.parametrize("fmt", ["graycat/1", "graycat/0"])
def test_a_cell_wrapped_in_up_to_1100_arrays_loads_as_before(fmt):
    """At every nesting depth, under a good and a bad format, loads ends as
    json.loads and from_document do: a cell, a ParseError on the format, or
    a document nested too deeply.  The cell is a table entry's, the deepest
    place a document has for one."""
    doc = json.loads(pres.dumps(fixture("T1")))
    doc["format"] = fmt
    cell = json.dumps(doc["tables"]["comp0"][0][2])

    def wrapped(n):
        copy = json.loads(json.dumps(doc))
        return with_cell_text(copy, (copy["tables"]["comp0"][0], 2),
                              "[" * n + cell + "]" * n)

    _assert_same_outcomes(map(wrapped, range(1, 1101)))


def test_the_reader_reads_a_value_at_any_index_as_json_does():
    """_Reader.raw_decode, which json.loads calls at the first non-blank
    character, reads the value at any index and returns where it ends."""
    text = pres.dumps(fixture("T1"))
    s = "xx" + text + "yy"
    doc, end = pres._Reader(pres._Decoder().dec).raw_decode(s, 2)
    assert end == json.JSONDecoder().raw_decode(s, 2)[1] == len(s) - 3
    assert pres.dumps(pres.from_document(doc)) == text


def _element_texts(text):
    """The text of each element of each cell row of a saved document, as
    json.dumps(..., indent=1) writes it at its depth: the values of dict
    rows three deep, the items of list rows in sections four deep."""
    doc = json.loads(text)

    def at(x, depth):
        return json.dumps(x, indent=1).replace("\n", "\n" + " " * depth)

    return [at(v, 3) for f in ("objects", "morphisms", "two_cells",
                               "three_cells") for row in doc[f]
            for v in row.values()] + \
        [at(x, 4) for section in ("identities", "tables", "inverses")
         for rows in doc.get(section, {}).values() for row in rows
         for x in row]


def test_each_distinct_array_text_is_scanned_once(monkeypatch):
    """Loading path(CHAIN3)'s document, the scanner reads each distinct
    array element text once, each scalar element each time it occurs, and
    the values of flags, format and name.  The cache lasts one load: a
    second load scans the same texts again."""
    _, text = _path_space("CHAIN3")
    scans = []

    class Counting(pres._Reader):
        def __init__(self, dec):
            super().__init__(dec)
            scan = self.scan_once

            def counted(s, i):
                value, end = scan(s, i)
                scans.append(s[i:end])
                return value, end

            self.scan_once = counted

    monkeypatch.setattr(pres, "_Reader", Counting)
    doc = json.loads(text)
    elements = _element_texts(text)
    arrays = {t for t in elements if t.startswith("[")}
    expected = Counter(arrays) + Counter(
        t for t in elements if not t.startswith("[")) + Counter([
            json.dumps(doc["flags"], indent=1).replace("\n", "\n "),
            json.dumps(doc["format"]), json.dumps(doc["name"])])
    assert len(arrays) * 5 < len(elements)
    for _ in range(2):
        scans.clear()
        pres.loads(text)
        assert Counter(scans) == expected


# -- memory and the bytes save writes -----------------------------------------


def _traced_peak(f):
    """The peak of memory traced while f runs, after one run that fills
    whatever it caches for good."""
    f()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loads_and_save_hold_less_than_a_quarter_of_the_text(tmp_path):
    """Neither loads nor save of path(CHAIN4) holds its whole text or its
    decoded JSON tree: each peaks below a quarter of the text's length."""
    PH, text = _path_space("CHAIN4")
    path = tmp_path / "path.graycat.json"
    assert _traced_peak(lambda: pres.loads(text)) < len(text) / 4
    assert _traced_peak(lambda: pres.save(PH, path)) < len(text) / 4


@pytest.mark.parametrize("path_space", [False, True])
@pytest.mark.parametrize("name", ALL)
def test_save_writes_dumps(tmp_path, name, path_space):
    C, text = _path_space(name) if path_space else \
        (fixture(name), pres.dumps(fixture(name)))
    path = tmp_path / "C.graycat.json"
    pres.save(C, path)
    assert path.read_bytes() == text.encode("utf-8")
