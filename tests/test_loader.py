"""The JSON loader and writer: the path-space documents they handle most,
the route loads stands in for, the window load reads a file through, the
memory they hold, the collector state a load leaves behind, and the key it
dedups cells by."""

import functools
import gc
import hashlib
import io
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


def _truncations(name):
    text = pres.dumps(fixture(name))
    return [text[:i] for i in range(len(text) + 1)]


def _bracket_edits():
    """BIG's text with each bracket dropped, then with each doubled."""
    text = pres.dumps(fixture("BIG"))
    at = [i for i, ch in enumerate(text) if ch in "[]{}"]
    return [text[:i] + text[i + 1:] for i in at] + \
        [text[:i] + text[i] + text[i:] for i in at]


@pytest.mark.parametrize("name", ["T1", "INT", "BIG"])
def test_every_truncation_loads_as_before(name):
    _assert_same_outcomes(_truncations(name))


def test_every_dropped_or_doubled_bracket_loads_as_before():
    _assert_same_outcomes(_bracket_edits())


@given(mutated_json())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_mutated_json_texts_load_as_before(text):
    _assert_same_outcomes([text])


def _last_format(doc):
    """doc's text with the format member written last."""
    doc = {k: v for k, v in doc.items() if k != "format"} | \
        {"format": doc["format"]}
    return json.dumps(doc)


def _layouts(name):
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
    return [
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
    ]


LAYOUTS = ["T1", "BIG", "CYC2", "path(INT)"]


@pytest.mark.parametrize("name", LAYOUTS)
def test_other_layouts_load_as_before(name):
    _assert_same_outcomes(_layouts(name))


def _odd_texts():
    """A byte order mark, trailing data, a top level that is not an object,
    NaN for a cell and arrays or objects where rows belong."""
    text = pres.dumps(fixture("T1"))
    doc = json.loads(text)
    return [
        "\ufeff" + text, text + "x", text + " {}", text + "]", "", "  ",
        "[1, 2]", "5", '"graycat/1"', "NaN", "null", "{", "{}", " {} ",
        with_cell_text(doc, (doc["objects"][0], "id"), "NaN"),
        text.replace('"objects": [', '"objects": {"a": 1}, "x": [', 1),
        text.replace('"tables": {', '"tables": {"comp0": {}, "x": ', 1),
        text.replace('"identities": {', '"identities": [], "x": {', 1),
        text.replace('"two_cells": [', '"two_cells": [1, "a", null, [], ', 1),
    ]


def test_odd_texts_load_as_before():
    _assert_same_outcomes(_odd_texts())


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


# -- the window load reads a file through ------------------------------------

WINDOWS = [1, 2, 7, 64, pres.CHUNK]

CORPORA = {
    "truncations": lambda: [text for name in ("T1", "INT", "BIG")
                            for text in _truncations(name)],
    "brackets": _bracket_edits,
    "layouts": lambda: [text for name in LAYOUTS for text in _layouts(name)],
    "odd texts": _odd_texts,
}


def _streamed(text):
    """What load makes of a file that holds text, read from memory."""
    return pres._load(io.StringIO(text))


@functools.lru_cache(maxsize=None)
def _old_outcomes(corpus):
    return [(text, _outcome(_old_loads, text)) for text in CORPORA[corpus]()]


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_every_window_reads_the_corpora_as_before(monkeypatch, corpus, window):
    """With CHUNK characters read at a time, every text of the parity
    corpora ends as json.loads and from_document end on the whole text: an
    item cut by the window's end is read again, and an error counts only
    once the text has ended."""
    monkeypatch.setattr(pres, "CHUNK", window)
    for text, outcome in _old_outcomes(corpus):
        assert _outcome(_streamed, text) == outcome, (window, text)


@pytest.mark.parametrize("window", WINDOWS)
@given(mutated_json())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_mutated_json_texts_stream_as_before(window, text):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pres, "CHUNK", window)
        assert _outcome(_streamed, text) == _outcome(_old_loads, text)


def _read_whole(path):
    """What load did before it read files a chunk at a time: the whole text
    read, then the route loads stands in for."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise pres.ParseError(f"{path} is not UTF-8 text: {exc.reason}") \
            from None
    return _old_loads(text)


def _on_block_edge(raw, sep):
    """raw with sep for every line end, and blanks before it that put the
    first line end's first byte last in the 8192-byte blocks text mode
    decodes."""
    raw = raw.replace(b"\n", sep)
    return b" " * (8191 - raw.index(sep)) + raw


def _files():
    """The bytes of files that test what text mode does before the reader
    sees a character: an empty file and a byte order mark, CRLF and lone-CR
    line ends, invalid UTF-8 before or after a JSON error, in a cell and
    after the closing brace, and trailing data or whitespace."""
    raw = pres.dumps(fixture("BIG")).encode("utf-8")
    cell = raw.index(b'"id[f]"') + 2
    far = b" " * (3 * pres.CHUNK)
    return {
        "empty": b"",
        "byte order mark": b"\xef\xbb\xbf" + raw,
        "CRLF": _on_block_edge(raw, b"\r\n"),
        "lone CR": _on_block_edge(raw, b"\r"),
        "UTF-8 error before a JSON error": b"\xff" + raw[:-3],
        "UTF-8 error after a JSON error":
            raw.replace(b"\n ],", b"\n ]],", 1) + far + b"\xff",
        "UTF-8 error in a cell": raw[:cell] + b"\xe9" + raw[cell + 1:],
        "UTF-8 error after the closing brace": raw + far + b"\xff",
        "cut UTF-8 sequence at the end": raw + b"\xe2\x82",
        "trailing data": raw + far + b"x",
        "trailing whitespace": raw + far,
    }


@pytest.mark.parametrize("window", WINDOWS)
def test_files_load_as_when_read_whole(tmp_path, monkeypatch, window):
    monkeypatch.setattr(pres, "CHUNK", window)
    for case, raw in _files().items():
        path = tmp_path / "C.graycat.json"
        path.write_bytes(raw)
        assert _outcome(pres.load, path) == _outcome(_read_whole, path), case


def test_a_file_nested_too_deeply_is_read_again_whole(tmp_path):
    """A cell wrapped in 1,100 arrays runs the reader out of recursion: load
    reads the file again whole and ends as loads does."""
    doc = json.loads(pres.dumps(fixture("T1")))
    row = doc["tables"]["comp0"][0]
    text = with_cell_text(doc, (row, 2),
                          "[" * 1100 + json.dumps(row[2]) + "]" * 1100)
    path = tmp_path / "deep.graycat.json"
    path.write_text(text, encoding="utf-8")
    assert _outcome(pres.load, path) == _outcome(pres.loads, text) == \
        "ParseError: document nested too deeply"


def test_from_document_takes_the_readers_cells_as_they_are():
    """Given the reader's decoder, from_document decodes only the cells the
    reader read whole: the generators flag's."""
    text = pres.dumps(fixture("TWIST"))
    decoder = pres._Decoder()
    doc = pres._Reader(decoder.dec).document(text)
    decoded = []
    dec = decoder.dec
    decoder.dec = lambda x: decoded.append(x) or dec(x)
    assert pres.dumps(pres.from_document(doc, decoder)) == text
    assert decoded == fixture("TWIST").generators


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


def test_load_holds_less_than_half_the_file(tmp_path):
    """load of path(CHAIN4)'s saved document reads it a chunk at a time and
    peaks below half its length: reading the whole text first peaked at
    twice it."""
    PH, text = _path_space("CHAIN4")
    path = tmp_path / "path.graycat.json"
    pres.save(PH, path)
    assert _traced_peak(lambda: pres.load(path)) < len(text) / 2


@pytest.mark.parametrize("path_space", [False, True])
@pytest.mark.parametrize("name", ALL)
def test_save_writes_dumps(tmp_path, name, path_space):
    C, text = _path_space(name) if path_space else \
        (fixture(name), pres.dumps(fixture(name)))
    path = tmp_path / "C.graycat.json"
    pres.save(C, path)
    assert path.read_bytes() == text.encode("utf-8")
