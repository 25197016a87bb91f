"""The JSON loader: the path-space documents it reads most, the collector
state it leaves behind, and the key it dedups cells by."""

import functools
import gc
import hashlib
import json
import sys

import pytest

from graypath import presentation as pres
from graypath.fixtures import fixture
from graypath.kernel import ValidationError, check_gray_axioms
from graypath.pathspace import build_pathspace

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


def test_a_load_leaves_no_reference_cycle():
    """The decoder recurses through a method, not through a closure that
    names itself: with the loaded path(PAIR) dropped, a collection finds
    nothing left over."""
    _, text = _path_space("PAIR")
    gc.collect()
    C = pres.loads(text)
    del C
    assert gc.collect() == 0
