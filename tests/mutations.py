"""Saved *.graycat.json texts and one-edit mutations of them, shared by the
CLI fuzz tests and the loader's parity test."""

import functools
import json

from hypothesis import strategies as st

from graypath import presentation as pres
from graypath.fixtures import fixture
from graypath.pathspace import build_pathspace

CELLS = ("objects", "morphisms", "two_cells", "three_cells")
_MARK = "@@cell@@"


@functools.lru_cache(maxsize=None)
def document_text(name):
    """The saved text of BIG or of path(PAIR)."""
    C = fixture(name) if name == "BIG" else build_pathspace(fixture("PAIR"))
    return pres.dumps(C)


def cell_slots(doc):
    """Every place of doc that holds a cell, as (container, key) pairs."""
    rows = [r for rs in doc["identities"].values() for r in rs]
    rows += [r for rs in doc["tables"].values() for r in rs]
    return ([(e, k) for f in CELLS for e in doc[f] for k in sorted(e)]
            + [(r, j) for r in rows for j in range(len(r))])


def with_cell_text(doc, slot, text):
    """doc's JSON text with the cell at slot written as text."""
    container, key = slot
    container[key] = _MARK
    return json.dumps(doc, indent=1, sort_keys=True).replace(
        json.dumps(_MARK), text)


@st.composite
def mutated_json(draw):
    """BIG's or path(PAIR)'s saved JSON with one edit: the text cut short, a
    bracket dropped or doubled, a cell swapped for 1, true or 1.0, or a cell
    wrapped in N arrays."""
    text = document_text(draw(st.sampled_from(["BIG", "path(PAIR)"])))
    kind = draw(st.sampled_from(["truncate", "drop-bracket", "double-bracket",
                                 "swap", "wrap"]))
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text)))]
    if kind.endswith("bracket"):
        i = draw(st.sampled_from(
            [i for i, ch in enumerate(text) if ch in "[]{}"]))
        return text[:i] + (text[i] if kind == "double-bracket" else "") + \
            text[i + 1:]
    doc = json.loads(text)
    slots = cell_slots(doc)
    container, key = slot = slots[draw(st.integers(0, len(slots) - 1))]
    if kind == "swap":
        cell = draw(st.sampled_from(["1", "true", "1.0"]))
    else:
        n = draw(st.sampled_from([1, 2, 50, 990, 2000]))
        cell = "[" * n + json.dumps(container[key]) + "]" * n
    return with_cell_text(doc, slot, cell)
