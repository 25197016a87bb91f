"""Loading and saving Gray-categories.

Two entry points, one validator: the JSON wire format (*.graycat.json) and a
thin line-oriented DSL (*.gc) that compiles to the same document.  Identity
cells are always explicit in documents; the loader verifies rather than
synthesizes them.  Arrays are sorted so save/load round trips are bit-exact.
"""

from __future__ import annotations

import json

from .kernel import GrayCat, GrayError, ValidationError, structural_violations
from .fixtures import fixture, fixture_names, UnknownFixture  # re-exported

__all__ = [
    "load", "loads", "save", "dumps", "to_document", "from_document",
    "parse_dsl", "ParseError", "fixture", "fixture_names", "UnknownFixture",
]

FORMAT = "graycat/1"

_TABLES = [
    "comp0", "whisk_l12", "whisk_r12", "whisk_l13", "whisk_r13",
    "comp1", "whisk_l23", "whisk_r23", "comp2", "tensor",
]

_ATTR = {
    "comp0": "comp0_11", "whisk_l12": "whisk_l12", "whisk_r12": "whisk_r12",
    "whisk_l13": "whisk_l13", "whisk_r13": "whisk_r13", "comp1": "comp1_22",
    "whisk_l23": "whisk_l23", "whisk_r23": "whisk_r23", "comp2": "comp2_33",
    "tensor": "tensor_",
}


class ParseError(GrayError):
    def __init__(self, msg, line=None):
        self.line = line
        super().__init__(f"line {line}: {msg}" if line else msg)


def _enc(cell):
    """Derived cells are nested tuples; encode them as nested arrays."""
    if isinstance(cell, tuple):
        return [_enc(c) for c in cell]
    return cell


def _dec(cell):
    if isinstance(cell, list):
        return tuple(_dec(c) for c in cell)
    return cell


def _key(cell):
    return json.dumps(_enc(cell), sort_keys=True)


def to_document(C):
    doc = {
        "format": FORMAT,
        "name": C.name,
        "flags": {"is_groupoid": C.is_groupoid},
        "objects": sorted(({"id": _enc(c)} for c in C.cells[0]),
                          key=lambda e: _key(e["id"])),
        "morphisms": sorted(({"id": _enc(c), "src": _enc(C.src(1, c)),
                              "tgt": _enc(C.tgt(1, c))} for c in C.cells[1]),
                            key=lambda e: _key(e["id"])),
        "two_cells": sorted(({"id": _enc(c), "src": _enc(C.src(2, c)),
                              "tgt": _enc(C.tgt(2, c))} for c in C.cells[2]),
                            key=lambda e: _key(e["id"])),
        "three_cells": sorted(({"id": _enc(c), "src": _enc(C.src(3, c)),
                                "tgt": _enc(C.tgt(3, c))} for c in C.cells[3]),
                              key=lambda e: _key(e["id"])),
        "identities": {
            str(d): sorted(([_enc(c), _enc(i)] for c, i in C.id_up[d].items()),
                           key=lambda e: _key(e[0]))
            for d in (0, 1, 2)
        },
        "tables": {
            t: sorted(([_enc(l), _enc(r), _enc(v)]
                       for (l, r), v in getattr(C, _ATTR[t]).items()),
                      key=lambda e: (_key(e[0]), _key(e[1])))
            for t in _TABLES
        },
    }
    if C.generators is not None:
        doc["flags"]["generators"] = [_enc(g) for g in C.generators]
    if C.is_groupoid:
        doc["inverses"] = {
            str(d): sorted(([_enc(c), _enc(i)] for c, i in table.items()),
                           key=lambda e: _key(e[0]))
            for d, table in ((1, C.inv1), (2, C.inv2), (3, C.inv3))
        }
    return doc


def from_document(doc, max_violations=20):
    """The GrayCat a document describes.

    Raises ParseError when the document is malformed and ValidationError
    when its cells and tables are inconsistent.
    """
    if not isinstance(doc, dict):
        raise ParseError(f"a document is a JSON object, not {type(doc).__name__}")
    if doc.get("format") != FORMAT:
        raise ParseError(f"unknown format {doc.get('format')!r}, expected {FORMAT}")
    try:
        C = _build(doc)
        violations = structural_violations(C, limit=max_violations)
    except (KeyError, GrayError) as exc:
        raise ParseError(str(exc)) from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed document: {exc}") from None
    if violations:
        raise ValidationError(violations)
    return C


def _build(doc):
    C = GrayCat(doc.get("name", ""))
    for e in doc["objects"]:
        C.add_cell(0, _dec(e["id"]))
    for dd, field in ((1, "morphisms"), (2, "two_cells"), (3, "three_cells")):
        for e in doc[field]:
            C.add_cell(dd, _dec(e["id"]), _dec(e["src"]), _dec(e["tgt"]))
    for d in (0, 1, 2):
        for c, i in doc.get("identities", {}).get(str(d), []):
            C.id_up[d][_dec(c)] = _dec(i)
    for t in _TABLES:
        table = getattr(C, _ATTR[t])
        for l, r, v in doc.get("tables", {}).get(t, []):
            table[(_dec(l), _dec(r))] = _dec(v)
    flags = doc.get("flags", {})
    C.is_groupoid = bool(flags.get("is_groupoid"))
    if "generators" in flags:
        C.generators = [_dec(g) for g in flags["generators"]]
    for d, attr in ((1, "inv1"), (2, "inv2"), (3, "inv3")):
        for c, i in doc.get("inverses", {}).get(str(d), []):
            getattr(C, attr)[_dec(c)] = _dec(i)
    return C


def dumps(C):
    return json.dumps(to_document(C), indent=1, sort_keys=True) + "\n"


def loads(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON at char {exc.pos}: {exc.msg}") from None
    return from_document(doc)


def save(C, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(C))


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from None
    if str(path).endswith(".gc"):
        return from_document(parse_dsl(text))
    return loads(text)


# -- the DSL ------------------------------------------------------------

_DSL_TABLES = set(_TABLES)


def parse_dsl(text):
    """One declaration per line, compiled to a GrayCatDocument.

        name NAME
        object x
        1cell f : x -> y
        2cell a : f => g
        3cell G : a -> b
        id x = idx
        comp0 g f = h              (same shape for every operation table)
        groupoid
        generators f g
        inv1 s = s
    """
    doc = {
        "format": FORMAT, "name": "", "flags": {"is_groupoid": False},
        "objects": [], "morphisms": [], "two_cells": [], "three_cells": [],
        "identities": {"0": [], "1": [], "2": []},
        "tables": {t: [] for t in _TABLES},
    }
    inverses = {"1": [], "2": [], "3": []}
    dims = {}

    def cells_of(d):
        return {0: "objects", 1: "morphisms", 2: "two_cells", 3: "three_cells"}[d]

    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        try:
            if kw == "name":
                doc["name"] = " ".join(parts[1:])
            elif kw == "object":
                (x,) = parts[1:]
                doc["objects"].append({"id": x})
                dims[x] = 0
            elif kw in ("1cell", "2cell", "3cell"):
                d = int(kw[0])
                ident, colon, s, arrow, t = parts[1:]
                if colon != ":" or arrow not in ("->", "=>", "=>>"):
                    raise ParseError(f"bad arrow syntax in {raw!r}", n)
                doc[cells_of(d)].append({"id": ident, "src": s, "tgt": t})
                dims[ident] = d
            elif kw == "id":
                c, eq, i = parts[1:]
                if eq != "=":
                    raise ParseError("expected '='", n)
                if c not in dims:
                    raise ParseError(f"identity declared for unknown cell {c!r}", n)
                doc["identities"][str(dims[c])].append([c, i])
            elif kw in _DSL_TABLES:
                l, r, eq, v = parts[1:]
                if eq != "=":
                    raise ParseError("expected '='", n)
                doc["tables"][kw].append([l, r, v])
            elif kw == "groupoid":
                doc["flags"]["is_groupoid"] = True
            elif kw == "generators":
                doc["flags"]["generators"] = parts[1:]
            elif kw in ("inv1", "inv2", "inv3"):
                c, eq, i = parts[1:]
                inverses[kw[-1]].append([c, i])
            else:
                raise ParseError(f"unknown declaration {kw!r}", n)
        except ParseError:
            raise
        except ValueError:
            raise ParseError(f"malformed declaration {raw!r}", n) from None
    if any(inverses.values()):
        doc["inverses"] = inverses
    for t in _TABLES:
        doc["tables"][t].sort()
    for d in ("0", "1", "2"):
        doc["identities"][d].sort()
    for f in ("objects", "morphisms", "two_cells", "three_cells"):
        doc[f].sort(key=lambda e: e["id"])
    return doc
