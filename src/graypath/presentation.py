"""Loading and saving Gray-categories.

Two entry points, one validator: the JSON wire format (*.graycat.json) and a
thin line-oriented DSL (*.gc) that compiles to the same document.  Identity
cells are always explicit in documents; the loader verifies rather than
synthesizes them.  Arrays are sorted so save/load round trips are bit-exact.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .kernel import GrayCat, GrayError, ValidationError, structural_violations
from .fixtures import fixture, fixture_names, UnknownFixture  # re-exported

__all__ = [
    "load", "loads", "save", "dumps", "to_document", "from_document",
    "parse_dsl", "ParseError", "fixture", "fixture_names", "UnknownFixture",
]

FORMAT = "graycat/1"

_compact = json.JSONEncoder(sort_keys=True).encode

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


def _decoder():
    """A decoder from JSON values to cells that returns one object per
    distinct cell, as a built GrayCat has: arrays become tuples, and equal
    strings or arrays decode to the same object, so table hits stop at
    identity.  Arrays are looked up by their repr, which, unlike the
    tuple, tells 1, 1.0 and true apart.
    """
    strings, tuples = {}, {}

    def dec(x):
        if type(x) is str:
            return strings.setdefault(x, x)
        if type(x) in (list, tuple):
            k = repr(x)
            t = tuples.get(k)
            if t is None:
                t = tuples[k] = tuple(map(dec, x))
            return t
        return x

    return dec


def to_document(C):
    """The document of C; cells are tuples, which json writes as arrays."""
    key = _Text().key

    def faces(d):
        return sorted(({"id": c, "src": C.src(d, c), "tgt": C.tgt(d, c)}
                       for c in C.cells[d]), key=lambda e: key(e["id"]))

    def pairs(table):
        return sorted(([c, i] for c, i in table.items()),
                      key=lambda e: key(e[0]))

    doc = {
        "format": FORMAT,
        "name": C.name,
        "flags": {"is_groupoid": C.is_groupoid},
        "objects": sorted(({"id": c} for c in C.cells[0]),
                          key=lambda e: key(e["id"])),
        "morphisms": faces(1),
        "two_cells": faces(2),
        "three_cells": faces(3),
        "identities": {str(d): pairs(C.id_up[d]) for d in (0, 1, 2)},
        "tables": {
            t: sorted(([l, r, v] for (l, r), v in getattr(C, _ATTR[t]).items()),
                      key=lambda e: (key(e[0]), key(e[1])))
            for t in _TABLES
        },
    }
    if C.generators is not None:
        doc["flags"]["generators"] = list(C.generators)
    if C.is_groupoid:
        doc["inverses"] = {str(d): pairs(table)
                           for d, table in ((1, C.inv1), (2, C.inv2), (3, C.inv3))}
    return doc


class _Text:
    """The JSON text of cells, each computed once.

    key(c) is `json.dumps(c, sort_keys=True)`, the compact text documents
    sort by, computed once per cell object.  at(c, depth) is c as
    `json.dumps(..., indent=1)` writes it nested depth levels deep, kept
    per compact text, so equal cells share it; the text, unlike the cell,
    tells 1, 1.0 and true apart.
    """

    def __init__(self):
        self.keys = {}
        self.texts = {}

    def key(self, c):
        if type(c) is str:
            return _quote(c)
        k = self.keys.get(id(c))
        if k is None:
            k = self.keys[id(c)] = _compact(c)
        return k

    def at(self, c, depth):
        if type(c) is str:
            return _quote(c)
        k = (self.key(c), depth)
        text = self.texts.get(k)
        if text is None:
            if depth:
                # a JSON string holds no raw newline, so indenting every
                # line of the depth-0 text nests it
                text = self.at(c, 0).replace("\n", "\n" + " " * depth)
            elif isinstance(c, tuple) and c:
                text = "[\n " + ",\n ".join(self.at(x, 1) for x in c) + "\n]"
            else:
                text = json.dumps(c, indent=1, sort_keys=True)
            self.texts[k] = text
        return text

    def document(self, x, depth=0):
        """x (dicts and lists around cells) as `json.dumps(x, indent=1,
        sort_keys=True)` writes it."""
        if not isinstance(x, (dict, list)):
            return self.at(x, depth)
        if not x:
            return "{}" if isinstance(x, dict) else "[]"
        pad = "\n" + " " * (depth + 1)
        end = "\n" + " " * depth
        if isinstance(x, dict):
            return "{" + ",".join(
                f"{pad}{_quote(k)}: {self.document(v, depth + 1)}"
                for k, v in sorted(x.items())) + end + "}"
        return "[" + ",".join(pad + self.document(v, depth + 1)
                              for v in x) + end + "]"


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
    dec = _decoder()
    C = GrayCat(doc.get("name", ""))
    for e in doc["objects"]:
        C.add_cell(0, dec(e["id"]))
    for dd, field in ((1, "morphisms"), (2, "two_cells"), (3, "three_cells")):
        for e in doc[field]:
            C.add_cell(dd, dec(e["id"]), dec(e["src"]), dec(e["tgt"]))
    for d in (0, 1, 2):
        for c, i in doc.get("identities", {}).get(str(d), []):
            C.id_up[d][dec(c)] = dec(i)
    for t in _TABLES:
        table = getattr(C, _ATTR[t])
        for l, r, v in doc.get("tables", {}).get(t, []):
            table[(dec(l), dec(r))] = dec(v)
    flags = doc.get("flags", {})
    C.is_groupoid = bool(flags.get("is_groupoid"))
    if "generators" in flags:
        C.generators = [dec(g) for g in flags["generators"]]
    for d, attr in ((1, "inv1"), (2, "inv2"), (3, "inv3")):
        for c, i in doc.get("inverses", {}).get(str(d), []):
            getattr(C, attr)[dec(c)] = dec(i)
    return C


def dumps(C):
    """The text of C's document: json.dumps(to_document(C), indent=1,
    sort_keys=True) and a newline, written from each cell's cached text."""
    return _Text().document(to_document(C)) + "\n"


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
