"""Loading and saving Gray-categories.

Two entry points, one validator: the JSON wire format (*.graycat.json) and a
thin line-oriented DSL (*.gc) that compiles to the same document.  Identity
cells are always explicit in documents; the loader verifies rather than
synthesizes them.  Arrays are sorted so save/load round trips are bit-exact.
"""

from __future__ import annotations

import json
import marshal
from json.decoder import WHITESPACE, JSONDecodeError, scanstring
from json.encoder import encode_basestring_ascii as _quote

from .kernel import (TABLES, GrayCat, GrayError, ValidationError,
                     structural_violations)

__all__ = [
    "load", "loads", "save", "dumps", "to_document", "from_document",
    "parse_dsl", "ParseError",
]

FORMAT = "graycat/1"

_compact = json.JSONEncoder(sort_keys=True).encode


class ParseError(GrayError):
    def __init__(self, msg, line=None):
        self.line = line
        super().__init__(f"line {line}: {msg}" if line else msg)


def _enc(cell):
    """Derived cells are nested tuples; encode them as nested arrays."""
    if isinstance(cell, tuple):
        return [_enc(c) for c in cell]
    return cell


class _Decoder:
    """A decoder from JSON values to cells that returns one object per
    distinct cell, as a built GrayCat has: arrays become tuples, and equal
    strings or arrays decode to the same object, so table hits stop at
    identity.  A value it already decoded maps to itself: JSON never yields
    a tuple.  Arrays are looked up by their marshal bytes, which, unlike
    the tuple, tell 1, 1.0 and true apart.  Format 2 is the last that
    writes equal values as equal bytes: from 3 on, marshal marks interned
    strings and shared references.  Not a closure: it would be a cycle.
    """

    def __init__(self):
        self.strings, self.tuples = {}, {}

    def dec(self, x):
        if type(x) is str:
            return self.strings.setdefault(x, x)
        if type(x) is list:
            k = marshal.dumps(x, 2)
            t = self.tuples.get(k)
            if t is None:
                t = self.tuples[k] = tuple(map(self.dec, x))
            return t
        return x


# the top-level keys whose value is an array of cell rows, and those whose
# value is an object of such arrays
_ROWS = frozenset(("objects", "morphisms", "two_cells", "three_cells"))
_SECTIONS = frozenset(("identities", "tables", "inverses"))


class _Reader(json.JSONDecoder):
    """json.loads(text, cls=_Reader, dec=dec) is json.loads(text), except
    that each element of a cell array is decoded by dec as soon as it is
    read: a dict element's values, or a list element's items.  So only one
    row of the text is a tree of JSON lists at a time.

    The top-level object, its cell arrays and its objects of cell arrays are
    walked here, with the C scanner reading every other value whole.  Each
    container walked costs the reader at least one Python frame, where
    json.loads spends one level of the scanner's recursion; up to Python
    3.11 both count against one limit, so the reader runs out of recursion
    no later than json.loads does.  Every other error it raises is the one
    json raises, at the same place.
    """

    def __init__(self, dec):
        super().__init__()
        self.dec = dec

    def raw_decode(self, s, idx=0):
        try:
            if s.startswith("{", idx):
                return self._object(s, idx + 1, self._member)
            return self.scan_once(s, idx)
        except StopIteration as err:
            raise JSONDecodeError("Expecting value", s, err.value) from None

    def _object(self, s, end, value):
        """The object whose members start at end, and the index after it;
        value(key, s, i) reads the value at i."""
        obj = {}
        end = WHITESPACE.match(s, end).end()
        if s.startswith("}", end):
            return obj, end + 1
        while True:
            if not s.startswith('"', end):
                raise JSONDecodeError(
                    "Expecting property name enclosed in double quotes", s, end)
            key, end = scanstring(s, end + 1, self.strict)
            end = WHITESPACE.match(s, end).end()
            if not s.startswith(":", end):
                raise JSONDecodeError("Expecting ':' delimiter", s, end)
            end = WHITESPACE.match(s, end + 1).end()
            obj[key], end = value(key, s, end)
            end = WHITESPACE.match(s, end).end()
            if s.startswith("}", end):
                return obj, end + 1
            if not s.startswith(",", end):
                raise JSONDecodeError("Expecting ',' delimiter", s, end)
            end = WHITESPACE.match(s, end + 1).end()

    def _member(self, key, s, end):
        if key in _ROWS:
            return self._rows(key, s, end)
        if key in _SECTIONS and s.startswith("{", end):
            return self._object(s, end + 1, self._rows)
        return self.scan_once(s, end)

    def _rows(self, key, s, end):
        """The array at end with each element decoded, or the value at end
        read whole if it is not an array; key, the member it is the value
        of, names no row."""
        if not s.startswith("[", end):
            return self.scan_once(s, end)
        dec, rows = self.dec, []
        end = WHITESPACE.match(s, end + 1).end()
        if s.startswith("]", end):
            return rows, end + 1
        while True:
            row, end = self.scan_once(s, end)
            if type(row) is list:
                row[:] = map(dec, row)
            elif type(row) is dict:
                row = dict(zip(map(dec, row), map(dec, row.values())))
            rows.append(row)
            end = WHITESPACE.match(s, end).end()
            if s.startswith("]", end):
                return rows, end + 1
            if not s.startswith(",", end):
                raise JSONDecodeError("Expecting ',' delimiter", s, end)
            end = WHITESPACE.match(s, end + 1).end()


def to_document(C, text=None):
    """The document of C; cells are tuples, which json writes as arrays.
    Arrays sort by text.key: the writer passes its own _Text."""
    key = (text or _Text()).key

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
            t: sorted(([l, r, v] for (l, r), v in getattr(C, attr).items()),
                      key=lambda e: (key(e[0]), key(e[1])))
            for t, attr, *_ in TABLES
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
    per depth and compact text, so equal cells share it; the text, unlike
    the cell, tells 1, 1.0 and true apart.
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
        texts = self.texts.get(depth)
        if texts is None:
            texts = self.texts[depth] = {}
        k = self.key(c)
        text = texts.get(k)
        if text is None:
            if isinstance(c, tuple) and c:
                text = "[\n " + ",\n ".join(self.at(x, 1) for x in c) + "\n]"
                if depth:
                    # a JSON string holds no raw newline, so indenting
                    # every line of the depth-0 text nests it
                    text = text.replace("\n", "\n" + " " * depth)
            else:
                text = json.dumps(c, indent=1, sort_keys=True)
            texts[k] = text
        return text

    def document(self, x, depth=0):
        """The pieces of x (dicts and lists around cells) as
        `json.dumps(x, indent=1, sort_keys=True)` writes it: one piece per
        cell, and one per bracket, key and separator."""
        if not isinstance(x, (dict, list)):
            yield self.at(x, depth)
        elif not x:
            yield "{}" if isinstance(x, dict) else "[]"
        else:
            pad = ",\n" + " " * (depth + 1)
            sep = pad[1:]
            if isinstance(x, dict):
                yield "{"
                for k, v in sorted(x.items()):
                    yield f"{sep}{_quote(k)}: "
                    yield from self.document(v, depth + 1)
                    sep = pad
                yield "\n" + " " * depth + "}"
            else:
                yield "["
                for v in x:
                    yield sep
                    yield from self.document(v, depth + 1)
                    sep = pad
                yield "\n" + " " * depth + "]"


def from_document(doc, decoder=None):
    """The GrayCat a document describes.

    decoder is the _Decoder that read doc's cell rows, if one did, so that
    the cells the document repeats elsewhere decode to the same objects.
    Raises ParseError when the document is malformed and ValidationError
    when its cells and tables are inconsistent.
    """
    if not isinstance(doc, dict):
        raise ParseError(f"a document is a JSON object, not {type(doc).__name__}")
    if doc.get("format") != FORMAT:
        raise ParseError(f"unknown format {doc.get('format')!r}, expected {FORMAT}")
    try:
        C = _build(doc, decoder or _Decoder())
        del doc  # the rows loads read are garbage once C holds their cells
        violations = structural_violations(C)
    except (KeyError, GrayError) as exc:
        raise ParseError(str(exc)) from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed document: {exc}") from None
    if violations:
        raise ValidationError(violations)
    return C


def _build(doc, decoder):
    dec = decoder.dec
    C = GrayCat(doc.get("name", ""))
    for e in doc["objects"]:
        C.add_cell(0, dec(e["id"]))
    for dd, field in ((1, "morphisms"), (2, "two_cells"), (3, "three_cells")):
        for e in doc[field]:
            C.add_cell(dd, dec(e["id"]), dec(e["src"]), dec(e["tgt"]))
    for d in (0, 1, 2):
        for c, i in doc.get("identities", {}).get(str(d), []):
            C.id_up[d][dec(c)] = dec(i)
    for t, attr, *_ in TABLES:
        table = getattr(C, attr)
        for l, r, v in doc.get("tables", {}).get(t, []):
            table[(dec(l), dec(r))] = dec(v)
    flags = doc.get("flags", {})
    C.is_groupoid = bool(flags.get("is_groupoid"))
    if "generators" in flags:
        gens = flags["generators"]
        if not isinstance(gens, list):
            raise ParseError(f"generators is a list of 1-cells, not {type(gens).__name__}")
        C.generators = [dec(g) for g in gens]
    for d, attr in ((1, "inv1"), (2, "inv2"), (3, "inv3")):
        for c, i in doc.get("inverses", {}).get(str(d), []):
            getattr(C, attr)[dec(c)] = dec(i)
    return C


def dumps(C):
    """The text of C's document: json.dumps(to_document(C), indent=1,
    sort_keys=True) and a newline, joined from the pieces save writes."""
    text = _Text()
    return "".join(text.document(to_document(C, text))) + "\n"


def loads(text):
    """The GrayCat of a JSON document text: from_document(json.loads(text)),
    with each row of the document's cell arrays decoded as it is read, so
    the decoded JSON tree of the whole text is never held.

    A text the reader runs out of recursion on is read by json.loads and
    from_document instead, so a document nested deeper than the
    interpreter's recursion limit is a ParseError like any other malformed
    text, as it was before the reader.
    """
    decoder = _Decoder()
    try:
        try:
            return from_document(
                json.loads(text, cls=_Reader, dec=decoder.dec), decoder)
        except JSONDecodeError:
            raise
        except (RecursionError, ValueError):
            # past the reader's frames or marshal's depth limit: the route
            # the reader stands in for, with its outcome
            return from_document(json.loads(text))
    except JSONDecodeError as exc:
        raise ParseError(f"bad JSON at char {exc.pos}: {exc.msg}") from None
    except RecursionError:
        raise ParseError("document nested too deeply") from None


def save(C, path):
    """Write dumps(C) to path piece by piece, never the whole text."""
    with open(path, "w", encoding="utf-8") as fh:
        text = _Text()
        fh.writelines(text.document(to_document(C, text)))
        fh.write("\n")


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
        "tables": {t: [] for t, *_ in TABLES},
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
                if dims[c] == 3:
                    raise ParseError(f"identity declared for the 3-cell {c!r}", n)
                doc["identities"][str(dims[c])].append([c, i])
            elif kw in doc["tables"]:
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
                if eq != "=":
                    raise ParseError("expected '='", n)
                inverses[kw[-1]].append([c, i])
            else:
                raise ParseError(f"unknown declaration {kw!r}", n)
        except ParseError:
            raise
        except ValueError:
            raise ParseError(f"malformed declaration {raw!r}", n) from None
    if any(inverses.values()):
        doc["inverses"] = inverses
    for rows in doc["tables"].values():
        rows.sort()
    for d in ("0", "1", "2"):
        doc["identities"][d].sort()
    for f in ("objects", "morphisms", "two_cells", "three_cells"):
        doc[f].sort(key=lambda e: e["id"])
    return doc
