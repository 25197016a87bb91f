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
    strings, numbers or arrays decode to the same object, so table hits
    stop at identity.  A value it already decoded maps to itself: JSON never
    yields a tuple.  A number is looked up by its marshal bytes, which,
    unlike the number, tell 1, 1.0 and true apart, and an array by the ids
    of its decoded items, so decoding is linear in the nesting depth.
    Format 2 is the last that writes equal numbers as equal bytes: from 3
    on, marshal marks shared references.  Not a closure: it would be a
    cycle.
    """

    def __init__(self):
        self.strings, self.numbers, self.tuples = {}, {}, {}

    def dec(self, x):
        if type(x) is str:
            return self.strings.setdefault(x, x)
        if type(x) is list:
            items = [*map(self.dec, x)]
            k = marshal.dumps([*map(id, items)], 2)
            t = self.tuples.get(k)
            if t is None:
                t = self.tuples[k] = tuple(items)
            return t
        if type(x) in (int, float, bool):
            return self.numbers.setdefault(marshal.dumps(x, 2), x)
        return x


# the top-level keys whose value is an array of cell rows, and those whose
# value is an object of such arrays
_ROWS = frozenset(("objects", "morphisms", "two_cells", "three_cells"))
_SECTIONS = frozenset(("identities", "tables", "inverses"))

# an array whose text runs on past this many characters is looked up by
# them, so that the reader need not search the rest for its closer
_HEAD = 96

# the characters load reads from a file at once, and the least text the
# reader keeps ahead of each item it walks
CHUNK = 1 << 16


def _bad_json(msg, pos):
    return ParseError(f"bad JSON at char {pos}: {msg}")


class _Reader(json.JSONDecoder):
    """document(text) is json.loads(text), except that each element of a
    cell row is decoded by dec as soon as it is read: a dict row's values,
    or a list row's items.  The C scanner reads each scalar element, and
    each distinct array element text once: an array is looked up among the
    texts read so far, in place, before the scanner reads it.  So no row of
    the text is ever a tree of JSON lists.

    The reader walks a sliding window of the text: self.s holds the text
    from character self.base on, and self.read(n) gives the next n
    characters, fewer only where the text ends; once it returns "", it is
    set to None.  An item is a member of the top-level object or of one of
    its objects of cell arrays, or a row of a cell array.  Before each item
    the window is topped up until CHUNK characters lie ahead of it or the
    text has ended, and the text before it is dropped.  A row, a member's
    key, or a value the scanner reads whole, that fails or is not followed
    in the window by what may follow it, is read again from its start once
    the window has at least doubled.  So a row of any size reads, no
    earlier item is read twice, and an error counts only once the text has
    ended; its position in the text is base plus its position in the
    window, so every error is the one json raises, at the same place.  As
    the window drops earlier text, the cache keeps a copy of each distinct
    array text.  loads gives the whole text as the only window.

    The top-level object, its cell arrays, their rows and its objects of
    cell arrays are walked here.  Each container walked costs the reader at
    least one Python frame, where json.loads spends one level of the
    scanner's recursion; up to Python 3.11 both count against one limit.
    Below document, the scanner is called eight or more frames deep to
    read a row's element; below json.loads, it reads any element at most
    two frames and four containers deep.  _leaf, the window's one frame
    between an item and its reading, is among those eight, a row read
    again is read as deep as the first time, and a cached text reads as
    the scanner read it, so the reader runs out of recursion no later than
    json.loads does.
    """

    def __init__(self, dec):
        super().__init__()
        self.dec = dec
        # the hash of an array element's first _HEAD characters, or of its
        # whole text if it is no longer or another array began with them,
        # -> (text, cell) of its first occurrence
        self.cells, self.longest = {}, 0
        # the marshal bytes of an array element read -> its cell, for a
        # text that spells a cell already read at another indentation
        self.values = {}
        self.s, self.base, self.read = "", 0, None

    def document(self, text, read=None):
        """The document whose text is text and then what read(CHUNK)
        returns until it returns "", as json.loads reads it.  A JSON error
        is a ParseError, raised once read has returned "": a UTF-8 error
        later in the text wins, as it did when the text was read whole."""
        self.s, self.base, self.read = text, 0, read
        try:
            self._fill(0, CHUNK)
            if self.s.startswith("\ufeff"):
                raise JSONDecodeError(
                    "Unexpected UTF-8 BOM (decode using utf-8-sig)", self.s, 0)
            doc, end = self._value(self._ws(0))
            end = self._ws(end)
            if end != len(self.s):
                raise JSONDecodeError("Extra data", self.s, end)
            return doc
        except JSONDecodeError as exc:
            while self.read is not None and self.read(CHUNK):
                pass
            raise _bad_json(exc.msg, self.base + exc.pos) from None

    def raw_decode(self, s, idx=0):
        """The value at s[idx:], s being the whole text, and the index
        after it, or, after a value other than an object, after the
        whitespace that follows it."""
        self.s, self.base, self.read = s, 0, None
        return self._value(idx)

    def _value(self, i):
        try:
            if self.s.startswith("{", i):
                return self._object(i + 1, self._member)
            return self._leaf(self.scan_once, i, ())
        except StopIteration as err:
            raise JSONDecodeError("Expecting value", self.s, err.value) from None

    # -- the window: positions are offsets into self.s ----------------------

    def _fill(self, i, n):
        """Where position i lies once the window holds n characters from i
        on or the text has ended: if it holds fewer, the text before i is
        dropped and the window read on."""
        s = self.s
        if self.read is None or len(s) - i >= n:
            return i
        part = self.read(max(n - len(s) + i, CHUNK))
        if not part:
            self.read = None
        self.s = s[i:] + part
        self.base += i
        return 0

    def _ws(self, i):
        """The position of the first character at or after i that is not
        whitespace, once CHUNK characters lie ahead of it or the text has
        ended: each item is read at such a position."""
        while True:
            i = WHITESPACE.match(self.s, i).end()
            if self.read is None or len(self.s) - i >= CHUNK:
                return i
            i = self._fill(i, CHUNK)

    def _leaf(self, read, i, follow):
        """The value read(s, i) reads on the window s, and the position of
        the first character after it that is not whitespace.  While the read
        fails, or the whitespace after it runs on to the window's end or to
        a character follow does not start, the value is read again on a
        window grown to twice the text from i on, until the text has ended.
        """
        while True:
            s = self.s
            try:
                x, end = read(s, i)
                end = WHITESPACE.match(s, end).end()
                if self.read is None or s.startswith(follow, end):
                    return x, end
            except (JSONDecodeError, StopIteration):
                if self.read is None:
                    raise
            i = self._fill(i, 2 * (len(s) - i))

    # -- the items: these frames hold positions, never the window -----------

    def _object(self, i, value):
        """The object whose members start at i, and the position after it;
        value(key, i) reads a member's value at i."""
        obj = {}
        i = self._ws(i)
        if not self.s.startswith("}", i):
            while True:
                key, i = self._leaf(self._key, i, ":")
                if not self.s.startswith(":", i):
                    raise JSONDecodeError("Expecting ':' delimiter", self.s, i)
                obj[key], i = value(key, self._ws(i + 1))
                i = self._ws(i)
                if not self.s.startswith(",", i):
                    break
                i = self._ws(i + 1)
            if not self.s.startswith("}", i):
                raise JSONDecodeError("Expecting ',' delimiter", self.s, i)
        return obj, i + 1

    def _key(self, s, i):
        if not s.startswith('"', i):
            raise JSONDecodeError(
                "Expecting property name enclosed in double quotes", s, i)
        return scanstring(s, i + 1, self.strict)

    def _member(self, key, i):
        """The value of the top-level member key at i, and the position
        after it."""
        if key in _ROWS:
            return self._rows(key, i)
        if key in _SECTIONS and self.s.startswith("{", i):
            return self._object(i + 1, self._rows)
        return self._leaf(self.scan_once, i, (",", "}"))

    def _rows(self, key, i):
        """The array of rows at i, or the value at i read whole if it is
        not an array, and the position after it."""
        if not self.s.startswith("[", i):
            return self._leaf(self.scan_once, i, (",", "}"))
        rows = []
        i = self._ws(i + 1)
        if not self.s.startswith("]", i):
            while True:
                row, i = self._leaf(self._row, i, (",", "]"))
                rows.append(row)
                if not self.s.startswith(",", i):
                    break
                i = self._ws(i + 1)
            if not self.s.startswith("]", i):
                raise JSONDecodeError("Expecting ',' delimiter", self.s, i)
        return rows, i + 1

    # -- a row: read within the window s ------------------------------------

    def _row(self, s, i):
        """The row at i with its elements decoded, or the value at i read
        whole if it is no row, and the index after it."""
        if s.startswith("[", i):
            return self._list(s, i + 1)
        if s.startswith("{", i):
            return self._dict(s, i + 1)
        return self.scan_once(s, i)

    def _dict(self, s, end):
        """The dict row whose members start at end, and the index after
        it."""
        obj = {}
        end = WHITESPACE.match(s, end).end()
        if s.startswith("}", end):
            return obj, end + 1
        while True:
            key, end = self._key(s, end)
            key = self.dec(key)
            end = WHITESPACE.match(s, end).end()
            if not s.startswith(":", end):
                raise JSONDecodeError("Expecting ':' delimiter", s, end)
            end = WHITESPACE.match(s, end + 1).end()
            obj[key], end = self._cell(s, end)
            end = WHITESPACE.match(s, end).end()
            if s.startswith("}", end):
                return obj, end + 1
            if not s.startswith(",", end):
                raise JSONDecodeError("Expecting ',' delimiter", s, end)
            end = WHITESPACE.match(s, end + 1).end()

    def _list(self, s, end):
        """The list row whose items start at end, and the index after it."""
        arr = []
        i = WHITESPACE.match(s, end).end()
        if s.startswith("]", i):
            return arr, i + 1
        sep = "," + s[end:i]
        n = len(sep)
        while True:
            x, end = self._cell(s, i)
            arr.append(x)
            if s.startswith(sep, end) and \
                    not s.startswith((" ", "\t", "\n", "\r"), end + n):
                # the whitespace match below would end where sep ends
                i = end + n
                continue
            end = WHITESPACE.match(s, end).end()
            if s.startswith("]", end):
                return arr, end + 1
            if not s.startswith(",", end):
                raise JSONDecodeError("Expecting ',' delimiter", s, end)
            i = WHITESPACE.match(s, end + 1).end()

    def _cell(self, s, i):
        """The element at i decoded, and the index after it.

        The scanner reads a scalar: that costs less than looking it up.  An
        array is looked up by its first _HEAD characters if it is longer.
        Failing that, its text is guessed, searching no farther than the
        longest text cached: an array opened alone on its line ends at the
        next line as indented that holds its closer, any other at the end
        of its line, before any comma.  Only if the guessed text is not
        cached either does the scanner read the array, and the text it read
        is cached.
        """
        if not s.startswith("[", i):
            value, end = self.scan_once(s, i)
            return self.dec(value), end
        cells = self.cells
        hit = cells.get(hash(s[i:i + _HEAD]))
        if hit is not None and s.startswith(hit[0], i):
            return hit[1], i + len(hit[0])
        if s.startswith("[\n", i):
            line = s.rfind("\n", 0, i) + 1
            closer = "\n" + s[line:WHITESPACE.match(s, line).end()] + "]"
            stop = s.find(closer, i, i + self.longest)
            if stop >= 0:
                stop += len(closer)
        else:
            stop = s.find("\n", i, i + self.longest + 1)
            if stop > i and s[stop - 1] == ",":
                stop -= 1
        if stop > i:
            text = s[i:stop]
            hit = cells.get(hash(text))
            if hit is not None and hit[0] == text:
                return hit[1], stop
        value, end = self.scan_once(s, i)
        key = marshal.dumps(value, 2)
        cell = self.values.get(key)
        if cell is None:
            cell = self.values[key] = self.dec(value)
        text = s[i:end]
        entry = (text, cell)
        if end - i <= _HEAD or \
                cells.setdefault(hash(text[:_HEAD]), entry) is not entry:
            cells.setdefault(hash(text), entry)
        self.longest = max(self.longest, end - i)
        return cell, end


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

    decoder is the _Decoder that read doc's cell rows, if one did: the
    cells of those rows are taken as they are, and the cells the document
    repeats elsewhere decode to the same objects.  Raises ParseError when
    the document is malformed and ValidationError when its cells and tables
    are inconsistent.
    """
    if not isinstance(doc, dict):
        raise ParseError(f"a document is a JSON object, not {type(doc).__name__}")
    if doc.get("format") != FORMAT:
        raise ParseError(f"unknown format {doc.get('format')!r}, expected {FORMAT}")
    try:
        if decoder is None:
            dec = cell = _Decoder().dec
        else:
            dec, cell = decoder.dec, _same
        C = _build(doc, dec, cell)
        del doc  # the rows loads read are garbage once C holds their cells
        violations = structural_violations(C)
    except (KeyError, GrayError) as exc:
        raise ParseError(str(exc)) from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed document: {exc}") from None
    if violations:
        raise ValidationError(violations)
    return C


def _same(x):
    return x


def _build(doc, dec, cell):
    """The GrayCat of doc: cell gives each cell of its rows, dec each cell
    it names elsewhere."""
    C = GrayCat(doc.get("name", ""))
    for e in doc["objects"]:
        C.add_cell(0, cell(e["id"]))
    for dd, field in ((1, "morphisms"), (2, "two_cells"), (3, "three_cells")):
        for e in doc[field]:
            C.add_cell(dd, cell(e["id"]), cell(e["src"]), cell(e["tgt"]))
    for d in (0, 1, 2):
        for c, i in doc.get("identities", {}).get(str(d), []):
            C.id_up[d][cell(c)] = cell(i)
    for t, attr, *_ in TABLES:
        table = getattr(C, attr)
        for l, r, v in doc.get("tables", {}).get(t, []):
            table[(cell(l), cell(r))] = cell(v)
    flags = doc.get("flags", {})
    C.is_groupoid = bool(flags.get("is_groupoid"))
    if "generators" in flags:
        gens = flags["generators"]
        if not isinstance(gens, list):
            raise ParseError(f"generators is a list of 1-cells, not {type(gens).__name__}")
        C.generators = [dec(g) for g in gens]
    for d, attr in ((1, "inv1"), (2, "inv2"), (3, "inv3")):
        for c, i in doc.get("inverses", {}).get(str(d), []):
            getattr(C, attr)[cell(c)] = cell(i)
    return C


def dumps(C):
    """The text of C's document: json.dumps(to_document(C), indent=1,
    sort_keys=True) and a newline, joined from the pieces save writes."""
    text = _Text()
    return "".join(text.document(to_document(C, text))) + "\n"


def loads(text):
    """The GrayCat of a JSON document text: from_document(json.loads(text)),
    read by the reader with the whole text as its only window, so that each
    row of the document's cell arrays is decoded as it is read and the
    decoded JSON tree of the whole text is never held.

    A text the reader runs out of recursion on is read by json.loads and
    from_document instead, so a document nested deeper than the
    interpreter's recursion limit is a ParseError like any other malformed
    text, as it was before the reader.
    """
    decoder = _Decoder()
    try:
        try:
            return from_document(_Reader(decoder.dec).document(text), decoder)
        except (RecursionError, ValueError):
            # past the reader's frames or marshal's depth limit: the route
            # the reader stands in for, with its outcome
            return from_document(json.loads(text))
    except JSONDecodeError as exc:
        raise _bad_json(exc.msg, exc.pos) from None
    except RecursionError:
        raise ParseError("document nested too deeply") from None


def save(C, path):
    """Write dumps(C) to path piece by piece, never the whole text."""
    with open(path, "w", encoding="utf-8") as fh:
        text = _Text()
        fh.writelines(text.document(to_document(C, text)))
        fh.write("\n")


def load(path):
    """The GrayCat of the *.graycat.json or *.gc file at path.  A document
    is read from the file CHUNK characters at a time, never whole; a *.gc
    text is read whole."""
    try:
        with open(path, encoding="utf-8") as fh:
            if not str(path).endswith(".gc"):
                return _load(fh)
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from None
    return from_document(parse_dsl(text))


def _load(fh):
    """loads(fh.read()) for the text stream fh, read CHUNK characters at a
    time: the reader walks a window of the text and drops what it has
    walked.  Text mode gives the same characters in chunks as whole, so
    universal newlines, a byte order mark and UTF-8 errors read as before.
    """
    decoder = _Decoder()
    try:
        return from_document(
            _Reader(decoder.dec).document("", fh.read), decoder)
    except UnicodeDecodeError:
        raise
    except (RecursionError, ValueError):
        # what loads makes of the whole text, falling back as it does
        fh.seek(0)
        return loads(fh.read())


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
