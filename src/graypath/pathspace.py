"""The path space of a Gray-category.

Cells of path(B) are square diagrams in the base B:

    ('sq', u, g0, g1, f, f1)     u: g1 #0 f => f1 #0 g0;  top f, bottom f1,
                                 left g0, right g1
    ('p2', t, a1, a2, gq, hq)    a1: g0 => h0, a2: g1 => h1 between parallel
                                 squares, and
                                 t: (f1 #0 a1) #1 u_g  =>  u_h #1 (a2 #0 f)
    ('p3', G1, G2, aq, bq)       G1: a1 => b1, G2: a2 => b2; the square of
                                 whiskered 3-cells around them must commute

A path 3-cell stores only (G1, G2) plus its boundary 2-cells; the two
pastings its commuting condition equates are recomputed on construction.

PathView evaluates every operation by formula over any GrayCat-like base,
so the construction iterates; build_pathspace additionally materializes
cells and tables for a finite base.  materialize fills the tables in TABLES
order, and once a table is filled the view's own calls of that operation
read it first, running the formula only for a key it lacks; PathView stays
the formula oracle.  Every identity and table value it stores is the
object C.cells holds for that cell, so each cell is one object.

Every path cell is built by one helper, _cell.  A cell whose base cell is
itself a tuple (a cell of path(path(H)), of the bigon and 3-path spaces,
or of the path space of a loaded path-space document) computes its hash
once, when it is built: a tuple does not cache its hash, and such a cell
has hundreds to thousands of nested nodes, which every dict operation on
it hashed again.  Its hash is the plain tuple's, and it compares, sorts, prints
and serializes as the plain tuple does.  A cell over interned-id base cells
(path(H) of a fixture) stays a plain tuple: hashing its few nodes in C is
cheaper than a Python-level __hash__, and the extra object per cell would
cost memory.

Note on the two whisker readings: the left-whisker display for squares is
rendered ambiguously in places (its legend mixes the names of the outer
square and the moving cell); the formulas below follow the reading forced
by incidence, which the construction-time checks re-verify on every call.
The alternative reading fails those checks on the first nontrivial input.
"""

from __future__ import annotations

import copy
import functools

from .kernel import (TABLES, GrayCat, GrayError, NotComposable, StrictMap,
                     _key_order, composable_keys, fold0, hcomp_left,
                     hcomp_right)
from .resolution import PseudoMap, Q1Layer, q1_normalize, q1_tag, q2_cell, q3_cell


# -- constructors with incidence checks --------------------------------------


class _Hashed(tuple):
    """A path cell that stores its tuple hash when it is built, so that an
    equal plain tuple finds it and is found by it."""

    def __new__(cls, parts):
        self = tuple.__new__(cls, parts)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # a copy or an unpickled cell hashes again: string hashes, and so
        # the stored value, differ from one process to the next
        return _Hashed, (tuple(self),)


def _cell(*parts):
    """The path cell with these parts, tag first: a _Hashed when its base
    cell parts[1] is itself a tuple, else a plain tuple (see the module
    docstring)."""
    return _Hashed(parts) if isinstance(parts[1], tuple) else parts


def sq(B, u, g0, g1, f, f1):
    if B.src(2, u) != B.comp0(g1, f) or B.tgt(2, u) != B.comp0(f1, g0):
        raise NotComposable(f"square 2-cell {u!r} has wrong faces")
    return _cell("sq", u, g0, g1, f, f1)


def src_paste(B, a1, gq):
    """(f1 #0 a1) #1 u_g: the pasting on the source side of a path 2-cell."""
    return B.comp1(B.wl12(gq[5], a1), gq[1])


def tgt_paste(B, a2, hq, top):
    """u_h #1 (a2 #0 f)."""
    return B.comp1(hq[1], B.wr12(a2, top))


def p2(B, t, a1, a2, gq, hq):
    if gq[4] != hq[4] or gq[5] != hq[5]:
        raise NotComposable("path 2-cell needs parallel squares")
    if B.src(2, a1) != gq[2] or B.tgt(2, a1) != hq[2]:
        raise NotComposable("a1 does not connect the left faces")
    if B.src(2, a2) != gq[3] or B.tgt(2, a2) != hq[3]:
        raise NotComposable("a2 does not connect the right faces")
    if (B.src(3, t) != src_paste(B, a1, gq)
            or B.tgt(3, t) != tgt_paste(B, a2, hq, gq[4])):
        raise NotComposable("path 2-cell 3-component has wrong faces")
    return _cell("p2", t, a1, a2, gq, hq)


def p3(B, G1, G2, aq, bq):
    if aq[4] != bq[4] or aq[5] != bq[5]:
        raise NotComposable("path 3-cell needs parallel path 2-cells")
    if B.src(3, G1) != aq[2] or B.tgt(3, G1) != bq[2]:
        raise NotComposable("G1 does not connect the a1 components")
    if B.src(3, G2) != aq[3] or B.tgt(3, G2) != bq[3]:
        raise NotComposable("G2 does not connect the a2 components")
    if not p3_commutes(B, G1, G2, aq, bq):
        raise NotComposable("path 3-cell commuting condition fails")
    return _cell("p3", G1, G2, aq, bq)


def p3_commutes(B, G1, G2, aq, bq):
    """The commuting condition of a path 3-cell with incident components."""
    gq, hq = aq[4], aq[5]
    lhs = B.comp2(bq[1], B.wr23(B.wl13(gq[5], G1), gq[1]))
    rhs = B.comp2(B.wl23(hq[1], B.wr13(G2, gq[4])), aq[1])
    return lhs == rhs


def pdim(c):
    tag = c[0] if isinstance(c, tuple) and c else None
    if tag == "sq":
        return 1
    if tag == "p2":
        return 2
    return 3 if tag == "p3" else 0


def pd0(B, d, c):
    """The source-side projection d0 to the base."""
    if d == 0:
        return B.src(1, c)
    return c[1] if d == 3 else c[2]


def pd1(B, d, c):
    if d == 0:
        return B.tgt(1, c)
    return c[2] if d == 3 else c[3]


def degeneracy(B, d, c):
    """i: the degenerate path cell on a base d-cell."""
    if d == 0:
        return B.ident(0, c)
    if d == 1:
        x, y = B.src(1, c), B.tgt(1, c)
        return sq(B, B.ident(1, c), c, c, B.ident(0, x), B.ident(0, y))
    if d == 2:
        f, g = B.src(2, c), B.tgt(2, c)
        gq, hq = degeneracy(B, 1, f), degeneracy(B, 1, g)
        return p2(B, B.ident(2, c), c, c, gq, hq)
    a, b = B.src(3, c), B.tgt(3, c)
    return p3(B, c, c, degeneracy(B, 2, a), degeneracy(B, 2, b))


def path_map(fn, c):
    """Apply a dimension-indexed base-cell map to a path cell's components."""
    d = pdim(c)
    if d == 0:
        return fn(1, c)
    if d == 1:
        return _cell("sq", fn(2, c[1]), fn(1, c[2]), fn(1, c[3]),
                     fn(1, c[4]), fn(1, c[5]))
    if d == 2:
        return _cell("p2", fn(3, c[1]), fn(2, c[2]), fn(2, c[3]),
                     path_map(fn, c[4]), path_map(fn, c[5]))
    return _cell("p3", fn(3, c[1]), fn(3, c[2]),
                 path_map(fn, c[3]), path_map(fn, c[4]))


class PathView:
    """Formula-level Gray operations on path cells over a base."""

    def __init__(self, base):
        self.base = base
        self.name = f"path({getattr(base, 'name', '?')})"
        self.is_groupoid = getattr(base, "is_groupoid", False)

    # faces and identities

    def src(self, d, c):
        return c[4] if d <= 2 else c[3]

    def tgt(self, d, c):
        return c[5] if d <= 2 else c[4]

    def ident(self, d, c):
        B = self.base
        if d == 0:
            x, y = B.src(1, c), B.tgt(1, c)
            return sq(B, B.ident(1, c), B.ident(0, x), B.ident(0, y), c, c)
        if d == 1:
            return p2(B, B.ident(2, c[1]), B.ident(1, c[2]), B.ident(1, c[3]),
                      c, c)
        if d == 2:
            return p3(B, B.ident(2, c[2]), B.ident(2, c[3]), c, c)
        raise GrayError("no identities above dimension 3")

    def is_id1(self, c):
        return c == self.ident(0, c[4])

    def is_id2(self, c):
        return c == self.ident(1, c[4])

    def is_id3(self, c):
        return c == self.ident(2, c[3])

    # compositions

    def comp0(self, h, g):
        """Vertical pasting, g on top: requires h.top == g.bottom."""
        B = self.base
        if h[4] != g[5]:
            raise NotComposable("path comp0: top/bottom mismatch")
        u = B.comp1(B.wr12(h[1], g[2]), B.wl12(h[3], g[1]))
        return sq(B, u, B.comp0(h[2], g[2]), B.comp0(h[3], g[3]), g[4], h[5])

    def comp1(self, b, a):
        B = self.base
        if b[4] != a[5]:
            raise NotComposable("path comp1: faces mismatch")
        gq, kq = a[4], b[5]
        f, f1 = gq[4], gq[5]
        t = B.comp2(B.wr23(b[1], B.wr12(a[3], f)),
                    B.wl23(B.wl12(f1, b[2]), a[1]))
        return p2(B, t, B.comp1(b[2], a[2]), B.comp1(b[3], a[3]), gq, kq)

    def comp2(self, d3, g3):
        B = self.base
        if d3[3] != g3[4]:
            raise NotComposable("path comp2: faces mismatch")
        return p3(B, B.comp2(d3[1], g3[1]), B.comp2(d3[2], g3[2]),
                  g3[3], d3[4])

    # whiskers

    def wl12(self, k, a):
        """Whisker a path 2-cell by a later square k (k.top == squares' bottom)."""
        B = self.base
        gq, hq = a[4], a[5]
        if k[4] != gq[5]:
            raise NotComposable("path wl12: faces mismatch")
        step1 = B.wr23(B.inv_3(B.tensor(k[1], a[2])), B.wl12(k[3], gq[1]))
        step2 = B.wl23(B.wr12(k[1], hq[2]), B.wl13(k[3], a[1]))
        t = B.comp2(step2, step1)
        return p2(B, t, B.wl12(k[2], a[2]), B.wl12(k[3], a[3]),
                  self.comp0(k, gq), self.comp0(k, hq))

    def wr12(self, b, n):
        """Whisker a path 2-cell by an earlier square n (squares' top == n.bottom)."""
        B = self.base
        kq, mq = b[4], b[5]
        if kq[4] != n[5]:
            raise NotComposable("path wr12: faces mismatch")
        step1 = B.wr23(B.wr13(b[1], n[2]), B.wl12(kq[3], n[1]))
        step2 = B.wl23(B.wr12(mq[1], n[2]), B.tensor(b[3], n[1]))
        t = B.comp2(step2, step1)
        return p2(B, t, B.wr12(b[2], n[2]), B.wr12(b[3], n[3]),
                  self.comp0(kq, n), self.comp0(mq, n))

    def wl13(self, k, g3):
        B = self.base
        return p3(B, B.wl13(k[2], g3[1]), B.wl13(k[3], g3[2]),
                  self.wl12(k, g3[3]), self.wl12(k, g3[4]))

    def wr13(self, g3, n):
        B = self.base
        return p3(B, B.wr13(g3[1], n[2]), B.wr13(g3[2], n[3]),
                  self.wr12(g3[3], n), self.wr12(g3[4], n))

    def wl23(self, c, g3):
        B = self.base
        if c[4] != g3[3][5]:
            raise NotComposable("path wl23: faces mismatch")
        return p3(B, B.wl23(c[2], g3[1]), B.wl23(c[3], g3[2]),
                  self.comp1(c, g3[3]), self.comp1(c, g3[4]))

    def wr23(self, g3, c):
        B = self.base
        if g3[3][4] != c[5]:
            raise NotComposable("path wr23: faces mismatch")
        return p3(B, B.wr23(g3[1], c[2]), B.wr23(g3[2], c[3]),
                  self.comp1(g3[3], c), self.comp1(g3[4], c))

    # horizontal structure

    def tensor(self, b, a):
        B = self.base
        if b[4][4] != a[4][5]:
            raise NotComposable("path tensor: not 0-composable")
        return p3(B, B.tensor(b[2], a[2]), B.tensor(b[3], a[3]),
                  hcomp_left(self, b, a), hcomp_right(self, b, a))

    # inverses

    def inv_2(self, a):
        B = self.base
        gq, hq = a[4], a[5]
        f = gq[4]
        f1 = gq[5]
        ia1, ia2 = B.inv_2(a[2]), B.inv_2(a[3])
        t = B.wl23(B.wl12(f1, ia1), B.wr23(B.inv_3(a[1]), B.wr12(ia2, f)))
        return p2(B, t, ia1, ia2, hq, gq)

    def inv_3(self, g3):
        B = self.base
        return p3(B, B.inv_3(g3[1]), B.inv_3(g3[2]), g3[4], g3[3])

    def inverse(self, d, c):
        """The #1-inverse of a path 2-cell (d = 2) or the #2-inverse of a
        path 3-cell (d = 3), by inv_2 or inv_3; None when the base has no
        inverse for one of the components those formulas invert."""
        B = self.base
        parts = ((3, c[1]), (2, c[2]), (2, c[3])) if d == 2 else \
            ((3, c[1]), (3, c[2]))
        if any(B.inverse(k, x) is None for k, x in parts):
            return None
        return self.inv_2(c) if d == 2 else self.inv_3(c)


# -- enumeration and materialization ------------------------------------------


def path_squares(B, zeros):
    """The squares of path(B) whose top and bottom are in zeros, in the
    order path_cells lists them."""
    ok, dec = set(zeros), {}
    for (g, f), h in _key_order(B.comp0_11):
        dec.setdefault(h, []).append((g, f))
    return [_cell("sq", u, g0, g1, f, f1) for u in B.cells[2]
            for g1, f in dec[B.src(2, u)] if f in ok
            for f1, g0 in dec[B.tgt(2, u)] if f1 in ok]


def path_cells(B, keep=None):
    """The path cells over a finite base, in deterministic order.

    keep(d, c), if given, filters each dimension before the next is built
    from it (squares only between kept 0-cells, and so on up).  For a keep
    closed under faces (a kept cell's source and target are kept), the
    result is the kept subsequence of the unfiltered enumeration, in order.
    """
    zeros = [f for f in B.cells[1] if keep is None or keep(0, f)]
    squares, by_tb = [], {}
    for q in path_squares(B, zeros):
        # a group opens at its first candidate, so filtering keeps its place
        group = by_tb.setdefault((q[4], q[5]), [])
        if keep is None or keep(1, q):
            squares.append(q)
            group.append(q)

    p2s, p3s = [], []
    for group in by_tb.values():
        for gq in group:
            for hq in group:
                cs = []     # the kept path 2-cells from gq to hq
                for a1 in B.between(2, gq[2], hq[2]):
                    sp = src_paste(B, a1, gq)
                    for a2 in B.between(2, gq[3], hq[3]):
                        tp = tgt_paste(B, a2, hq, gq[4])
                        for t in B.between(3, sp, tp):
                            c = _cell("p2", t, a1, a2, gq, hq)
                            if keep is None or keep(2, c):
                                cs.append(c)
                p2s += cs
                for aq in cs:
                    for bq in cs:
                        for G1 in B.between(3, aq[2], bq[2]):
                            for G2 in B.between(3, aq[3], bq[3]):
                                c = _cell("p3", G1, G2, aq, bq)
                                if (p3_commutes(B, G1, G2, aq, bq)
                                        and (keep is None or keep(3, c))):
                                    p3s.append(c)
    return zeros, squares, p2s, p3s


def materialize(view, cells, name=""):
    """Tabulate a GrayCat from a formula view and enumerated closed cell sets.

    The tables are filled in TABLES order.  Once a table is filled, the
    view's own calls of that operation (a whisker's comp0, a tensor's comp1)
    read it first, and run the view's formula only for a key it lacks, which
    raises the formula's NotComposable.  Every identity and table value is
    the object C.cells holds for that cell; a value that is not a listed
    cell raises GrayError.
    """
    c0, c1, c2, c3 = cells
    C = GrayCat(name=name or view.name)
    for c in c0:
        C.add_cell(0, c)
    for c in c1:
        C.add_cell(1, c, view.src(1, c), view.tgt(1, c))
    for c in c2:
        C.add_cell(2, c, view.src(2, c), view.tgt(2, c))
    for c in c3:
        C.add_cell(3, c, view.src(3, c), view.tgt(3, c))

    def place(d, c, what):
        try:
            return C.canonical(d, c)
        except KeyError:
            raise GrayError(f"{name}: {what} produced an unlisted {d}-cell "
                            f"{c!r}") from None

    for d in (0, 1, 2):
        for c in C.cells[d]:
            C.id_up[d][c] = place(d + 1, view.ident(d, c), "identity")

    # a copy of the view whose filled operations read C's tables first
    view = copy.copy(view)
    for table_name, attr, op, _, _, dout in TABLES:
        table, formula = getattr(C, attr), getattr(view, op)
        for l, r in composable_keys(C, op):
            table[(l, r)] = place(dout, formula(l, r), table_name)
        setattr(view, op, functools.partial(_lookup, table, formula))

    if getattr(view, "is_groupoid", False):
        C.is_groupoid = True
        for f in c1:
            for g in C.between(1, C.tgt(1, f), C.src(1, f)):
                if (C.comp0_11.get((g, f)) == C.id_up[0][C.src(1, f)]
                        and C.comp0_11.get((f, g)) == C.id_up[0][C.src(1, g)]):
                    C.inv1[f] = g
                    break
    return C


def _lookup(table, formula, l, r):
    """formula(l, r), read from table when it has the key."""
    try:
        return table[(l, r)]
    except KeyError:
        return formula(l, r)


def build_pathspace(B, name=""):
    """Materialize path(B) as a tabulated Gray-category."""
    view = PathView(B)
    return materialize(view, path_cells(B), name=name or f"path({B.name})")


# -- functoriality ------------------------------------------------------------


def p_functor(F, PH, PK):
    """path(F): path(H) -> path(K) for a strict F, acting componentwise."""
    maps = {d: {} for d in (0, 1, 2, 3)}
    fn = lambda d, c: F.maps[d][c]
    for d in (0, 1, 2, 3):
        for c in PH.cells[d]:
            maps[d][c] = path_map(fn, c) if d > 0 else F.maps[1][c]
    out = StrictMap(PH, PK, maps, name=f"path({F.name})")
    return out


def face_map(PH, H, which):
    """d0 or d1: path(H) -> H as a StrictMap between tabulated categories."""
    proj = pd0 if which == 0 else pd1
    maps = {d: {c: proj(H, d, c) for c in PH.cells[d]} for d in (0, 1, 2, 3)}
    return StrictMap(PH, H, maps, name=f"d{which}({H.name})")


def degeneracy_map(H, PH):
    maps = {d: {c: degeneracy(H, d, c) for c in H.cells[d]} for d in (0, 1, 2, 3)}
    return StrictMap(H, PH, maps, name=f"i({H.name})")


# -- the semi-distributive law ------------------------------------------------


def psi(G, c):
    """psi: Q1(path(G)) -> path(Q1(G)) on a symbolic cell.

    Lists of squares become a single square over Q1 G whose 2-cell is the
    full vertical pasting in G and whose side faces are the lists of side
    1-cells; 2- and 3-cells re-anchor their components to those lists.
    """
    L = Q1Layer(G)
    PV = PathView(G)
    tag = q1_tag(c)
    if tag is None:
        # a 0-cell of Q1(path G): a path-0-cell of path(G), i.e. a 1-cell of G
        return q1_normalize(G, [c], anchor=G.src(1, c))
    if tag == "q1":
        anchor_path = c[1]          # a 1-cell of G
        if not c[2]:
            top = q1_normalize(G, [anchor_path], anchor=G.src(1, anchor_path))
            return PathView(L).ident(0, top)
        entries = list(c[2])        # entries[0] is bottom-most
        fold = fold0(PV, entries)
        lefts = [e[2] for e in entries]
        rights = [e[3] for e in entries]
        left = q1_normalize(G, lefts, anchor=G.src(1, entries[-1][2]))
        right = q1_normalize(G, rights, anchor=G.src(1, entries[-1][3]))
        top = q1_normalize(G, [fold[4]], anchor=G.src(1, fold[4]))
        bot = q1_normalize(G, [fold[5]], anchor=G.src(1, fold[5]))
        lsrc = q1_normalize(G, rights + [fold[4]], anchor=G.src(1, fold[4]))
        ltgt = q1_normalize(G, [fold[5]] + lefts, anchor=G.src(1, entries[-1][2]))
        two = q2_cell(G, fold[1], lsrc, ltgt)
        return sq(L, two, left, right, top, bot)
    if tag == "q2":
        A = c[1]                    # a path 2-cell over G
        gq, hq = psi(G, c[2]), psi(G, c[3])
        a1 = q2_cell(G, A[2], gq[2], hq[2])
        a2 = q2_cell(G, A[3], gq[3], hq[3])
        t = q3_cell(G, A[1], src_paste(L, a1, gq), tgt_paste(L, a2, hq, gq[4]))
        return p2(L, t, a1, a2, gq, hq)
    if tag == "q3":
        Gam = c[1]                  # a path 3-cell over G
        aq, bq = psi(G, c[2]), psi(G, c[3])
        G1 = q3_cell(G, Gam[1], aq[2], bq[2])
        G2 = q3_cell(G, Gam[2], aq[3], bq[3])
        return p3(L, G1, G2, aq, bq)
    raise GrayError(f"not a symbolic cell: {c!r}")


# -- the path-space action on pseudo maps --------------------------------------


class PPrime:
    """P' F: path(dom F) -|-> path(cod F), evaluated cell by cell.

    cell() implements the conjugation-by-cocycle formulas; coc() builds the
    cocycle square whose 3-component is an identity (its two boundary
    pastings agree by the cocycle coherences, asserted on construction).
    """

    def __init__(self, F):
        self.F = F

    def cell(self, d, c):
        """The image of a path d-cell; d is explicit since over an iterated
        base the tuple tag does not determine the path dimension."""
        F = self.F
        H = F.cod
        if d == 0:
            return F(1, c)
        if d == 1:
            two = H.comp1(H.inv_2(F.coc(c[5], c[2])),
                          H.comp1(F(2, c[1]), F.coc(c[3], c[4])))
            return sq(H, two, F(1, c[2]), F(1, c[3]), F(1, c[4]), F(1, c[5]))
        if d == 2:
            gq, hq = self.cell(1, c[4]), self.cell(1, c[5])
            t = H.wl23(H.inv_2(F.coc(c[4][5], c[5][2])),
                       H.wr23(F(3, c[1]), F.coc(c[4][3], c[4][4])))
            return p2(H, t, F(2, c[2]), F(2, c[3]), gq, hq)
        return p3(H, F(3, c[1]), F(3, c[2]),
                  self.cell(2, c[3]), self.cell(2, c[4]))

    def coc(self, h, g):
        """The cocycle at a composable pair of path 1-cells (h after g)."""
        F = self.F
        H = F.cod
        if h[4] != g[5]:
            raise NotComposable("PPrime cocycle: pair not composable")
        a1 = F.coc(h[2], g[2])
        a2 = F.coc(h[3], g[3])
        gq = PathView(H).comp0(self.cell(1, h), self.cell(1, g))
        hq = self.cell(1, PathView(F.dom).comp0(h, g))
        t = H.ident(2, src_paste(H, a1, gq))
        return p2(H, t, a1, a2, gq, hq)

    def as_pseudo_map(self, PG, PH, name=""):
        """Materialized over a tabulated path(dom F)."""
        assign = {d: {c: self.cell(d, c) for c in PG.cells[d]}
                  for d in (0, 1, 2, 3)}
        coc = {}
        for (h, g) in PG.comp0_11:
            coc[(h, g)] = self.coc(h, g)
        return PseudoMap(PG, PH, assign, coc,
                         name=name or f"P({self.F.name})")


def p_on_pseudo(F, PG, PH, name=""):
    return PPrime(F).as_pseudo_map(PG, PH, name=name)
