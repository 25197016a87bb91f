"""The mapping space [G,H] and its restricted cousin {G,H}.

Cells of [G,H] are pseudo maps from G into the stages of the tower over H:
pseudo functors, lax transformations, modifications, perturbations.  The
data is stored componentwise (the validators read off the component
conditions directly); conversion to and from stage-valued pseudo maps is
provided.  Every hom-level operation is post-composition with the
corresponding internal operation, evaluated pointwise: _at reads the tower
cell a cell of [G,H] assigns to a cell of G, and _pointwise_mod and
_pointwise_pert apply one tower operation to two such cells at each 0-cell
(and 1-cell) of G.  hom_graycat builds [G,H] one dimension at a time,
enumerating the d-cells between the parallel (d-1)-cells that [G,H]'s own
face index returns.  Component families
never change once built, so the keys of transformations, modifications and
perturbations, the composite compose_0(b, a), and the conversions
trans_to_pseudo and mod_to_pseudo are built once per argument and kept on
the object they are built from; a construction that raises keeps nothing,
so it raises again on the next call.

Each component is a cell of H between two pastings of the components below
it.  Those boundaries are written once (_t1_faces, _t2_faces, _coc_src,
_coc_tgt, _m1_faces): the enumerators draw each component from the cells
between them, through one product search (_choices), and the incidence laws
check each component against them; neither catches an exception.
"""

from __future__ import annotations

import functools
from itertools import product

from .kernel import (TABLES, CheckReport, GrayCat, Mismatch, StrictMap,
                     _key_order, composable_keys, run_laws)
from .pathspace import PathView, p2, p3, sq, src_paste, tgt_paste
from .highercells import Tower
from .resolution import (PseudoMap, generator_decomposition, kleisli_compose,
                         strict_as_pseudo, strictify, tilde)


# -- component boundaries: (source, target) of each component ------------------


def _t1_faces(F, G, at0, f):
    """The 2-cell component at the 1-cell f: Gf #0 at0[x] => at0[y] #0 Ff."""
    dom, H = F.dom, F.cod
    return (H.comp0(G(1, f), at0[dom.src(1, f)]),
            H.comp0(at0[dom.tgt(1, f)], F(1, f)))


def _t2_faces(F, G, at0, at1, g):
    """The 3-cell component at the 2-cell g: f => f1."""
    dom, H = F.dom, F.cod
    f, f1 = dom.src(2, g), dom.tgt(2, g)
    return (H.comp1(H.wl12(at0[dom.tgt0(2, g)], F(2, g)), at1[f]),
            H.comp1(at1[f1], H.wr12(G(2, g), at0[dom.src0(2, g)])))


def _coc_src(F, G, at0, at1, f2, f1):
    """The source of the cocycle component at the composable (f2, f1)."""
    dom, H = F.dom, F.cod
    paste = H.comp1(H.wr12(at1[f2], F(1, f1)), H.wl12(G(1, f2), at1[f1]))
    return H.comp1(H.wl12(at0[dom.tgt(1, f2)], F.coc(f2, f1)), paste)


def _coc_tgt(F, G, at0, at1, f2, f1):
    """The target of the cocycle component at the composable (f2, f1)."""
    dom, H = F.dom, F.cod
    return H.comp1(at1[dom.comp0(f2, f1)],
                   H.wr12(G.coc(f2, f1), at0[dom.src(1, f1)]))


def _m1_faces(a, b, at0, f):
    """The 3-cell component at the 1-cell f of a modification a => b."""
    dom, H = a.dom, a.H
    return (H.comp1(b.at1[f], H.wl12(a.G(1, f), at0[dom.src(1, f)])),
            H.comp1(H.wr12(at0[dom.tgt(1, f)], a.F(1, f)), a.at1[f]))


# -- component families --------------------------------------------------------


class LaxTransformation:
    """alpha: F => G, stored as (at0, at1, at2, coc) component families.

    at0[x] is a 1-cell Fx -> Gx; at1[f]: Gf #0 at0[x] => at0[y] #0 Ff;
    at2[g] is the 3-cell between the two whiskered pastings; coc[(f2, f1)]
    is the invertible cocycle 3-cell, normalized on identities.  A
    transformation does not change once built, so its key, its composites
    b * self (see compose_0), the square it assigns to each 1-cell (see
    trans_sq) and its path-space pseudo maps (see trans_to_pseudo) are
    built once.
    """

    def __init__(self, F, G, at0, at1, at2=None, coc=None, name=""):
        self.F = F
        self.G = G
        self.dom = F.dom
        self.H = F.cod
        self.at0 = dict(at0)
        self.at1 = dict(at1)
        self.at2 = dict(at2 or {})
        self.coc = dict(coc or {})
        self.name = name
        self._key = None
        self._after = {}    # b -> compose_0(b, self)
        self._pseudo = {}   # PH -> trans_to_pseudo(self, PH)
        self._sq = {}       # f -> trans_sq(self, f)

    def a2(self, g):
        if g in self.at2:
            return self.at2[g]
        if self.dom.is_id2(g):
            return self.H.ident(2, self.at1[self.dom.src(2, g)])
        raise Mismatch(f"missing 2-cell component for {g!r}")

    def acoc(self, f2, f1):
        if (f2, f1) in self.coc:
            return self.coc[(f2, f1)]
        if self.dom.is_id1(f2) or self.dom.is_id1(f1):
            # normalization: the identity 3-cell on the common pasting
            return self.H.ident(2, _coc_src(self.F, self.G, self.at0,
                                            self.at1, f2, f1))
        raise Mismatch(f"missing cocycle component for ({f2!r}, {f1!r})")

    def key(self):
        if self._key is None:
            dom = self.dom
            self._key = ("tr",
                         tuple((x, self.at0[x]) for x in dom.cells[0]),
                         tuple((f, self.at1[f]) for f in dom.cells[1]),
                         tuple((g, self.a2(g)) for g in dom.cells[2]),
                         tuple((p, self.acoc(*p))
                               for p in sorted(composable_keys(dom, "comp0"),
                                               key=repr)))
        return self._key


class Modification:
    """A: alpha => beta with a 2-cell at each 0-cell, a 3-cell at each 1-cell.

    A modification does not change once built, so its key, the bigon it
    assigns to each 0-cell (see mod_bigon), the 2-path it assigns to each
    1-cell (see mod_cell1) and its bigon-space pseudo maps (see
    mod_to_pseudo) are built once.
    """

    def __init__(self, alpha, beta, at0, at1, name=""):
        self.alpha = alpha
        self.beta = beta
        self.dom = alpha.dom
        self.H = alpha.H
        self.at0 = dict(at0)
        self.at1 = dict(at1)
        self.name = name
        self._key = None
        self._bigon = {}    # x -> mod_bigon(self, x)
        self._cell1 = {}    # f -> mod_cell1(self, f)
        self._pseudo = {}   # tower -> mod_to_pseudo(self, tower)

    def a1(self, f):
        if f in self.at1:
            return self.at1[f]
        raise Mismatch(f"missing 1-cell component for {f!r}")

    def key(self):
        if self._key is None:
            self._key = ("mod", self.alpha.key(), self.beta.key(),
                         tuple(sorted(self.at0.items(), key=repr)),
                         tuple(sorted(self.at1.items(), key=repr)))
        return self._key


class Perturbation:
    """sigma: A => B with a 3-cell at each 0-cell.

    A perturbation does not change once built, so its key and the 3-path it
    assigns to each 0-cell of each tower (see pert_square) are built once.
    """

    def __init__(self, A, B, at0, name=""):
        self.A = A
        self.B = B
        self.dom = A.dom
        self.H = A.H
        self.at0 = dict(at0)
        self.name = name
        self._key = None
        self._square = {}   # (tower, x) -> pert_square(self, x, tower)

    def key(self):
        if self._key is None:
            self._key = ("pert", self.A.key(), self.B.key(),
                         tuple(sorted(self.at0.items(), key=repr)))
        return self._key


# -- conversions into the tower stages ------------------------------------------


def trans_sq(t, f):
    """The square a transformation assigns to a 1-cell, built once."""
    if f not in t._sq:
        t._sq[f] = _trans_sq(t, f)
    return t._sq[f]


def _trans_sq(t, f):
    H, dom = t.H, t.dom
    x, y = dom.src(1, f), dom.tgt(1, f)
    return sq(H, t.at1[f], t.F(1, f), t.G(1, f), t.at0[x], t.at0[y])


def trans_p2(t, g):
    H, dom = t.H, t.dom
    f, f1 = dom.src(2, g), dom.tgt(2, g)
    return p2(H, t.a2(g), t.F(2, g), t.G(2, g), trans_sq(t, f), trans_sq(t, f1))


def trans_to_pseudo(t, PH):
    """The path-space-valued pseudo map a transformation amounts to, built
    once per path space."""
    if PH not in t._pseudo:
        t._pseudo[PH] = _trans_to_pseudo(t, PH)
    return t._pseudo[PH]


def _trans_to_pseudo(t, PH):
    H, dom = t.H, t.dom
    V = PathView(H)
    assign = {0: dict(t.at0), 1: {}, 2: {}, 3: {}}
    for f in dom.cells[1]:
        assign[1][f] = trans_sq(t, f)
    for g in dom.cells[2]:
        assign[2][g] = trans_p2(t, g)
    for g3 in dom.cells[3]:
        a, b = dom.src(3, g3), dom.tgt(3, g3)
        assign[3][g3] = p3(H, t.F(3, g3), t.G(3, g3),
                           trans_p2(t, a), trans_p2(t, b))
    coc = {}
    for (f2, f1) in composable_keys(dom, "comp0"):
        gq = V.comp0(assign[1][f2], assign[1][f1])
        hq = assign[1][dom.comp0(f2, f1)]
        coc[(f2, f1)] = p2(H, t.acoc(f2, f1), t.F.coc(f2, f1),
                           t.G.coc(f2, f1), gq, hq)
    return PseudoMap(dom, PH, assign, coc, name=t.name or "transformation")


def pseudo_to_trans(P, F, G):
    """Read the component families off a path-space-valued pseudo map."""
    dom = P.dom
    at0 = dict(P.assignment[0])
    at1 = {f: P(1, f)[1] for f in dom.cells[1]}
    at2 = {g: P(2, g)[1] for g in dom.cells[2]}
    coc = {pair: P.coc(*pair)[1] for pair in composable_keys(dom, "comp0")}
    return LaxTransformation(F, G, at0, at1, at2, coc, name=P.name)


def mod_bigon(A, x):
    """The bigon a modification assigns to a 0-cell."""
    if x not in A._bigon:
        A._bigon[x] = _mod_bigon(A, x)
    return A._bigon[x]


def _mod_bigon(A, x):
    H = A.H
    return sq(H, A.at0[x], H.ident(0, H.src(1, A.alpha.at0[x])),
              H.ident(0, H.tgt(1, A.alpha.at0[x])),
              A.alpha.at0[x], A.beta.at0[x])


def mod_cell1(A, f):
    """The 2-path a modification assigns to a 1-cell; construction checks
    the 2-cell compatibility condition."""
    if f in A._cell1:
        return A._cell1[f]
    H, dom = A.H, A.dom
    PH_view = PathView(H)
    x, y = dom.src(1, f), dom.tgt(1, f)
    asq, bsq = trans_sq(A.alpha, f), trans_sq(A.beta, f)
    T, B = mod_bigon(A, x), mod_bigon(A, y)
    gq = PH_view.comp0(bsq, T)
    hq = PH_view.comp0(B, asq)
    Gf = A.alpha.G(1, f)
    Ff = A.alpha.F(1, f)
    q2 = p2(H, A.a1(f), H.ident(1, Ff), H.ident(1, Gf), gq, hq)
    A._cell1[f] = sq(PH_view, q2, asq, bsq, T, B)
    return A._cell1[f]


def mod_to_pseudo(A, tower):
    """The bigon-space-valued pseudo map, built once per tower; the path
    3-cell constructors enforce the 2-cell and cocycle compatibility
    figures."""
    if tower not in A._pseudo:
        A._pseudo[tower] = _mod_to_pseudo(A, tower)
    return A._pseudo[tower]


def _mod_to_pseudo(A, tower):
    H, dom = A.H, A.dom
    DD = tower.DD
    aP = trans_to_pseudo(A.alpha, tower.PH)
    bP = trans_to_pseudo(A.beta, tower.PH)
    assign = {0: {}, 1: {}, 2: {}, 3: {}}
    for x in dom.cells[0]:
        assign[0][x] = mod_bigon(A, x)
    for f in dom.cells[1]:
        assign[1][f] = mod_cell1(A, f)
    for g in dom.cells[2]:
        f, f1 = dom.src(2, g), dom.tgt(2, g)
        a1, a2 = aP(2, g), bP(2, g)
        gq, hq = assign[1][f], assign[1][f1]
        sp = src_paste(tower.PH, a1, gq)
        tp = tgt_paste(tower.PH, a2, hq, gq[4])
        q3 = p3(H, H.ident(2, A.alpha.F(2, g)),
                H.ident(2, A.alpha.G(2, g)), sp, tp)
        assign[2][g] = p2(tower.PH, q3, a1, a2, gq, hq)
    for g3 in dom.cells[3]:
        a, b = dom.src(3, g3), dom.tgt(3, g3)
        assign[3][g3] = p3(tower.PH, aP(3, g3), bP(3, g3),
                           assign[2][a], assign[2][b])
    coc = {}
    for (f2, f1) in composable_keys(dom, "comp0"):
        acq, bcq = aP.coc(f2, f1), bP.coc(f2, f1)
        gq = tower.PV.comp0(assign[1][f2], assign[1][f1])
        hq = assign[1][dom.comp0(f2, f1)]
        sp = src_paste(tower.PH, acq, gq)
        tp = tgt_paste(tower.PH, bcq, hq, gq[4])
        q3 = p3(H, H.ident(2, A.alpha.F.coc(f2, f1)),
                H.ident(2, A.alpha.G.coc(f2, f1)), sp, tp)
        coc[(f2, f1)] = p2(tower.PH, q3, acq, bcq, gq, hq)
    for d in (0, 1, 2, 3):
        for c, v in assign[d].items():
            if not DD.has_cell(d, v):
                raise Mismatch(f"modification image escapes the bigon space: {c!r}")
    return PseudoMap(dom, DD, assign, coc, name=A.name or "modification")


def pert_square(s, x, tower):
    """The 3-path a perturbation assigns to the 0-cell x: the explicit
    square between the two modification bigons, built once per tower."""
    if (tower, x) not in s._square:
        s._square[(tower, x)] = _pert_square(s, x, tower)
    return s._square[(tower, x)]


def _pert_square(s, x, tower):
    H, PH, V = s.H, tower.PH, tower.V
    T, B = mod_bigon(s.A, x), mod_bigon(s.B, x)
    al0 = s.A.alpha.at0[x]
    be0 = s.A.beta.at0[x]
    W0, W1 = PH.ident(0, al0), PH.ident(0, be0)
    x0, y0 = H.src(1, al0), H.tgt(1, al0)
    q2 = p2(H, s.at0[x], H.ident(1, H.ident(0, x0)),
            H.ident(1, H.ident(0, y0)), V.comp0(W1, T), V.comp0(B, W0))
    out = sq(PH, q2, W0, W1, T, B)
    if not tower.DDD.has_cell(0, out):
        raise Mismatch(f"perturbation square at {x!r} escapes 3-paths")
    return out


def pert_to_pseudo(s, tower):
    """The 3-path-valued pseudo map of a perturbation.

    Dimension 0 is pert_square; everything higher is the unique filler over
    its (dj0, dj1) image, which exists and is unique by the 1-Cartesianness
    of the projection.
    """
    dom = s.dom
    Amap = mod_to_pseudo(s.A, tower)
    Bmap = mod_to_pseudo(s.B, tower)
    assign = {0: {x: pert_square(s, x, tower) for x in dom.cells[0]},
              1: {}, 2: {}, 3: {}}
    for d in (1, 2, 3):
        for c in dom.cells[d]:
            assign[d][c] = tower.filler(d, assign[d - 1][dom.src(d, c)],
                                        assign[d - 1][dom.tgt(d, c)],
                                        Amap(d, c), Bmap(d, c))
    coc = {}
    for (f2, f1) in composable_keys(dom, "comp0"):
        gq = PathView(tower.DD).comp0(assign[1][f2], assign[1][f1])
        hq = assign[1][dom.comp0(f2, f1)]
        coc[(f2, f1)] = tower.filler(2, gq, hq, Amap.coc(f2, f1),
                                     Bmap.coc(f2, f1))
    return PseudoMap(dom, tower.DDD, assign, coc, name=s.name or "perturbation")


# -- componentwise validators ----------------------------------------------------


def validate_transformation(t):
    """The five condition families, read componentwise.

    The three whisker/cocycle figures are implemented with the whiskering
    contexts forced by incidence; the conversion to a path-valued pseudo
    map provides an independent second route exercised by the tests.
    """
    dom, H = t.dom, t.H
    F, G = t.F, t.G

    def incidence():
        for x in dom.cells[0]:
            a = t.at0.get(x)
            ok = (a is not None and H.src(1, a) == F(0, x)
                  and H.tgt(1, a) == G(0, x))
            yield ok, ("component-0", x)
        for f in dom.cells[1]:
            u = t.at1.get(f)
            yield (H.has_cell(2, u) and (H.src(2, u), H.tgt(2, u))
                   == _t1_faces(F, G, t.at0, f)), ("component-1", f)
        for g in dom.cells[2]:
            u = t.a2(g) if g in t.at2 or dom.is_id2(g) else None
            yield (H.has_cell(3, u) and (H.src(3, u), H.tgt(3, u))
                   == _t2_faces(F, G, t.at0, t.at1, g)), ("component-2", g)

    def unit():
        for x in dom.cells[0]:
            f = dom.ident(0, x)
            yield t.at1[f] == H.ident(1, t.at0[x]), ("unit-1", x)
        for f in dom.cells[1]:
            g = dom.ident(1, f)
            yield t.a2(g) == H.ident(2, t.at1[f]), ("unit-2", f)

    def three_cell_square():
        for g3 in dom.cells[3]:
            g, g1 = dom.src(3, g3), dom.tgt(3, g3)
            f, f1 = dom.src(2, g), dom.tgt(2, g)
            x, y = dom.src0(2, g), dom.tgt0(2, g)
            lhs = H.comp2(t.a2(g1),
                          H.wr23(H.wl13(t.at0[y], F(3, g3)), t.at1[f]))
            rhs = H.comp2(H.wl23(t.at1[f1], H.wr13(G(3, g3), t.at0[x])),
                          t.a2(g))
            yield lhs == rhs, ("three-cell-square", g3)

    def vertical_composite():
        for (g1, g), _ in _key_order(dom.comp1_22):
            x, y = dom.src0(2, g), dom.tgt0(2, g)
            lhs = t.a2(dom.comp1(g1, g))
            step1 = H.wl23(H.wl12(t.at0[y], F(2, g1)), t.a2(g))
            step2 = H.wr23(t.a2(g1), H.wr12(G(2, g), t.at0[x]))
            yield lhs == H.comp2(step2, step1), ("vertical-composite", g1, g)

    def cocycle_conditions():
        for (f2, f1) in composable_keys(dom, "comp0"):
            c = t.acoc(f2, f1)
            faces = (_coc_src(F, G, t.at0, t.at1, f2, f1),
                     _coc_tgt(F, G, t.at0, t.at1, f2, f1))
            yield (H.src(3, c), H.tgt(3, c)) == faces, \
                ("cocycle-faces", f2, f1)
            yield H.inverse(3, c) is not None, \
                ("cocycle-invertible", f2, f1)
            if dom.is_id1(f2) or dom.is_id1(f1):
                yield H.is_id3(c), ("cocycle-normalized", f2, f1)
        # the hexagonal cocycle condition on composable triples
        for c_ in dom.cells[1]:
            for b_ in dom.by_tgt(1, dom.src(1, c_)):
                for a_ in dom.by_tgt(1, dom.src(1, b_)):
                    yield _hexagon(t, c_, b_, a_), ("cocycle-hexagon", c_, b_, a_)

    def whisker_compat():
        for gam, f in composable_keys(dom, "wr12"):
            yield _whisker_left(t, gam, f), ("whisker-left", gam, f)
        for g, delt in composable_keys(dom, "wl12"):
            yield _whisker_right(t, g, delt), ("whisker-right", g, delt)

    return run_laws([
        ("transformation-incidence", incidence()),
        ("transformation-units", unit()),
        ("three-cell-square", three_cell_square()),
        ("vertical-composites", vertical_composite()),
        ("cocycle-condition", cocycle_conditions()),
        ("whisker-compatibility", whisker_compat()),
    ])


def _hexagon(t, c, b, a):
    """alpha^2 coherence on the composable triple (c, b, a)."""
    dom, H, F, G = t.dom, t.H, t.F, t.G
    w = dom.tgt(1, c)
    x = dom.src(1, a)
    ba = dom.comp0(b, a)
    cb = dom.comp0(c, b)
    X1 = H.wl12(t.at0[w], F.coc(c, ba))
    Y1 = H.wl12(G(1, c), H.comp1(H.wr12(t.at1[b], F(1, a)),
                                 H.wl12(G(1, b), t.at1[a])))
    L1 = H.wl23(X1, H.wr23(H.inv_3(H.tensor(t.at1[c], F.coc(b, a))), Y1))
    L2 = H.wl23(H.comp1(X1, H.wr12(t.at1[c], F(1, ba))),
                H.wl13(G(1, c), t.acoc(b, a)))
    L3 = H.wr23(t.acoc(c, ba), H.wl12(G(1, c), H.wr12(G.coc(b, a), t.at0[x])))
    lhs = H.comp2(L3, H.comp2(L2, L1))

    X2 = H.wl12(t.at0[w], F.coc(cb, a))
    Y2 = H.wl12(G(1, c), H.wl12(G(1, b), t.at1[a]))
    R1 = H.wl23(X2, H.wr23(H.wr13(t.acoc(c, b), F(1, a)), Y2))
    R2 = H.wl23(H.comp1(X2, H.wr12(t.at1[cb], F(1, a))),
                H.tensor(G.coc(c, b), t.at1[a]))
    R3 = H.wr23(t.acoc(cb, a),
                H.wr12(G.coc(c, b), H.comp0(G(1, a), t.at0[x])))
    rhs = H.comp2(R3, H.comp2(R2, R1))
    return lhs == rhs


def _whisker_left(t, gam, f):
    """Compatibility of the cocycle with left whiskers gam #0 f."""
    dom, H, F, G = t.dom, t.H, t.F, t.G
    g, g1 = dom.src(2, gam), dom.tgt(2, gam)
    z = dom.tgt(1, g)
    x = dom.src(1, f)
    X = H.wl12(t.at0[z], F.coc(g1, f))
    s1 = H.wl23(X, H.wr23(H.wr13(t.a2(gam), F(1, f)),
                          H.wl12(G(1, g), t.at1[f])))
    s2 = H.wl23(H.comp1(X, H.wr12(t.at1[g1], F(1, f))),
                H.tensor(G(2, gam), t.at1[f]))
    s3 = H.wr23(t.acoc(g1, f),
                H.wr12(G(2, gam), H.comp0(G(1, f), t.at0[x])))
    lhs = H.comp2(s3, H.comp2(s2, s1))
    r1 = H.wl23(H.wl12(t.at0[z], F(2, dom.wr12(gam, f))), t.acoc(g, f))
    r2 = H.wr23(t.a2(dom.wr12(gam, f)), H.wr12(G.coc(g, f), t.at0[x]))
    rhs = H.comp2(r2, r1)
    return lhs == rhs


def _whisker_right(t, g, delt):
    """Compatibility of the cocycle with right whiskers g #0 delt."""
    dom, H, F, G = t.dom, t.H, t.F, t.G
    f, f1 = dom.src(2, delt), dom.tgt(2, delt)
    z = dom.tgt(1, g)
    x = dom.src0(2, delt)
    X = H.wl12(t.at0[z], F.coc(g, f1))
    s1 = H.wl23(X, H.wr23(H.inv_3(H.tensor(t.at1[g], F(2, delt))),
                          H.wl12(G(1, g), t.at1[f])))
    s2 = H.wl23(H.comp1(X, H.wr12(t.at1[g], F(1, f1))),
                H.wl13(G(1, g), t.a2(delt)))
    s3 = H.wr23(t.acoc(g, f1),
                H.wl12(G(1, g), H.wr12(G(2, delt), t.at0[x])))
    lhs = H.comp2(s3, H.comp2(s2, s1))
    r1 = H.wl23(H.wl12(t.at0[z], F(2, dom.wl12(g, delt))), t.acoc(g, f))
    r2 = H.wr23(t.a2(dom.wl12(g, delt)), H.wr12(G.coc(g, f), t.at0[x]))
    rhs = H.comp2(r2, r1)
    return lhs == rhs


def validate_modification(A):
    """Unit, cocycle compatibility, 2-cell compatibility."""
    dom, H = A.dom, A.H
    al, be = A.alpha, A.beta
    F, G = al.F, al.G

    def incidence():
        for x in dom.cells[0]:
            a = A.at0.get(x)
            ok = (a is not None and H.src(2, a) == al.at0[x]
                  and H.tgt(2, a) == be.at0[x])
            yield ok, ("component-0", x)
        for f in dom.cells[1]:
            c = A.at1.get(f)
            yield (c is not None and _m1_faces(al, be, A.at0, f)
                   == (H.src(3, c), H.tgt(3, c))), ("component-1", f)

    def unit():
        for x in dom.cells[0]:
            f = dom.ident(0, x)
            yield A.a1(f) == H.ident(2, A.at0[x]), ("unit", x)

    def two_cell_compat():
        for g in dom.cells[2]:
            f, f1 = dom.src(2, g), dom.tgt(2, g)
            x, y = dom.src0(2, g), dom.tgt0(2, g)
            l1 = H.wl23(H.wl12(be.at0[y], F(2, g)), A.a1(f))
            l2 = H.wr23(H.inv_3(H.tensor(A.at0[y], F(2, g))), al.at1[f])
            l3 = H.wl23(H.wr12(A.at0[y], F(1, f1)), al.a2(g))
            lhs = H.comp2(l3, H.comp2(l2, l1))
            r1 = H.wr23(be.a2(g), H.wl12(G(1, f), A.at0[x]))
            r2 = H.wl23(be.at1[f1], H.tensor(G(2, g), A.at0[x]))
            r3 = H.wr23(A.a1(f1), H.wr12(G(2, g), al.at0[x]))
            rhs = H.comp2(r3, H.comp2(r2, r1))
            yield lhs == rhs, ("two-cell-compatibility", g)

    def cocycle_compat():
        for (f2, f1) in composable_keys(dom, "comp0"):
            x = dom.src(1, f1)
            z = dom.tgt(1, f2)
            F2 = F.coc(f2, f1)
            G2 = G.coc(f2, f1)
            f21 = dom.comp0(f2, f1)
            s1 = H.wl23(H.comp1(H.wl12(be.at0[z], F2),
                                H.wr12(be.at1[f2], F(1, f1))),
                        H.wl13(G(1, f2), A.a1(f1)))
            s2 = H.wl23(H.wl12(be.at0[z], F2),
                        H.wr23(H.wr13(A.a1(f2), F(1, f1)),
                               H.wl12(G(1, f2), al.at1[f1])))
            s3 = H.wr23(H.inv_3(H.tensor(A.at0[z], F2)),
                        H.comp1(H.wr12(al.at1[f2], F(1, f1)),
                                H.wl12(G(1, f2), al.at1[f1])))
            s4 = H.wl23(H.wr12(A.at0[z], F(1, f21)), al.acoc(f2, f1))
            lhs = H.comp2(s4, H.comp2(s3, H.comp2(s2, s1)))
            s5 = H.wr23(be.acoc(f2, f1),
                        H.wl12(G(1, f2), H.wl12(G(1, f1), A.at0[x])))
            s6 = H.wl23(be.at1[f21], H.tensor(G2, A.at0[x]))
            s7 = H.wr23(A.a1(f21), H.wr12(G2, al.at0[x]))
            rhs = H.comp2(s7, H.comp2(s6, s5))
            yield lhs == rhs, ("cocycle-compatibility", f2, f1)

    return run_laws([
        ("modification-incidence", incidence()),
        ("modification-units", unit()),
        ("two-cell-compatibility", two_cell_compat()),
        ("cocycle-compatibility", cocycle_compat()),
    ])


def validate_perturbation(s):
    """The single commuting square at every 1-cell."""
    dom, H = s.dom, s.H
    A, B = s.A, s.B
    al, be = A.alpha, A.beta
    F, G = al.F, al.G

    def incidence():
        for x in dom.cells[0]:
            c = s.at0.get(x)
            yield (c is not None and H.src(3, c) == A.at0[x]
                   and H.tgt(3, c) == B.at0[x]), ("component-0", x)

    def square():
        for f in dom.cells[1]:
            x, y = dom.src(1, f), dom.tgt(1, f)
            lhs = H.comp2(B.a1(f), H.wl23(be.at1[f], H.wl13(G(1, f), s.at0[x])))
            rhs = H.comp2(H.wr23(H.wr13(s.at0[y], F(1, f)), al.at1[f]), A.a1(f))
            yield lhs == rhs, ("perturbation-square", f)

    return run_laws([
        ("perturbation-incidence", incidence()),
        ("perturbation-square", square()),
    ])


# -- composition ---------------------------------------------------------------


def compose_0(b, a):
    """b * a, by the componentwise pasting formulas, built once per pair."""
    if b not in a._after:
        a._after[b] = _compose_0(b, a)
    return a._after[b]


def _compose_0(b, a):
    if a.G is not b.F and a.G.assignment != b.F.assignment:
        raise Mismatch("compose_0: endpoints do not match")
    dom, H = a.dom, a.H
    at0 = {x: H.comp0(b.at0[x], a.at0[x]) for x in dom.cells[0]}
    at1 = {}
    for f in dom.cells[1]:
        x, y = dom.src(1, f), dom.tgt(1, f)
        at1[f] = H.comp1(H.wl12(b.at0[y], a.at1[f]),
                         H.wr12(b.at1[f], a.at0[x]))
    at2 = {}
    for g in dom.cells[2]:
        f, f1 = dom.src(2, g), dom.tgt(2, g)
        x, y = dom.src0(2, g), dom.tgt0(2, g)
        stepAB = H.wr23(H.wl13(b.at0[y], a.a2(g)), H.wr12(b.at1[f], a.at0[x]))
        stepBC = H.wl23(H.wl12(b.at0[y], a.at1[f1]),
                        H.wr13(b.a2(g), a.at0[x]))
        at2[g] = H.comp2(stepBC, stepAB)
    coc = {}
    F, K = a.F, b.G
    for (f2, f1) in composable_keys(dom, "comp0"):
        x = dom.src(1, f1)
        z = dom.tgt(1, f2)
        f21 = dom.comp0(f2, f1)
        L = H.comp1(H.wl12(b.at0[z], H.wl12(a.at0[z], F.coc(f2, f1))),
                    H.wl12(b.at0[z], H.wr12(a.at1[f2], F(1, f1))))
        R = H.wl12(K(1, f2), H.wr12(b.at1[f1], a.at0[x]))
        zA = H.wl23(L, H.wr23(H.tensor(b.at1[f2], a.at1[f1]), R))
        ctx = H.wr12(H.comp1(H.wr12(b.at1[f2], a.G(1, f1)),
                             H.wl12(K(1, f2), b.at1[f1])), a.at0[x])
        aB = H.wr23(H.wl13(b.at0[z], a.acoc(f2, f1)), ctx)
        bC = H.wl23(H.wl12(b.at0[z], a.at1[f21]),
                    H.wr13(b.acoc(f2, f1), a.at0[x]))
        coc[(f2, f1)] = H.comp2(bC, H.comp2(aB, zA))
    return LaxTransformation(a.F, b.G, at0, at1, at2, coc,
                             name=f"{b.name}*{a.name}")


def compose_0_oracle(b, a, PH, K, m):
    """m o <b, a> through the path-space machinery, as a transformation."""
    bp = trans_to_pseudo(b, PH)
    ap = trans_to_pseudo(a, PH)
    dom = a.dom
    assign = {d: {c: (bp(d, c), ap(d, c)) for c in dom.cells[d]}
              for d in (0, 1, 2, 3)}
    coc = {}
    for pair in composable_keys(dom, "comp0"):
        coc[pair] = (bp.coc(*pair), ap.coc(*pair))
    pairing = PseudoMap(dom, K, assign, coc, name="<b,a>")
    comp = kleisli_compose(m, pairing)
    return pseudo_to_trans(comp, a.F, b.G)


def identity_transformation(F):
    """i o F: the identity transformation on a pseudo functor."""
    dom, H = F.dom, F.cod
    at0 = {x: H.ident(0, F(0, x)) for x in dom.cells[0]}
    at1 = {f: H.ident(1, F(1, f)) for f in dom.cells[1]}
    at2 = {g: H.ident(2, F(2, g)) for g in dom.cells[2]}
    coc = {}
    for (f2, f1) in composable_keys(dom, "comp0"):
        coc[(f2, f1)] = H.ident(2, F.coc(f2, f1))
    return LaxTransformation(F, F, at0, at1, at2, coc, name=f"id({F.name})")


def is_stiff(t):
    return all(t.H.is_id3(t.acoc(*pair))
               for pair in composable_keys(t.dom, "comp0"))


# -- whiskering by functors (the sesquicategory structure) ----------------------


def precompose(t, E):
    """t o E for a strict E into t's domain."""
    dom2 = E.dom
    at0 = {x: t.at0[E.maps[0][x]] for x in dom2.cells[0]}
    at1 = {f: t.at1[E.maps[1][f]] for f in dom2.cells[1]}
    at2 = {g: t.a2(E.maps[2][g]) for g in dom2.cells[2]}
    coc = {}
    for (f2, f1) in composable_keys(dom2, "comp0"):
        coc[(f2, f1)] = t.acoc(E.maps[1][f2], E.maps[1][f1])
    F2 = kleisli_compose(t.F, strict_as_pseudo(E))
    G2 = kleisli_compose(t.G, strict_as_pseudo(E))
    return LaxTransformation(F2, G2, at0, at1, at2, coc, name=f"{t.name}oE")


def postcompose(K, t):
    """K o t for a strict K out of t's codomain."""
    dom = t.dom
    at0 = {x: K.maps[1][t.at0[x]] for x in dom.cells[0]}
    at1 = {f: K.maps[2][t.at1[f]] for f in dom.cells[1]}
    at2 = {g: K.maps[3][t.a2(g)] for g in dom.cells[2]}
    coc = {pair: K.maps[3][t.acoc(*pair)]
           for pair in composable_keys(dom, "comp0")}
    F2 = kleisli_compose(strict_as_pseudo(K), t.F)
    G2 = kleisli_compose(strict_as_pseudo(K), t.G)
    return LaxTransformation(F2, G2, at0, at1, at2, coc, name=f"Ko{t.name}")


# -- enumeration -----------------------------------------------------------------


def _take(found, cap):
    """At most cap items of found, and the enumeration-cap report: it fails
    when found has more, and then found is not run further."""
    out = []
    for item in found:
        if len(out) == cap:
            return out, [CheckReport("enumeration-cap", "fail", cap,
                                     ("CapExceeded", cap))]
        out.append(item)
    return out, [CheckReport("enumeration-cap", "pass", len(out))]


def enumerate_strict_functors(G, H, cap=100000):
    """All strict Gray-functors G -> H, exhaustively, in deterministic order."""
    return _take(_strict_functors(G, H), cap)


def _choices(cells, options):
    """One dict per choice of an option for each of cells, in product
    order: none when some cell has no option, and options(c) is not asked
    for the cells after it."""
    opts = []
    for c in cells:
        opts.append(options(c))
        if not opts[-1]:
            return
    for pick in product(*opts):
        yield dict(zip(cells, pick))


def _strict_functors(G, H):
    def images(d, below):
        """A d-cell's options: the identity on its source's image when it is
        an identity, else the d-cells between its faces' images."""
        def options(c):
            s = G.src(d, c)
            if G.id_up[d - 1].get(s) == c:
                return [H.ident(d - 1, below[s])]
            return H.between(d, below[s], below[G.tgt(d, c)])
        return options

    for ob in _choices(G.cells[0], lambda x: H.cells[0]):
        for mor in _choices(G.cells[1], images(1, ob)):
            if any(mor[h] != H.comp0_11.get((mor[g], mor[f]))
                   for (g, f), h in G.comp0_11.items()):
                continue
            for two in _choices(G.cells[2], images(2, mor)):
                for three in _choices(G.cells[3], images(3, two)):
                    cand = StrictMap(G, H, {0: ob, 1: mor, 2: two, 3: three})
                    if not cand.violations():
                        yield cand


def enumerate_transformations(F, G, cap=100000):
    """All valid transformations F => G, with validators applied."""
    return _take(_transformations(F, G), cap)


def _transformations(F, G):
    dom, H = F.dom, F.cod
    pairs = [p for p in composable_keys(dom, "comp0")
             if not (dom.is_id1(p[0]) or dom.is_id1(p[1]))]

    def ones(at0, f):
        if dom.is_id1(f):
            return [H.ident(1, at0[dom.src(1, f)])]
        return H.between(2, *_t1_faces(F, G, at0, f))

    def twos(at0, at1, g):
        opts = H.between(3, *_t2_faces(F, G, at0, at1, g))
        if dom.is_id2(g):
            ideal = H.ident(2, at1[dom.src(2, g)])
            return [u for u in opts if u == ideal]
        return opts

    for at0 in _choices(dom.cells[0],
                        lambda x: H.between(1, F(0, x), G(0, x))):
        for at1 in _choices(dom.cells[1], lambda f: ones(at0, f)):
            # the cocycle options do not depend on at2: each pair's are
            # found on the first at2 that asks for them, and kept
            cocs = functools.cache(lambda p: H.between(
                3, _coc_src(F, G, at0, at1, *p), _coc_tgt(F, G, at0, at1, *p)))
            for at2 in _choices(dom.cells[2], lambda g: twos(at0, at1, g)):
                for coc in _choices(pairs, cocs):
                    t = LaxTransformation(F, G, at0, at1, at2, coc)
                    if all(r.ok for r in validate_transformation(t)):
                        yield t


def enumerate_modifications(a, b, cap=100000):
    """All valid modifications a => b between parallel transformations."""
    return _take(_modifications(a, b), cap)


def _modifications(a, b):
    dom, H = a.dom, a.H
    for at0 in _choices(dom.cells[0],
                        lambda x: H.between(2, a.at0[x], b.at0[x])):
        for at1 in _choices(dom.cells[1], lambda f: H.between(
                3, *_m1_faces(a, b, at0, f))):
            A = Modification(a, b, at0, at1)
            if all(r.ok for r in validate_modification(A)):
                yield A


def enumerate_perturbations(A, B, cap=100000):
    """All valid perturbations A => B between parallel modifications."""
    return _take(_perturbations(A, B), cap)


def _perturbations(A, B):
    dom, H = A.dom, A.H
    for at0 in _choices(dom.cells[0],
                        lambda x: H.between(3, A.at0[x], B.at0[x])):
        s = Perturbation(A, B, at0)
        if all(r.ok for r in validate_perturbation(s)):
            yield s


# -- rho: comparison with the strictification -----------------------------------


def rho(F):
    """The identity-on-objects comparison F => strictify(F) for 1-free dom."""
    dom, H = F.dom, F.cod
    words = generator_decomposition(dom)
    W = tilde(F)
    s = strictify(F)
    at0 = {x: H.ident(0, F(0, x)) for x in dom.cells[0]}
    at1 = {}
    for f in dom.cells[1]:
        lst = ("q1", dom.src(1, f), words[f])
        at1[f] = W.kappa_image(lst)
    at2 = {}
    for g in dom.cells[2]:
        f = dom.src(2, g)
        at2[g] = H.ident(2, H.comp1(F(2, g), at1[f]))
    coc = {(f2, f1): H.ident(2, _coc_src(F, s, at0, at1, f2, f1))
           for (f2, f1) in composable_keys(dom, "comp0")}
    return LaxTransformation(F, s, at0, at1, at2, coc, name=f"rho({F.name})")


# -- hom-level operations through the tower --------------------------------------


def _at(x, d, c, tower):
    """The tower cell the transformation, modification or perturbation x
    assigns to the d-cell c of its domain: a path cell, a bigon or a 3-path."""
    if isinstance(x, LaxTransformation):
        return trans_sq(x, c) if d else x.at0[c]
    if isinstance(x, Modification):
        return mod_cell1(x, c) if d else mod_bigon(x, c)
    return pert_square(x, c, tower)


def _pointwise_mod(op, b, a, alpha, beta, tower, name):
    """The modification alpha => beta whose components are the tower
    operation op on b's and a's cells, at each 0-cell and each 1-cell."""
    dom = alpha.dom

    def on(d, c):
        return op(d, _at(b, d, c, tower), _at(a, d, c, tower))[1]

    return Modification(alpha, beta, {x: on(0, x) for x in dom.cells[0]},
                        {f: on(1, f)[1] for f in dom.cells[1]}, name=name)


def _pointwise_pert(op, b, a, A, B, tower, name):
    """The perturbation A => B whose component at each 0-cell is the tower
    operation op on b's and a's cells there."""
    at0 = {x: op(0, _at(b, 0, x, tower), _at(a, 0, x, tower))[1][1]
           for x in A.dom.cells[0]}
    return Perturbation(A, B, at0, name=name)


def compose_mods(B, A, tower):
    """B *1 A: vertical composite of modifications, by mbar pointwise."""
    return _pointwise_mod(tower.mbar, B, A, A.alpha, B.beta, tower,
                          f"{B.name}*1{A.name}")


def compose_perts(s2, s1, tower):
    """s2 *2 s1 through mbarbar pointwise."""
    return _pointwise_pert(tower.mbarbar, s2, s1, s1.A, s2.B, tower,
                           f"{s2.name}*2{s1.name}")


def whisker_trans_mod(g, A, tower):
    """g #0 A: whisker a modification by a later transformation."""
    return _pointwise_mod(tower.w_r, g, A, compose_0(g, A.alpha),
                          compose_0(g, A.beta), tower, f"{g.name}#0{A.name}")


def whisker_mod_trans(A, g, tower):
    """A #0 g: whisker a modification by an earlier transformation."""
    return _pointwise_mod(tower.w_l, A, g, compose_0(A.alpha, g),
                          compose_0(A.beta, g), tower, f"{A.name}#0{g.name}")


def whisker_trans_pert(g, s, tower):
    """g #0 sigma, through the 3-path whiskers."""
    return _pointwise_pert(tower.wbar_r, g, s, whisker_trans_mod(g, s.A, tower),
                           whisker_trans_mod(g, s.B, tower), tower,
                           "whiskered-pert")


def whisker_pert_trans(s, g, tower):
    """sigma #0 g, through the 3-path whiskers."""
    return _pointwise_pert(tower.wbar_l, s, g, whisker_mod_trans(s.A, g, tower),
                           whisker_mod_trans(s.B, g, tower), tower,
                           "whiskered-pert")


def whisker_mod_pert(B, s, tower):
    """B #1 sigma, through the 2-on-3 whiskers."""
    return _pointwise_pert(tower.wtil_r, B, s, compose_mods(B, s.A, tower),
                           compose_mods(B, s.B, tower), tower,
                           "whiskered-pert-2")


def whisker_pert_mod(s, B, tower):
    """sigma #1 B, through the 2-on-3 whiskers."""
    return _pointwise_pert(tower.wtil_l, s, B, compose_mods(s.A, B, tower),
                           compose_mods(s.B, B, tower), tower,
                           "whiskered-pert-2")


def tensor_mods(B, A, tower):
    """B (x) A for modifications 0-composable at a functor."""
    return _pointwise_pert(tower.tensor_t, B, A, hom_hl_mod(B, A, tower),
                           hom_hr_mod(B, A, tower), tower, "tensor-mods")


def hom_hl_mod(B, A, tower):
    """The left horizontal composite of two 0-composable modifications."""
    return _pointwise_mod(tower.h_l, B, A, compose_0(B.alpha, A.alpha),
                          compose_0(B.beta, A.beta), tower, "hl")


def hom_hr_mod(B, A, tower):
    """The right horizontal composite of two 0-composable modifications."""
    return _pointwise_mod(tower.h_r, B, A, compose_0(B.alpha, A.alpha),
                          compose_0(B.beta, A.beta), tower, "hr")


# -- the mapping space as a tabulated Gray-category -------------------------------


def functor_key(F):
    """The object of [G,H] a strict functor F is: its 1-cell images, then
    its images of the non-identity 2- and 3-cells when there are any.

    F sends identities to identities, and each 0-cell to the source of its
    identity 1-cell's image, so this determines every dimension of F; on a
    domain with no non-identity 2- or 3-cells it is the 1-cell part alone.
    """
    dom = F.dom
    k = ("fun", tuple(sorted(F.assignment[1].items(), key=repr)))
    higher = tuple((2, a, F(2, a)) for a in dom.cells[2] if not dom.is_id2(a)) \
        + tuple((3, g, F(3, g)) for g in dom.cells[3] if not dom.is_id3(g))
    return k + (higher,) if higher else k


def hom_graycat(G, H, cap=100000):
    """[G,H] materialized, with every operation installed.

    Feasible at desk scale; every enumeration is capped, and a hit cap is
    a failing report.  The objects are the strict functors G -> H, as
    pseudo functors with trivial cocycles; each dimension d = 1, 2, 3 is
    enumerated between the ordered pairs of parallel (d-1)-cells, which
    [G,H]'s own face index gives.  Every enumerated cell is converted into
    its tower stage once, which runs the conversion's construction checks.
    Returns (graycat, registry, reports) where registry maps cell keys back
    to the componentwise objects.
    """
    tower = Tower(H)
    funs, reports = enumerate_strict_functors(G, H, cap)
    # pseudo functors with nontrivial cocycles exist between the shipped
    # fixtures (PAIR into path(TWIST) has one) and are not objects yet
    C = GrayCat(name=f"[{G.name},{H.name}]")
    reg = {}

    def add(d, k, obj, src=None, tgt=None):
        if not C.has_cell(d, k):
            C.add_cell(d, k, src, tgt)
            reg[k] = obj
        return k

    def convert(t, tw):
        return trans_to_pseudo(t, tw.PH)

    for F in map(strict_as_pseudo, funs):
        add(0, functor_key(F), F)
    stages = ((enumerate_transformations, convert),
              (enumerate_modifications, mod_to_pseudo),
              (enumerate_perturbations, pert_to_pseudo))
    for d, (enumerate_cells, to_tower) in enumerate(stages, 1):
        # listed before the first add_cell, which drops the face index
        if d == 1:
            pairs = [(a, b) for a in C.cells[0] for b in C.cells[0]]
        else:
            pairs = [(a, b) for a in C.cells[d - 1] for b in
                     C.between(d - 1, C.src(d - 1, a), C.tgt(d - 1, a))]
        for a, b in pairs:
            cells, reps = enumerate_cells(reg[a], reg[b], cap)
            reports.extend(r for r in reps if not r.ok)
            for c in cells:
                to_tower(c, tower)
                add(d, c.key(), c, a, b)

    for k in C.cells[0]:
        C.id_up[0][k] = identity_transformation(reg[k]).key()
    for k in C.cells[1]:
        t = reg[k]
        C.id_up[1][k] = Modification(
            t, t, {x: H.ident(1, t.at0[x]) for x in t.dom.cells[0]},
            {f: H.ident(2, t.at1[f]) for f in t.dom.cells[1]}, name="id").key()
    for k in C.cells[2]:
        A = reg[k]
        C.id_up[2][k] = Perturbation(
            A, A, {x: H.ident(2, A.at0[x]) for x in A.dom.cells[0]},
            name="id").key()

    # operation tables, each filled over its composable pairs as they stand
    # before any fill; a composite's faces are its operands' outer faces,
    # any other value's are its own
    ops = {"comp0": lambda b, a, _: compose_0(b, a),
           "wl12": whisker_trans_mod, "wr12": whisker_mod_trans,
           "wl13": whisker_trans_pert, "wr13": whisker_pert_trans,
           "comp1": compose_mods, "wl23": whisker_mod_pert,
           "wr23": whisker_pert_mod, "comp2": compose_perts,
           "tensor": tensor_mods}
    keys = {op: list(composable_keys(C, op)) for op in ops}
    for _, attr, op, _, _, dout in TABLES:
        table = getattr(C, attr)
        for l, r in keys[op]:
            w = ops[op](reg[l], reg[r], tower)
            if op.startswith("comp"):
                faces = C.src(dout, r), C.tgt(dout, l)
            elif dout == 2:
                faces = w.alpha.key(), w.beta.key()
            else:
                faces = w.A.key(), w.B.key()
            table[(l, r)] = add(dout, w.key(), w, *faces)
    return C, reg, reports


def restricted_space(G, H, cap=100000):
    """{G,H}: strict functors with malleable transformations, closed.

    hom_graycat enumerates strict functors only, and every transformation
    between strict functors is malleable, so its result is {G,H}.
    """
    return hom_graycat(G, H, cap)


def sesquicategory_check(G, H, cap=100000):
    """Hom-category laws plus whisker functoriality, no interchange."""
    funs, _ = enumerate_strict_functors(G, H, cap)
    pseudos = [strict_as_pseudo(F) for F in funs]
    trans = {}
    for i, F in enumerate(pseudos):
        for j, Gp in enumerate(pseudos):
            ts, _ = enumerate_transformations(F, Gp, cap)
            trans[(i, j)] = ts

    def unital():
        for (i, j), ts in trans.items():
            for t in ts:
                li = identity_transformation(pseudos[j])
                ri = identity_transformation(pseudos[i])
                yield compose_0(li, t).key() == t.key(), ("left-unit", i, j)
                yield compose_0(t, ri).key() == t.key(), ("right-unit", i, j)

    def assoc():
        for (i, j), ts in trans.items():
            for (j2, k), us in trans.items():
                if j2 != j:
                    continue
                for (k2, l), vs in trans.items():
                    if k2 != k:
                        continue
                    for t in ts:
                        for u in us:
                            for v in vs:
                                lhs = compose_0(v, compose_0(u, t))
                                rhs = compose_0(compose_0(v, u), t)
                                yield lhs.key() == rhs.key(), \
                                    ("assoc", i, j, k, l)

    def whisker_functorial():
        hend, _ = enumerate_strict_functors(H, H, cap)
        gend, _ = enumerate_strict_functors(G, G, cap)
        for K in hend:
            for (i, j), ts in trans.items():
                for (j2, k), us in trans.items():
                    if j2 != j:
                        continue
                    for t in ts:
                        for u in us:
                            lhs = postcompose(K, compose_0(u, t))
                            rhs = compose_0(postcompose(K, u),
                                            postcompose(K, t))
                            yield lhs.key() == rhs.key(), \
                                ("post-functorial", i, j, k)
            for F in pseudos:
                idt = identity_transformation(F)
                lhs = postcompose(K, idt)
                yield is_stiff(lhs) and all(
                    H.is_id2(v) for v in lhs.at1.values()), \
                    ("post-identity", K.name)
        for E in gend:
            for (i, j), ts in trans.items():
                for (j2, k), us in trans.items():
                    if j2 != j:
                        continue
                    for t in ts:
                        for u in us:
                            lhs = precompose(compose_0(u, t), E)
                            rhs = compose_0(precompose(u, E),
                                            precompose(t, E))
                            yield lhs.key() == rhs.key(), \
                                ("pre-functorial", i, j, k)

    return run_laws([
        ("hom-units", unital()),
        ("hom-associativity", assoc()),
        ("whisker-functorial", whisker_functorial()),
    ])
