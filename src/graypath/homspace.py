"""The mapping space [G,H] and its restricted cousin {G,H}.

Cells of [G,H] are pseudo maps from G into the stages of the tower over H:
pseudo functors, lax transformations, modifications, perturbations.  The
data is stored componentwise (the validators read off the component
conditions directly); conversion to and from stage-valued pseudo maps is
provided and every hom-level operation is post-composition with the
corresponding internal operation, evaluated pointwise.
"""

from __future__ import annotations

from itertools import product

from .kernel import CheckReport, GrayError, Mismatch, StrictMap, run_laws
from .pathspace import PathView, p2, p3, sq, src_paste, tgt_paste
from .highercells import Tower
from .resolution import (PseudoMap, _comp_pairs, generator_decomposition,
                         kleisli_compose, strict_as_pseudo, strictify, tilde)


# -- component families --------------------------------------------------------


class LaxTransformation:
    """alpha: F => G, stored as (at0, at1, at2, coc) component families.

    at0[x] is a 1-cell Fx -> Gx; at1[f]: Gf #0 at0[x] => at0[y] #0 Ff;
    at2[g] is the 3-cell between the two whiskered pastings; coc[(f2, f1)]
    is the invertible cocycle 3-cell, normalized on identities.  A
    transformation does not change once built, so its key is computed once.
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
            H = self.H
            paste = H.comp1(H.wr12(self.at1[f2], self.F(1, f1)),
                            H.wl12(self.G(1, f2), self.at1[f1]))
            lhs = H.comp1(H.wl12(self.at0[self.dom.tgt(1, f2)],
                                 self.F.coc(f2, f1)), paste)
            return H.ident(2, lhs)
        raise Mismatch(f"missing cocycle component for ({f2!r}, {f1!r})")

    def key(self):
        if self._key is None:
            dom = self.dom
            self._key = ("tr",
                         tuple((x, self.at0[x]) for x in dom.cells[0]),
                         tuple((f, self.at1[f]) for f in dom.cells[1]),
                         tuple((g, self.a2(g)) for g in dom.cells[2]),
                         tuple((p, self.acoc(*p))
                               for p in sorted(_comp_pairs(dom), key=repr)))
        return self._key


class Modification:
    """A: alpha => beta with a 2-cell at each 0-cell, a 3-cell at each 1-cell.

    A modification does not change once built, so the 2-path it assigns to
    each 1-cell is built once (see mod_cell1).
    """

    def __init__(self, alpha, beta, at0, at1, name=""):
        self.alpha = alpha
        self.beta = beta
        self.dom = alpha.dom
        self.H = alpha.H
        self.at0 = dict(at0)
        self.at1 = dict(at1)
        self.name = name
        self._cell1 = {}

    def a1(self, f):
        if f in self.at1:
            return self.at1[f]
        raise Mismatch(f"missing 1-cell component for {f!r}")

    def key(self):
        return ("mod", self.alpha.key(), self.beta.key(),
                tuple(sorted(self.at0.items(), key=repr)),
                tuple(sorted(self.at1.items(), key=repr)))


class Perturbation:
    """sigma: A => B with a 3-cell at each 0-cell."""

    def __init__(self, A, B, at0, name=""):
        self.A = A
        self.B = B
        self.dom = A.dom
        self.H = A.H
        self.at0 = dict(at0)
        self.name = name

    def key(self):
        return ("pert", self.A.key(), self.B.key(),
                tuple(sorted(self.at0.items(), key=repr)))


# -- conversions into the tower stages ------------------------------------------


def trans_sq(t, f):
    H, dom = t.H, t.dom
    x, y = dom.src(1, f), dom.tgt(1, f)
    return sq(H, t.at1[f], t.F(1, f), t.G(1, f), t.at0[x], t.at0[y])


def trans_p2(t, g):
    H, dom = t.H, t.dom
    f, f1 = dom.src(2, g), dom.tgt(2, g)
    return p2(H, t.a2(g), t.F(2, g), t.G(2, g), trans_sq(t, f), trans_sq(t, f1))


def trans_to_pseudo(t, PH):
    """The path-space-valued pseudo map a transformation amounts to."""
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
    for (f2, f1) in _comp_pairs(dom):
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
    coc = {pair: P.coc(*pair)[1] for pair in _comp_pairs(dom)}
    return LaxTransformation(F, G, at0, at1, at2, coc, name=P.name)


def mod_bigon(A, x):
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
    """The bigon-space-valued pseudo map; the path 3-cell constructors
    enforce the 2-cell and cocycle compatibility figures."""
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
    for (f2, f1) in _comp_pairs(dom):
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
    square between the two modification bigons."""
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
    for (f2, f1) in _comp_pairs(dom):
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
            try:
                trans_sq(t, f)
                ok = True
            except (GrayError, KeyError):
                ok = False
            yield ok, ("component-1", f)
        for g in dom.cells[2]:
            try:
                trans_p2(t, g)
                ok = True
            except (GrayError, KeyError):
                ok = False
            yield ok, ("component-2", g)

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
        for (g1, g) in sorted(dom.comp1_22, key=repr):
            x, y = dom.src0(2, g), dom.tgt0(2, g)
            lhs = t.a2(dom.comp1(g1, g))
            step1 = H.wl23(H.wl12(t.at0[y], F(2, g1)), t.a2(g))
            step2 = H.wr23(t.a2(g1), H.wr12(G(2, g), t.at0[x]))
            yield lhs == H.comp2(step2, step1), ("vertical-composite", g1, g)

    def cocycle_conditions():
        for (f2, f1) in _comp_pairs(dom):
            c = t.acoc(f2, f1)
            paste = H.comp1(H.wr12(t.at1[f2], F(1, f1)),
                            H.wl12(G(1, f2), t.at1[f1]))
            z = dom.tgt(1, f2)
            x = dom.src(1, f1)
            lhs2 = H.comp1(H.wl12(t.at0[z], F.coc(f2, f1)), paste)
            rhs2 = H.comp1(t.at1[dom.comp0(f2, f1)],
                           H.wr12(G.coc(f2, f1), t.at0[x]))
            ok = H.src(3, c) == lhs2 and H.tgt(3, c) == rhs2
            yield ok, ("cocycle-faces", f2, f1)
            try:
                H.inv_3(c)
                ok = True
            except GrayError:
                ok = False
            yield ok, ("cocycle-invertible", f2, f1)
            if dom.is_id1(f2) or dom.is_id1(f1):
                yield H.is_id3(c), ("cocycle-normalized", f2, f1)
        # the hexagonal cocycle condition on composable triples
        for c_ in dom.cells[1]:
            for b_ in dom.by_tgt(1, dom.src(1, c_)):
                for a_ in dom.by_tgt(1, dom.src(1, b_)):
                    yield _hexagon(t, c_, b_, a_), ("cocycle-hexagon", c_, b_, a_)

    def whisker_compat():
        for gam in dom.cells[2]:
            for f in dom.by_tgt(1, dom.src0(2, gam)):
                yield _whisker_left(t, gam, f), ("whisker-left", gam, f)
        for delt in dom.cells[2]:
            for g in dom.by_src(1, dom.tgt0(2, delt)):
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
            x, y = dom.src(1, f), dom.tgt(1, f)
            c = A.at1.get(f)
            if c is None:
                yield False, ("component-1", f)
                continue
            src3 = H.comp1(be.at1[f], H.wl12(G(1, f), A.at0[x]))
            tgt3 = H.comp1(H.wr12(A.at0[y], F(1, f)), al.at1[f])
            yield (H.src(3, c) == src3 and H.tgt(3, c) == tgt3), \
                ("component-1", f)

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
        for (f2, f1) in _comp_pairs(dom):
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
    """b * a, by the componentwise pasting formulas."""
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
    for (f2, f1) in _comp_pairs(dom):
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
    for pair in _comp_pairs(dom):
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
    for (f2, f1) in _comp_pairs(dom):
        coc[(f2, f1)] = H.ident(2, F.coc(f2, f1))
    return LaxTransformation(F, F, at0, at1, at2, coc, name=f"id({F.name})")


def is_stiff(t):
    return all(t.H.is_id3(t.acoc(*pair)) for pair in _comp_pairs(t.dom))


# -- whiskering by functors (the sesquicategory structure) ----------------------


def precompose(t, E):
    """t o E for a strict E into t's domain."""
    dom2 = E.dom
    at0 = {x: t.at0[E.maps[0][x]] for x in dom2.cells[0]}
    at1 = {f: t.at1[E.maps[1][f]] for f in dom2.cells[1]}
    at2 = {g: t.a2(E.maps[2][g]) for g in dom2.cells[2]}
    coc = {}
    for (f2, f1) in _comp_pairs(dom2):
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
    coc = {pair: K.maps[3][t.acoc(*pair)] for pair in _comp_pairs(dom)}
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


def _strict_functors(G, H):
    zero_choices = [H.cells[0]] * len(G.cells[0])
    for zs in product(*zero_choices):
        ob = dict(zip(G.cells[0], zs))
        ones = []
        ok = True
        for f in G.cells[1]:
            opts = H.between(1, ob[G.src(1, f)], ob[G.tgt(1, f)])
            if G.is_id1(f):
                opts = [H.ident(0, ob[G.src(1, f)])]
            ones.append(opts)
            if not opts:
                ok = False
                break
        if not ok:
            continue
        for fs in product(*ones):
            mor = dict(zip(G.cells[1], fs))
            if any(mor[h] != H.comp0_11.get((mor[g], mor[f]))
                   for (g, f), h in G.comp0_11.items()):
                continue
            twos_opts = []
            for a in G.cells[2]:
                if G.is_id2(a):
                    twos_opts.append([H.ident(1, mor[G.src(2, a)])])
                else:
                    twos_opts.append(H.between(2, mor[G.src(2, a)],
                                               mor[G.tgt(2, a)]))
            for ts in product(*twos_opts):
                two = dict(zip(G.cells[2], ts))
                threes_opts = []
                for g3 in G.cells[3]:
                    if G.is_id3(g3):
                        threes_opts.append([H.ident(2, two[G.src(3, g3)])])
                    else:
                        threes_opts.append(H.between(3, two[G.src(3, g3)],
                                                     two[G.tgt(3, g3)]))
                for hs in product(*threes_opts):
                    three = dict(zip(G.cells[3], hs))
                    cand = StrictMap(G, H, {0: ob, 1: mor, 2: two, 3: three})
                    try:
                        cand.validate()
                    except Mismatch:
                        continue
                    yield cand


def enumerate_transformations(F, G, cap=100000):
    """All valid transformations F => G, with validators applied."""
    return _take(_transformations(F, G), cap)


def _transformations(F, G):
    dom = F.dom
    H = F.cod
    c0 = []
    for x in dom.cells[0]:
        c0.append(H.between(1, F(0, x), G(0, x)))
    for zs in product(*c0):
        at0 = dict(zip(dom.cells[0], zs))
        c1 = []
        for f in dom.cells[1]:
            x, y = dom.src(1, f), dom.tgt(1, f)
            if dom.is_id1(f):
                c1.append([H.ident(1, at0[x])])
                continue
            lhs = H.comp0(G(1, f), at0[x])
            rhs = H.comp0(at0[y], F(1, f))
            c1.append(H.between(2, lhs, rhs))
        for fs in product(*c1):
            at1 = dict(zip(dom.cells[1], fs))
            c2 = []
            feasible = True
            for g in dom.cells[2]:
                f, f1 = dom.src(2, g), dom.tgt(2, g)
                x, y = dom.src0(2, g), dom.tgt0(2, g)
                s3 = H.comp1(H.wl12(at0[y], F(2, g)), at1[f])
                t3 = H.comp1(at1[f1], H.wr12(G(2, g), at0[x]))
                opts = H.between(3, s3, t3)
                if dom.is_id2(g):
                    ideal = H.ident(2, at1[f])
                    opts = [u for u in opts if u == ideal]
                if not opts:
                    feasible = False
                    break
                c2.append(opts)
            if not feasible:
                continue
            pairs = [p for p in _comp_pairs(dom)
                     if not (dom.is_id1(p[0]) or dom.is_id1(p[1]))]
            for ts in product(*c2):
                at2 = dict(zip(dom.cells[2], ts))
                ccs = []
                ok = True
                for (f2, f1) in pairs:
                    z = dom.tgt(1, f2)
                    x = dom.src(1, f1)
                    paste = H.comp1(H.wr12(at1[f2], F(1, f1)),
                                    H.wl12(G(1, f2), at1[f1]))
                    s3 = H.comp1(H.wl12(at0[z], F.coc(f2, f1)), paste)
                    t3 = H.comp1(at1[dom.comp0(f2, f1)],
                                 H.wr12(G.coc(f2, f1), at0[x]))
                    opts = H.between(3, s3, t3)
                    if not opts:
                        ok = False
                        break
                    ccs.append(opts)
                if not ok:
                    continue
                for cs in product(*ccs):
                    coc = dict(zip(pairs, cs))
                    t = LaxTransformation(F, G, at0, at1, at2, coc)
                    if all(r.ok for r in validate_transformation(t)):
                        yield t


def enumerate_modifications(a, b, cap=100000):
    """All valid modifications a => b between parallel transformations."""
    return _take(_modifications(a, b), cap)


def _modifications(a, b):
    dom, H = a.dom, a.H
    c0 = []
    for x in dom.cells[0]:
        c0.append(H.between(2, a.at0[x], b.at0[x]))
    for zs in product(*c0):
        at0 = dict(zip(dom.cells[0], zs))
        c1 = []
        feasible = True
        for f in dom.cells[1]:
            x, y = dom.src(1, f), dom.tgt(1, f)
            s3 = H.comp1(b.at1[f], H.wl12(a.G(1, f), at0[x]))
            t3 = H.comp1(H.wr12(at0[y], a.F(1, f)), a.at1[f])
            opts = H.between(3, s3, t3)
            if not opts:
                feasible = False
                break
            c1.append(opts)
        if not feasible:
            continue
        for fs in product(*c1):
            at1 = dict(zip(dom.cells[1], fs))
            A = Modification(a, b, at0, at1)
            if all(r.ok for r in validate_modification(A)):
                yield A


def enumerate_perturbations(A, B, cap=100000):
    """All valid perturbations A => B between parallel modifications."""
    return _take(_perturbations(A, B), cap)


def _perturbations(A, B):
    dom, H = A.dom, A.H
    c0 = []
    for x in dom.cells[0]:
        c0.append(H.between(3, A.at0[x], B.at0[x]))
    for zs in product(*c0):
        s = Perturbation(A, B, dict(zip(dom.cells[0], zs)))
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
    coc = {}
    for (f2, f1) in _comp_pairs(dom):
        paste = H.comp1(H.wr12(at1[f2], F(1, f1)),
                        H.wl12(s(1, f2), at1[f1]))
        x = dom.src(1, f1)
        z = dom.tgt(1, f2)
        lhs = H.comp1(H.wl12(at0[z], F.coc(f2, f1)), paste)
        coc[(f2, f1)] = H.ident(2, lhs)
    return LaxTransformation(F, s, at0, at1, at2, coc, name=f"rho({F.name})")


# -- hom-level operations through the tower --------------------------------------


def compose_mods(B, A, tower):
    """B *1 A: vertical composite of modifications, by mbar pointwise."""
    dom, H = A.dom, A.H
    at0 = {x: H.comp1(B.at0[x], A.at0[x]) for x in dom.cells[0]}
    at1 = {}
    for f in dom.cells[1]:
        W = tower.mbar(1, mod_cell1(B, f), mod_cell1(A, f))
        at1[f] = W[1][1]
    return Modification(A.alpha, B.beta, at0, at1,
                        name=f"{B.name}*1{A.name}")


def compose_perts(s2, s1, tower):
    """s2 *2 s1 through mbarbar pointwise."""
    at0 = {}
    for x in s1.dom.cells[0]:
        W = tower.mbarbar(0, pert_square(s2, x, tower),
                          pert_square(s1, x, tower))
        at0[x] = W[1][1]
    return Perturbation(s1.A, s2.B, at0, name=f"{s2.name}*2{s1.name}")


def whisker_trans_mod(g, A, tower):
    """g #0 A: whisker a modification by a later transformation."""
    dom = A.dom
    at0, at1 = {}, {}
    for x in dom.cells[0]:
        r = tower.w_r(0, g.at0[x], mod_bigon(A, x))
        at0[x] = r[1]
    for f in dom.cells[1]:
        r = tower.w_r(1, trans_sq(g, f), mod_cell1(A, f))
        at1[f] = r[1][1]
    return Modification(compose_0(g, A.alpha), compose_0(g, A.beta),
                        at0, at1, name=f"{g.name}#0{A.name}")


def whisker_mod_trans(A, g, tower):
    """A #0 g: whisker a modification by an earlier transformation."""
    dom = A.dom
    at0, at1 = {}, {}
    for x in dom.cells[0]:
        r = tower.w_l(0, mod_bigon(A, x), g.at0[x])
        at0[x] = r[1]
    for f in dom.cells[1]:
        r = tower.w_l(1, mod_cell1(A, f), trans_sq(g, f))
        at1[f] = r[1][1]
    return Modification(compose_0(A.alpha, g), compose_0(A.beta, g),
                        at0, at1, name=f"{A.name}#0{g.name}")


def whisker_trans_pert(g, s, tower, after=True):
    """g #0 sigma (after=True) or sigma #0 g, through the 3-path whiskers."""
    at0 = {}
    for x in s.dom.cells[0]:
        P = pert_square(s, x, tower)
        if after:
            r = tower.wbar_r(0, g.at0[x], P)
        else:
            r = tower.wbar_l(0, P, g.at0[x])
        at0[x] = r[1][1]
    if after:
        A2 = whisker_trans_mod(g, s.A, tower)
        B2 = whisker_trans_mod(g, s.B, tower)
    else:
        A2 = whisker_mod_trans(s.A, g, tower)
        B2 = whisker_mod_trans(s.B, g, tower)
    return Perturbation(A2, B2, at0, name="whiskered-pert")


def whisker_mod_pert(B, s, tower, after=True):
    """B #1 sigma / sigma #1 B through the 2-on-3 whiskers."""
    at0 = {}
    for x in s.dom.cells[0]:
        P, Bx = pert_square(s, x, tower), mod_bigon(B, x)
        if after:
            r = tower.wtil_r(0, Bx, P)
        else:
            r = tower.wtil_l(0, P, Bx)
        at0[x] = r[1][1]
    if after:
        A2 = compose_mods(B, s.A, tower)
        B2 = compose_mods(B, s.B, tower)
    else:
        A2 = compose_mods(s.A, B, tower)
        B2 = compose_mods(s.B, B, tower)
    return Perturbation(A2, B2, at0, name="whiskered-pert-2")


def tensor_mods(B, A, tower):
    """B (x) A for modifications 0-composable at a functor."""
    at0 = {}
    for x in A.dom.cells[0]:
        t = tower.tensor_t(mod_bigon(B, x), mod_bigon(A, x))
        at0[x] = t[1][1]
    hl_mod_src = hom_hl_mod(B, A, tower)
    hr_mod_tgt = hom_hr_mod(B, A, tower)
    return Perturbation(hl_mod_src, hr_mod_tgt, at0, name="tensor-mods")


def hom_hl_mod(B, A, tower):
    """The left horizontal composite of two 0-composable modifications."""
    return _hcomp_mod(tower.h_l, B, A, "hl")


def hom_hr_mod(B, A, tower):
    """The right horizontal composite of two 0-composable modifications."""
    return _hcomp_mod(tower.h_r, B, A, "hr")


def _hcomp_mod(hcomp, B, A, name):
    """Evaluate the tower's horizontal composite hcomp pointwise."""
    dom = A.dom
    at0, at1 = {}, {}
    for x in dom.cells[0]:
        at0[x] = hcomp(0, mod_bigon(B, x), mod_bigon(A, x))[1]
    for f in dom.cells[1]:
        at1[f] = hcomp(1, mod_cell1(B, f), mod_cell1(A, f))[1][1]
    return Modification(compose_0(B.alpha, A.alpha),
                        compose_0(B.beta, A.beta), at0, at1, name=name)


# -- the mapping space as a tabulated Gray-category -------------------------------


def hom_graycat(G, H, cap=100000):
    """[G,H] materialized, with every operation installed.

    Feasible at desk scale; every enumeration is capped, and a hit cap is
    a failing report.  Every enumerated
    modification and perturbation is converted into its tower stage once,
    which runs the conversion's construction checks.  Returns (graycat,
    registry, reports) where registry maps cell keys back to the
    componentwise objects.
    """
    from .kernel import GrayCat
    tower = Tower(H)
    reports = []
    funs, reps = enumerate_strict_functors(G, H, cap)
    reports.extend(reps)
    pseudos = [strict_as_pseudo(F) for F in funs]
    # only strict functors are enumerated, as pseudo functors with trivial
    # cocycles; pseudo functors with nontrivial cocycles exist between the
    # shipped fixtures (PAIR into path(TWIST) has one) and are not objects
    C = GrayCat(name=f"[{G.name},{H.name}]")
    reg = {}

    def add(d, obj, src=None, tgt=None):
        k = obj.key() if hasattr(obj, "key") else obj
        if not C.has_cell(d, k):
            C.add_cell(d, k, src, tgt)
            reg[k] = obj
        return k

    fkeys = {}
    for F in pseudos:
        k = ("fun", tuple(sorted(F.assignment[1].items(), key=repr)))
        fkeys[id(F)] = k
        add(0, k)
        reg[k] = F
    trans = []
    for F in pseudos:
        for Gp in pseudos:
            ts, reps = enumerate_transformations(F, Gp, cap)
            reports.extend(r for r in reps if not r.ok)
            for t in ts:
                add(1, t, fkeys[id(F)], fkeys[id(Gp)])
                trans.append(t)
    mods = []
    for a in trans:
        for b in trans:
            if a.F is b.F and a.G is b.G:
                ms, reps = enumerate_modifications(a, b, cap)
                reports.extend(r for r in reps if not r.ok)
                for A in ms:
                    mod_to_pseudo(A, tower)
                    add(2, A, a.key(), b.key())
                    mods.append(A)
    perts = []
    for A in mods:
        for B in mods:
            if (A.alpha.key() == B.alpha.key()
                    and A.beta.key() == B.beta.key()):
                ss, reps = enumerate_perturbations(A, B, cap)
                reports.extend(r for r in reps if not r.ok)
                for s in ss:
                    pert_to_pseudo(s, tower)
                    add(3, s, A.key(), B.key())
                    perts.append(s)

    # identities
    for F in pseudos:
        k = fkeys[id(F)]
        C.id_up[0][k] = identity_transformation(F).key()
    for t in trans:
        idm = Modification(t, t, {x: H.ident(1, t.at0[x]) for x in t.dom.cells[0]},
                           {f: H.ident(2, t.at1[f]) for f in t.dom.cells[1]},
                           name="id")
        C.id_up[1][t.key()] = idm.key()
    for A in mods:
        idp = Perturbation(A, A, {x: H.ident(2, A.at0[x]) for x in A.dom.cells[0]},
                           name="id")
        C.id_up[2][A.key()] = idp.key()

    # operation tables
    by_src1 = {}
    for t in trans:
        by_src1.setdefault(C.src(1, t.key()), []).append(t)
    for t in trans:
        for u in by_src1.get(C.tgt(1, t.key()), ()):
            C.comp0_11[(u.key(), t.key())] = add(1, compose_0(u, t),
                                                 C.src(1, t.key()),
                                                 C.tgt(1, u.key()))
    mod_by_src = {}
    for A in mods:
        mod_by_src.setdefault(A.alpha.key(), []).append(A)
    for A in mods:
        for B in mod_by_src.get(A.beta.key(), ()):
            C.comp1_22[(B.key(), A.key())] = add(
                2, compose_mods(B, A, tower), A.alpha.key(), B.beta.key())
    pert_by_src = {}
    for s in perts:
        pert_by_src.setdefault(s.A.key(), []).append(s)
    for s in perts:
        for u in pert_by_src.get(s.B.key(), ()):
            C.comp2_33[(u.key(), s.key())] = add(
                3, compose_perts(u, s, tower), s.A.key(), u.B.key())
    # whiskers by transformations
    for t in trans:
        for A in mods:
            if C.tgt(1, A.alpha.key()) == C.src(1, t.key()) \
                    and A.alpha.G.assignment == t.F.assignment:
                w = whisker_trans_mod(t, A, tower)
                C.whisk_l12[(t.key(), A.key())] = add(
                    2, w, w.alpha.key(), w.beta.key())
            if C.src(1, A.alpha.key()) == C.tgt(1, t.key()) \
                    and t.G.assignment == A.alpha.F.assignment:
                w = whisker_mod_trans(A, t, tower)
                C.whisk_r12[(A.key(), t.key())] = add(
                    2, w, w.alpha.key(), w.beta.key())
        for s in perts:
            base = s.A.alpha
            if base.G.assignment == t.F.assignment:
                w = whisker_trans_pert(t, s, tower, after=True)
                C.whisk_l13[(t.key(), s.key())] = add(
                    3, w, w.A.key(), w.B.key())
            if t.G.assignment == base.F.assignment:
                w = whisker_trans_pert(t, s, tower, after=False)
                C.whisk_r13[(s.key(), t.key())] = add(
                    3, w, w.A.key(), w.B.key())
    # whiskers of perturbations by modifications
    for s in perts:
        for B in mods:
            if B.alpha.key() == s.A.beta.key():
                w = whisker_mod_pert(B, s, tower, after=True)
                C.whisk_l23[(B.key(), s.key())] = add(3, w, w.A.key(), w.B.key())
            if B.beta.key() == s.A.alpha.key():
                w = whisker_mod_pert(B, s, tower, after=False)
                C.whisk_r23[(s.key(), B.key())] = add(3, w, w.A.key(), w.B.key())
    # tensors of 0-composable modifications
    for A in mods:
        for B in mods:
            if B.alpha.F.assignment == A.alpha.G.assignment:
                w = tensor_mods(B, A, tower)
                C.tensor_[(B.key(), A.key())] = add(3, w, w.A.key(), w.B.key())
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
