"""The Q1 resolution: symbolic cells, kappa, pseudo maps, co-Kleisli calculus.

Q1(G) is never materialized (it is infinite).  Its cells are symbolic values

    ('q0', x)                       0-cell of G
    ('q1', anchor, (f1, .., fn))    identity-free list of composable 1-cells,
                                    f1 leftmost (applied last); empty list =
                                    the identity 1-cell at `anchor`
    ('q2', a, Lsrc, Ltgt)           a: e(Lsrc) => e(Ltgt) in G
    ('q3', g, Asrc, Atgt)           g: a_src => a_tgt between parallel 'q2's

operated on by the base tables through Q1Layer, which exposes the same duck
interface as a tabulated GrayCat so layers stack (Q1 Q1 G and paths over Q1 G
come for free).
"""

from __future__ import annotations

from .kernel import (GrayError, Mismatch, NotComposable, NotOneFree,
                     hcomp_left, hcomp_right, run_laws)


# -- symbolic cells ----------------------------------------------------------


def q1_normalize(C, fs, anchor=None):
    """Reduced list: identity 1-cells dropped, composability verified."""
    fs = [f for f in fs if not C.is_id1(f)]
    if not fs:
        if anchor is None:
            raise NotComposable("empty q1 list needs an anchor object")
        return ("q1", anchor, ())
    for f, g in zip(fs, fs[1:]):
        if C.src(1, f) != C.tgt(1, g):
            raise NotComposable(f"q1 list entries {f!r}, {g!r} do not compose")
    return ("q1", C.src(1, fs[-1]), tuple(fs))


def q1_src(C, c):
    return c[1] if not c[2] else C.src(1, c[2][-1])


def q1_tgt(C, c):
    return c[1] if not c[2] else C.tgt(1, c[2][0])


def q1_tag(c):
    """'q1'/'q2'/'q3' for symbolic cells; None for a (raw) 0-cell."""
    if isinstance(c, tuple) and c and c[0] in ("q1", "q2", "q3"):
        return c[0]
    return None


def q1_counit(C, c):
    """e: identity on 0-cells, fold of #0 on lists, carried cell above."""
    tag = q1_tag(c)
    if tag is None:
        return c
    if tag == "q1":
        return C.fold0(list(c[2]), anchor=c[1])
    return c[1]


def q2_cell(C, a, lsrc, ltgt):
    if C.src(2, a) != q1_counit(C, lsrc) or C.tgt(2, a) != q1_counit(C, ltgt):
        raise NotComposable(f"2-cell {a!r} does not match list composites")
    if (q1_src(C, lsrc) != q1_src(C, ltgt)
            or q1_tgt(C, lsrc) != q1_tgt(C, ltgt)):
        raise NotComposable("q2 lists are not parallel")
    return ("q2", a, lsrc, ltgt)


def q3_cell(C, g, asrc, atgt):
    if C.src(3, g) != asrc[1] or C.tgt(3, g) != atgt[1]:
        raise NotComposable(f"3-cell {g!r} does not match its q2 faces")
    if asrc[2:] != atgt[2:]:
        raise NotComposable("q3 faces must share their lists")
    return ("q3", g, asrc, atgt)


def q1_comult(C, c):
    """d: [f1,..,fn] -> [[f1],..,[fn]]; re-anchors 2- and 3-cells."""
    layer = Q1Layer(C)
    tag = q1_tag(c)
    if tag is None:
        return c
    if tag == "q1":
        singles = tuple(("q1", C.src(1, f), (f,)) for f in c[2])
        return ("q1", c[1], singles)
    if tag == "q2":
        return q2_cell(layer, c, q1_comult(C, c[2]), q1_comult(C, c[3]))
    if tag == "q3":
        return q3_cell(layer, c, q1_comult(C, c[2]), q1_comult(C, c[3]))
    raise GrayError(f"not a q1 cell: {c!r}")


class Q1Layer:
    """Q1(base) with the same operation surface as a tabulated GrayCat.

    Whiskers and composites of higher cells are carried out in the base;
    composition of 1-cells is concatenation of reduced lists.
    """

    def __init__(self, base):
        self.base = base
        self.name = f"Q1({getattr(base, 'name', '?')})"
        self.is_groupoid = getattr(base, "is_groupoid", False)

    # faces and identities

    def src(self, d, c):
        if d == 1:
            return q1_src(self.base, c)
        return c[2]

    def tgt(self, d, c):
        if d == 1:
            return q1_tgt(self.base, c)
        return c[3]

    def src0(self, d, c):
        while d > 1:
            c = c[2]
            d -= 1
        return self.src(1, c)

    def tgt0(self, d, c):
        while d > 1:
            c = c[2]
            d -= 1
        return self.tgt(1, c)

    def ident(self, d, c):
        B = self.base
        if d == 0:
            return ("q1", c, ())
        if d == 1:
            return ("q2", B.ident(1, q1_counit(B, c)), c, c)
        if d == 2:
            return ("q3", B.ident(2, c[1]), c, c)
        raise GrayError("no identities above dimension 3")

    def is_id1(self, c):
        return c[2] == ()

    def is_id2(self, c):
        return c[2] == c[3] and self.base.is_id2(c[1])

    def is_id3(self, c):
        return c[2] == c[3] and self.base.is_id3(c[1])

    # operations

    def comp0(self, g, f):
        B = self.base
        if q1_src(B, g) != q1_tgt(B, f):
            raise NotComposable(f"q1 comp0 {g!r} after {f!r}")
        return q1_normalize(B, list(g[2]) + list(f[2]), anchor=f[1])

    def _ext_r(self, c, f):
        """c #0 f for c of dim >= 2 and f a q1 1-cell (right whisker)."""
        B = self.base
        ef = q1_counit(B, f)
        if c[0] == "q2":
            return ("q2", B.wr12(c[1], ef),
                    self.comp0(c[2], f), self.comp0(c[3], f))
        return ("q3", B.wr13(c[1], ef),
                self._ext_r(c[2], f), self._ext_r(c[3], f))

    def _ext_l(self, k, c):
        B = self.base
        ek = q1_counit(B, k)
        if c[0] == "q2":
            return ("q2", B.wl12(ek, c[1]),
                    self.comp0(k, c[2]), self.comp0(k, c[3]))
        return ("q3", B.wl13(ek, c[1]),
                self._ext_l(k, c[2]), self._ext_l(k, c[3]))

    def wl12(self, k, a):
        return self._ext_l(k, a)

    def wr12(self, a, k):
        return self._ext_r(a, k)

    def wl13(self, k, g):
        return self._ext_l(k, g)

    def wr13(self, g, k):
        return self._ext_r(g, k)

    def comp1(self, b, a):
        B = self.base
        if a[3] != b[2]:
            raise NotComposable("q1 comp1: middle lists differ")
        return ("q2", B.comp1(b[1], a[1]), a[2], b[3])

    def wl23(self, c, g):
        B = self.base
        if g[2][3] != c[2]:
            raise NotComposable("q1 wl23: faces differ")
        return ("q3", B.wl23(c[1], g[1]),
                self.comp1(c, g[2]), self.comp1(c, g[3]))

    def wr23(self, g, c):
        B = self.base
        if g[2][2] != c[3]:
            raise NotComposable("q1 wr23: faces differ")
        return ("q3", B.wr23(g[1], c[1]),
                self.comp1(g[2], c), self.comp1(g[3], c))

    def comp2(self, d, g):
        B = self.base
        if g[3] != d[2]:
            raise NotComposable("q1 comp2: faces differ")
        return ("q3", B.comp2(d[1], g[1]), g[2], d[3])

    def tensor(self, b, a):
        B = self.base
        if self.src0(2, b) != self.tgt0(2, a):
            raise NotComposable("q1 tensor: not 0-composable")
        return ("q3", B.tensor(b[1], a[1]),
                hcomp_left(self, b, a), hcomp_right(self, b, a))

    def inv_2(self, a):
        return ("q2", self.base.inv_2(a[1]), a[3], a[2])

    def inv_3(self, g):
        return ("q3", self.base.inv_3(g[1]), g[3], g[2])

    def fold0(self, cells, anchor=None):
        if not cells:
            return ("q1", anchor, ())
        out = cells[-1]
        for f in reversed(cells[:-1]):
            out = self.comp0(f, out)
        return out

    # bounded enumeration of symbolic cells

    def lists1(self, max_len):
        B = self.base
        for x in B.cells[0]:
            yield ("q1", x, ())
        words = [[f] for f in B.cells[1] if not B.is_id1(f)]
        for w in words:
            yield ("q1", B.src(1, w[-1]), tuple(w))
        for _ in range(max_len - 1):
            new = []
            for w in words:
                for f in B.cells[1]:
                    if not B.is_id1(f) and B.tgt(1, f) == B.src(1, w[-1]):
                        nw = w + [f]
                        yield ("q1", B.src(1, f), tuple(nw))
                        new.append(nw)
            words = new
            if not words:
                break

    def cells2(self, max_len):
        B = self.base
        lists = list(self.lists1(max_len))
        by_ends = {}
        for l in lists:
            by_ends.setdefault((q1_src(B, l), q1_tgt(B, l), q1_counit(B, l)),
                               []).append(l)
        for a in B.cells[2]:
            f, g = B.src(2, a), B.tgt(2, a)
            x, y = B.src(1, f), B.tgt(1, f)
            for ls in by_ends.get((x, y, f), ()):
                for lt in by_ends.get((x, y, g), ()):
                    yield ("q2", a, ls, lt)

    def cells3(self, max_len):
        B = self.base
        twos = {}
        for c in self.cells2(max_len):
            twos.setdefault(c[1], []).append(c)
        for g in B.cells[3]:
            a, b = B.src(3, g), B.tgt(3, g)
            for cs in twos.get(a, ()):
                for ct in twos.get(b, ()):
                    if cs[2:] == ct[2:]:
                        yield ("q3", g, cs, ct)


# -- kappa cells -------------------------------------------------------------


def kappa(C, *fs):
    """The invertible 2-cell of Q1 from [f1,..,fn] to [f1 #0 .. #0 fn]."""
    if len(fs) < 2:
        raise NotComposable("kappa needs at least two composable 1-cells")
    anchor = C.src(1, fs[-1])
    lsrc = q1_normalize(C, list(fs), anchor=anchor)
    comp = C.fold0(list(fs), anchor=anchor)
    ltgt = q1_normalize(C, [comp], anchor=anchor)
    return ("q2", C.ident(1, comp), lsrc, ltgt)


def kappa_coherence_check(C, f1, f2, f3):
    """kappa_{f1#f2,f3} #1 (kappa_{f1,f2} #0 [f3]) = kappa_{f1,f2,f3}
       = kappa_{f1,f2#f3} #1 ([f1] #0 kappa_{f2,f3})."""
    L = Q1Layer(C)
    k12 = kappa(C, f1, f2)
    k23 = kappa(C, f2, f3)
    k123 = kappa(C, f1, f2, f3)
    left = L.comp1(kappa(C, C.comp0(f1, f2), f3),
                   L.wr12(k12, ("q1", C.src(1, f3), (f3,))))
    right = L.comp1(kappa(C, f1, C.comp0(f2, f3)),
                    L.wl12(("q1", C.src(1, f1), (f1,)), k23))
    return left == k123 == right


def kappa_tensor_check(C, pair_b, pair_a):
    """kappa (x) kappa is the identity 3-cell on the common composite."""
    L = Q1Layer(C)
    t = L.tensor(kappa(C, *pair_b), kappa(C, *pair_a))
    return L.is_id3(t)


# -- pseudo maps -------------------------------------------------------------


class PseudoMap:
    """A pseudo Q1 graph map F: G -|-> H.

    `assignment[d]` maps every d-cell of dom; `cocycle[(f1, f2)]` is an
    invertible 2-cell F f1 #0 F f2 => F(f1 #0 f2) of cod for every composable
    pair, normalized on identities.  cod may be any GrayCat-like object.
    """

    def __init__(self, dom, cod, assignment, cocycle, name=""):
        self.dom = dom
        self.cod = cod
        self.assignment = {d: dict(assignment.get(d, {})) for d in (0, 1, 2, 3)}
        self.cocycle = dict(cocycle)
        self.name = name

    def __call__(self, d, c):
        return self.assignment[d][c]

    def coc(self, f1, f2):
        key = (f1, f2)
        if key in self.cocycle:
            return self.cocycle[key]
        if self.dom.is_id1(f1) or self.dom.is_id1(f2):
            img = self.cod.comp0(self(1, f1), self(1, f2))
            return self.cod.ident(1, img)
        raise Mismatch(f"{self.name}: no cocycle entry for {key!r}")

    def is_strict(self):
        return all(_is_id2(self.cod, self.coc(f1, f2))
                   for (f1, f2) in _comp_pairs(self.dom))


def _is_id2(C, a):
    if hasattr(C, "is_id2"):
        return C.is_id2(a)
    f = C.src(2, a)
    return C.ident(1, f) == a


def _comp_pairs(C):
    for g in C.cells[1]:
        for f in C.by_tgt(1, C.src(1, g)):
            yield (g, f)


def strict_as_pseudo(F):
    """Embed a strict map as a co-Kleisli morphism with trivial cocycle."""
    coc = {}
    for (g, f) in _comp_pairs(F.dom):
        img = F.cod.comp0(F.maps[1][g], F.maps[1][f])
        coc[(g, f)] = F.cod.ident(1, img)
    return PseudoMap(F.dom, F.cod, F.maps, coc, name=F.name)


def kleisli_identity(G):
    assign = {d: {c: c for c in G.cells[d]} for d in (0, 1, 2, 3)}
    coc = {(g, f): G.ident(1, G.comp0(g, f)) for (g, f) in _comp_pairs(G)}
    return PseudoMap(G, G, assign, coc, name=f"id_{G.name}")


def kleisli_compose(G, F):
    """Co-Kleisli composite: (GF)^2 = G F^2 #1 G^2 at the image pair."""
    if F.cod is not G.dom:
        raise Mismatch("kleisli_compose: middle categories differ")
    assign = {d: {c: G(d, F(d, c)) for c in F.dom.cells[d]} for d in (0, 1, 2, 3)}
    coc = {}
    for (f1, f2) in _comp_pairs(F.dom):
        gf2 = G(2, F.coc(f1, f2))
        g2 = G.coc(F(1, f1), F(1, f2))
        coc[(f1, f2)] = G.cod.comp1(gf2, g2)
    return PseudoMap(F.dom, G.cod, assign, coc, name=f"{G.name}*{F.name}")


def pseudo_maps_equal(F, G):
    return (F.assignment == G.assignment
            and all(F.coc(*p) == G.coc(*p) for p in _comp_pairs(F.dom)))


# -- validation --------------------------------------------------------------


def validate_pseudo_map(F):
    """The seven condition families of the pseudo-map definition.

    Failures are reported with a counterexample, never raised; the globular
    and identity checks come first since everything else assumes them.
    """
    dom, cod = F.dom, F.cod

    pairs = list(_comp_pairs(dom))

    def globular():
        for d in (1, 2, 3):
            for c in dom.cells[d]:
                ok = (cod.src(d, F(d, c)) == F(d - 1, dom.src(d, c))
                      and cod.tgt(d, F(d, c)) == F(d - 1, dom.tgt(d, c)))
                yield ok, ("faces", d, c)
        for d in (0, 1, 2):
            for c in dom.cells[d]:
                yield F(d + 1, dom.ident(d, c)) == cod.ident(d, F(d, c)), \
                    ("identity", d, c)

    def local_sesqui():
        for (b, a) in sorted(dom.comp1_22, key=repr):
            yield F(2, dom.comp1(b, a)) == cod.comp1(F(2, b), F(2, a)), \
                ("comp1", b, a)
        for (d3, g3) in sorted(dom.comp2_33, key=repr):
            yield F(3, dom.comp2(d3, g3)) == cod.comp2(F(3, d3), F(3, g3)), \
                ("comp2", d3, g3)
        for (c, g3) in sorted(dom.whisk_l23, key=repr):
            yield F(3, dom.wl23(c, g3)) == cod.wl23(F(2, c), F(3, g3)), \
                ("whisk_l23", c, g3)
        for (g3, c) in sorted(dom.whisk_r23, key=repr):
            yield F(3, dom.wr23(g3, c)) == cod.wr23(F(3, g3), F(2, c)), \
                ("whisk_r23", g3, c)

    def cocycle():
        for (f1, f2) in pairs:
            c = F.coc(f1, f2)
            img = cod.comp0(F(1, f1), F(1, f2))
            ok = (cod.src(2, c) == img and cod.tgt(2, c) == F(1, dom.comp0(f1, f2)))
            yield ok, ("cocycle-faces", f1, f2)
            try:
                cod.inv_2(c)
                ok = True
            except GrayError:
                ok = False
            yield ok, ("cocycle-invertible", f1, f2)
            if dom.is_id1(f1) or dom.is_id1(f2):
                yield _is_id2(cod, c), ("cocycle-normalized", f1, f2)
        for (f1, f2) in pairs:
            for f3 in dom.by_tgt(1, dom.src(1, f2)):
                lhs = cod.comp1(F.coc(f1, dom.comp0(f2, f3)),
                                cod.wl12(F(1, f1), F.coc(f2, f3)))
                rhs = cod.comp1(F.coc(dom.comp0(f1, f2), f3),
                                cod.wr12(F.coc(f1, f2), F(1, f3)))
                yield lhs == rhs, ("cocycle-equation", f1, f2, f3)

    def whisker_coherence():
        for (g, f) in pairs:
            for a in dom.by_src(2, g):
                g1 = dom.tgt(2, a)
                lhs = cod.comp1(F(2, dom.wr12(a, f)), F.coc(g, f))
                rhs = cod.comp1(F.coc(g1, f), cod.wr12(F(2, a), F(1, f)))
                yield lhs == rhs, ("whisker-left-coherent", a, f)
            for a in dom.by_src(2, f):
                f1 = dom.tgt(2, a)
                lhs = cod.comp1(F(2, dom.wl12(g, a)), F.coc(g, f))
                rhs = cod.comp1(F.coc(g, f1), cod.wl12(F(1, g), F(2, a)))
                yield lhs == rhs, ("whisker-right-coherent", g, a)

    def whisker3_coherence():
        for (g, f) in pairs:
            for g3 in dom.by_src(3, g, 1):
                g1 = dom.tgt(2, dom.src(3, g3))
                lhs = cod.wr23(F(3, dom.wr13(g3, f)), F.coc(g, f))
                rhs = cod.wl23(F.coc(g1, f), cod.wr13(F(3, g3), F(1, f)))
                yield lhs == rhs, ("whisker3-left-coherent", g3, f)
            for g3 in dom.by_src(3, f, 1):
                f1 = dom.tgt(2, dom.src(3, g3))
                lhs = cod.wr23(F(3, dom.wl13(g, g3)), F.coc(g, f))
                rhs = cod.wl23(F.coc(g, f1), cod.wl13(F(1, g), F(3, g3)))
                yield lhs == rhs, ("whisker3-right-coherent", g, g3)

    def tensor_coherence():
        for b in dom.cells[2]:
            for a in dom.by_tgt(2, dom.src0(2, b), 0):
                g, g1 = dom.src(2, b), dom.tgt(2, b)
                f, f1 = dom.src(2, a), dom.tgt(2, a)
                lhs = cod.wr23(F(3, dom.tensor(b, a)), F.coc(g, f))
                rhs = cod.wl23(F.coc(g1, f1), cod.tensor(F(2, b), F(2, a)))
                yield lhs == rhs, ("tensor-coherent", b, a)

    def compositor_tensors_trivial():
        for (f1, f2) in pairs:
            for f3 in dom.by_tgt(1, dom.src(1, f2)):
                for f4 in dom.by_tgt(1, dom.src(1, f3)):
                    t = cod.tensor(F.coc(f1, f2), F.coc(f3, f4))
                    yield _is_id3(cod, t), ("compositor-tensor-trivial",
                                            (f1, f2), (f3, f4))

    def mixed_tensors_vanish():
        for (g, f) in pairs:
            c = F.coc(g, f)
            for a in dom.by_tgt(2, dom.src(1, f), 0):
                t = cod.tensor(c, F(2, a))
                yield _is_id3(cod, t), ("tensor-cocycle-left", (g, f), a)
            for a in dom.by_src(2, dom.tgt(1, g), 0):
                t = cod.tensor(F(2, a), c)
                yield _is_id3(cod, t), ("tensor-cocycle-right", a, (g, f))

    return run_laws([
        ("globular-and-identities", globular()),
        ("local-sesquifunctor", local_sesqui()),
        ("cocycle", cocycle()),
        ("whisker-coherence", whisker_coherence()),
        ("whisker3-coherence", whisker3_coherence()),
        ("tensor-coherence", tensor_coherence()),
        ("compositor-tensors-trivial", compositor_tensors_trivial()),
        ("mixed-tensors-vanish", mixed_tensors_vanish()),
    ])


def _is_id3(C, g):
    if hasattr(C, "is_id3"):
        return C.is_id3(g)
    a = C.src(3, g)
    return C.ident(2, a) == g


# -- tilde / vee -------------------------------------------------------------


class TildeMap:
    """The strict evaluator Q1(dom) -> cod determined by a pseudo map."""

    def __init__(self, F):
        self.F = F
        self.dom = F.dom
        self.cod = F.cod

    def kappa_image(self, lst):
        """F~ kappa_[f1..fn]: F f1 #0 .. #0 F fn  =>  F(f1 #0 .. #0 fn)."""
        F, cod, dom = self.F, self.cod, self.dom
        fs = lst[2]
        if len(fs) <= 1:
            return cod.ident(1, self._fold(lst))
        head, rest = fs[0], ("q1", lst[1], fs[1:])
        rest_comp = q1_counit(dom, rest)
        inner = cod.wl12(F(1, head), self.kappa_image(rest))
        return cod.comp1(F.coc(head, rest_comp), inner)

    def _fold(self, lst):
        F, cod = self.F, self.cod
        if not lst[2]:
            return cod.ident(0, F(0, lst[1]))
        return cod.fold0([F(1, f) for f in lst[2]])

    def __call__(self, c):
        F, cod = self.F, self.cod
        tag = q1_tag(c)
        if tag is None:
            return F(0, c)
        if tag == "q1":
            return self._fold(c)
        if tag == "q2":
            ks = self.kappa_image(c[2])
            kt = self.kappa_image(c[3])
            return cod.comp1(cod.inv_2(kt), cod.comp1(F(2, c[1]), ks))
        if tag == "q3":
            ks = self.kappa_image(c[2][2])
            kt = self.kappa_image(c[2][3])
            out = cod.wr23(F(3, c[1]), ks)
            return cod.wl23(cod.inv_2(kt), out)
        raise GrayError(f"not a q1 cell: {c!r}")


def tilde(F):
    return TildeMap(F)


def vee(W, dom, cod, name=""):
    """Read a pseudo map off a strict evaluator on Q1 cells."""
    assign = {0: {}, 1: {}, 2: {}, 3: {}}
    for x in dom.cells[0]:
        assign[0][x] = W(x)
    for f in dom.cells[1]:
        assign[1][f] = W(q1_normalize(dom, [f], anchor=dom.src(1, f)))
    for a in dom.cells[2]:
        f, g = dom.src(2, a), dom.tgt(2, a)
        c = ("q2", a, q1_normalize(dom, [f], anchor=dom.src(1, f)),
             q1_normalize(dom, [g], anchor=dom.src(1, g)))
        assign[2][a] = W(c)
    for g3 in dom.cells[3]:
        a, b = dom.src(3, g3), dom.tgt(3, g3)
        f = dom.src(2, a)
        lf = q1_normalize(dom, [f], anchor=dom.src(1, f))
        lg = q1_normalize(dom, [dom.tgt(2, a)], anchor=dom.src(1, f))
        c = ("q3", g3, ("q2", a, lf, lg), ("q2", b, lf, lg))
        assign[3][g3] = W(c)
    coc = {}
    for (f1, f2) in _comp_pairs(dom):
        if dom.is_id1(f1) or dom.is_id1(f2):
            continue
        coc[(f1, f2)] = W(kappa(dom, f1, f2))
    return PseudoMap(dom, cod, assign, coc, name=name)


def tilde_vee_roundtrip(F, max_len=2):
    """vee(tilde(F)) == F, and tilde(vee(tilde F)) == tilde(F) on short lists."""
    W = tilde(F)
    F2 = vee(W, F.dom, F.cod, name=F.name)
    if not pseudo_maps_equal(F, F2):
        return False
    W2 = tilde(F2)
    L = Q1Layer(F.dom)
    for c in L.lists1(max_len):
        if W(c) != W2(c):
            return False
    for c in L.cells2(max_len):
        if W(c) != W2(c):
            return False
    for c in L.cells3(max_len):
        if W(c) != W2(c):
            return False
    return True


# -- strictification ---------------------------------------------------------


def generator_decomposition(C):
    """Unique reduced generator word for each 1-cell of a 1-free category."""
    if C.generators is None:
        raise NotOneFree(f"{C.name} carries no generating 1-cells")
    words = {}
    for x in C.cells[0]:
        words[C.id_up[0][x]] = ()
    frontier = {g: (g,) for g in C.generators}
    for g, w in frontier.items():
        if g in words and words[g] != w:
            raise NotOneFree(f"generator {g!r} collides with an identity")
        words[g] = w
    while frontier:
        new = {}
        for f, w in frontier.items():
            for g in C.generators:
                if C.src(1, g) == C.tgt(1, f):
                    h = C.comp0_11.get((g, f))
                    if h is None:
                        raise NotOneFree(f"missing composite {g!r} #0 {f!r}")
                    word = (g,) + w
                    if h in words:
                        if words[h] != word:
                            raise NotOneFree(f"1-cell {h!r} decomposes two ways")
                    else:
                        words[h] = word
                        new[h] = word
        frontier = new
    missing = [f for f in C.cells[1] if f not in words]
    if missing:
        raise NotOneFree(f"{C.name}: not generated: {missing!r}")
    return words


def section_k(C, c):
    """The splitting k for a 1-free category, on any cell or q1 list."""
    words = generator_decomposition(C)

    def on(d, cell):
        if d == 0:
            return cell
        if d == 1:
            return ("q1", C.src(1, cell), words[cell])
        if d == 2:
            return ("q2", cell, on(1, C.src(2, cell)), on(1, C.tgt(2, cell)))
        return ("q3", cell, on(2, C.src(3, cell)), on(2, C.tgt(3, cell)))

    if q1_tag(c) is not None:
        raise GrayError("section_k acts on base cells")
    # dimension is inferred from membership
    for d in (0, 1, 2, 3):
        if C.has_cell(d, c):
            return on(d, c)
    raise GrayError(f"{c!r} is not a cell of {C.name}")


def strictify(F):
    """(F~ k e)-vee: the idempotent strictification for a 1-free domain."""
    dom, cod = F.dom, F.cod
    words = generator_decomposition(dom)
    W = tilde(F)

    def k1(f):
        return ("q1", dom.src(1, f), words[f])

    assign = {0: dict(F.assignment[0]), 1: {}, 2: {}, 3: {}}
    for f in dom.cells[1]:
        assign[1][f] = W(k1(f))
    for a in dom.cells[2]:
        assign[2][a] = W(("q2", a, k1(dom.src(2, a)), k1(dom.tgt(2, a))))
    for g3 in dom.cells[3]:
        a, b = dom.src(3, g3), dom.tgt(3, g3)
        assign[3][g3] = W(("q3", g3,
                           ("q2", a, k1(dom.src(2, a)), k1(dom.tgt(2, a))),
                           ("q2", b, k1(dom.src(2, b)), k1(dom.tgt(2, b)))))
    coc = {}
    for (f1, f2) in _comp_pairs(dom):
        img = cod.comp0(assign[1][f1], assign[1][f2])
        coc[(f1, f2)] = cod.ident(1, img)
    return PseudoMap(dom, cod, assign, coc, name=f"strictify({F.name})")


# -- comonad laws ------------------------------------------------------------


def comonad_law_check(C, max_len=3):
    """e/d laws and co-associativity on symbolic cells up to max_len."""
    L = Q1Layer(C)

    def enum_cells():
        for c in L.lists1(max_len):
            yield 1, c
        for c in L.cells2(max_len):
            yield 2, c
        for c in L.cells3(max_len):
            yield 3, c

    def counit_laws():
        for d, c in enum_cells():
            dc = q1_comult(C, c)
            yield q1_counit(L, dc) == c, ("e-after-d", d, c)
            yield _q1_e_layer(C, dc) == c, ("Q1e-after-d", d, c)

    def coassoc():
        for d, c in enum_cells():
            lhs = q1_comult(L, q1_comult(C, c))
            rhs = _q1_d_layer(C, q1_comult(C, c))
            yield lhs == rhs, ("d-coassociative", d, c)

    def k_laws():
        for d in (0, 1, 2, 3):
            for c in C.cells[d]:
                kc = section_k(C, c)
                yield q1_counit(C, kc) == c, ("k-section-of-e", d, c)
                lhs = q1_comult(C, kc)
                rhs = _q1_k_layer(C, kc)
                yield lhs == rhs, ("d-k-square", d, c)

    laws = [("counit-laws", counit_laws()),
            ("comultiplication-coassociative", coassoc())]
    if C.generators is not None:
        laws.append(("k-section-and-square", k_laws()))
    return run_laws(laws)


def _q1_e_layer(C, cell):
    """Q1(e): strip one inner layer off a Q1(Q1 G) cell."""
    tag = q1_tag(cell)
    if tag is None:
        return cell
    if tag == "q1":
        return q1_normalize(C, [q1_counit(C, f) for f in cell[2]], anchor=cell[1])
    if tag in ("q2", "q3"):
        return (tag, q1_counit_inner(C, cell[1]),
                _q1_e_layer(C, cell[2]), _q1_e_layer(C, cell[3]))
    raise GrayError(f"bad layered cell {cell!r}")


def q1_counit_inner(C, inner):
    """e of an inner Q1 cell (the base cell it carries, or the fold)."""
    if q1_tag(inner) in ("q2", "q3"):
        return inner[1]
    return q1_counit(C, inner)


def _q1_d_layer(C, cell):
    """Q1(d) applied to a Q1(Q1 G) cell: comultiply every inner constituent."""
    tag = q1_tag(cell)
    if tag is None:
        return cell
    if tag == "q1":
        return ("q1", cell[1], tuple(q1_comult(C, f) for f in cell[2]))
    return (tag, q1_comult(C, cell[1]),
            _q1_d_layer(C, cell[2]), _q1_d_layer(C, cell[3]))


def _q1_k_layer(C, cell):
    """Q1(k) applied to a Q1 G cell for 1-free G."""
    words = generator_decomposition(C)

    def k1(f):
        return ("q1", C.src(1, f), words[f])

    def k_cell(c):
        tag = q1_tag(c)
        if tag is None:
            return c
        if tag == "q1":
            return ("q1", c[1], tuple(k1(f) for f in c[2]))
        if tag == "q2":
            return ("q2", section_k(C, c[1]), k_cell(c[2]), k_cell(c[3]))
        return ("q3", section_k(C, c[1]), k_cell(c[2]), k_cell(c[3]))

    return k_cell(cell)


# -- serialization ------------------------------------------------------------


def pseudo_map_to_doc(F):
    from .presentation import _enc
    return {
        "name": F.name,
        "assignment": {str(d): sorted(([_enc(c), _enc(v)]
                                       for c, v in F.assignment[d].items()),
                                      key=repr)
                       for d in (0, 1, 2, 3)},
        "cocycle": sorted(([_enc(f1), _enc(f2), _enc(v)]
                           for (f1, f2), v in F.cocycle.items()), key=repr),
    }


def pseudo_map_from_doc(doc, dom, cod):
    from .presentation import _decoder
    dec = _decoder()
    assign = {int(d): {dec(c): dec(v) for c, v in entries}
              for d, entries in doc["assignment"].items()}
    coc = {(dec(f1), dec(f2)): dec(v) for f1, f2, v in doc["cocycle"]}
    return PseudoMap(dom, cod, assign, coc, name=doc.get("name", ""))
