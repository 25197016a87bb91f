"""Composition of paths: the pseudo map m, its cocycle, and the inverse o.

m composes a vertically composable pair of path cells by horizontal pasting;
its 2-cocycle resolves the interchange between 'composite of images' and
'image of composites' and has identity 2-cell components, so the face maps
of the resulting internal category are strict even though m is not.

The n-fold pullbacks are kernel.pullback's join on cell positions, one
factor at a time: every table entry is an integer lookup in path(H)'s (and
the previous pullback's) tables, re-keyed once by cell position.  The
internal category laws' triple pullback is never built: its cells and
composable 1-cell pairs are position triples of path(H)'s cells.

m is built by lookup, one dimension at a time: a cell's image reads its
faces' images from m's lower table, m_cocycle runs once per composable pair
of the 2-fold pullback over the tabulated path(H), reading the images of
its pairs from m's 1-table, and every value is the object path(H) holds;
m_apply and m_cocycle over PathView(H) are the formula oracle.  The
associativity check reads both sides off m, with no map over the triple
pullback: cells m(m(a, b), c) against m(a, m(b, c)), and the co-Kleisli
cocycles of m after m x 1 and after 1 x m, from m's cocycle table and
path(H)'s identities.  The laws of m run on positions (m's position copy,
path(H)'s position copy, m's images and cocycles keyed by positions); a law
that fails runs again on the nested cells, which name its witness.
"""

from __future__ import annotations

from .kernel import (NotAGroupoid, NotComposable, _by_position, _ranks,
                     law_report, pullback, run_laws)
from .pathspace import (PathView, build_pathspace, degeneracy, face_map, p2,
                        p3, pd0, pd1, pdim, sq)
from .resolution import PseudoMap, _validate_by_position, validate_pseudo_map


def composable_tuples(PH, H, n):
    """n-tuples of path cells, adjacent ones matched by d0 = d1."""
    out = {d: [] for d in (0, 1, 2, 3)}
    for d in (0, 1, 2, 3):
        by_d1 = {}
        for c in PH.cells[d]:
            by_d1.setdefault(pd1(H, d, c), []).append(c)
        tuples = [(c,) for c in PH.cells[d]]
        for _ in range(n - 1):
            tuples = [t + (c,) for t in tuples
                      for c in by_d1.get(pd0(H, d, t[-1]), ())]
        out[d] = tuples
    return out


def build_pullback(PH, H, n=2, name=""):
    """The strict pullback path(H) x_H .. x_H path(H), tabulated.

    Its cells are the n-tuples of composable_tuples, in that order.  It is
    built by kernel.pullback one factor at a time, so every entry is a
    lookup in PH's checked tables, joined on cell positions.
    """
    K = pullback(PH, face_map(PH, H, 0).maps, PH, face_map(PH, H, 1).maps,
                 lambda x, y: (x, y), name or f"pb2({H.name})")
    for k in range(3, n + 1):
        K = extend_pullback(K, PH, H, name or f"pb{k}({H.name})")
    return K


def extend_pullback(K, PH, H, name):
    """K x_H path(H) for an n-fold pullback K: the (n+1)-fold pullback, whose
    cells t + (c,) match the last component of t to c by d0 = d1."""
    return pullback(*_extension(K, PH, H), name)


def _extension(K, PH, H):
    """The factors, face images and pairing of extend_pullback."""
    last = {d: {t: pd0(H, d, t[-1]) for t in K.cells[d]} for d in K.DIMS}
    return K, last, PH, face_map(PH, H, 1).maps, lambda t, c: t + (c,)


# -- the composite of paths ----------------------------------------------------


def m_apply(H, d, u, l):
    """Horizontal pasting of the composable pair (u after l) of path d-cells.

    The dimension is explicit because over an iterated base the tuple tag of
    a cell reflects its shape one level down, not its path dimension.
    """
    if d == 0:
        return H.comp0(u, l)
    return _m_cell(H, d, u, l, lambda x, y: m_apply(H, d - 1, x, y))


def _m_cell(H, d, u, l, lower):
    """m_apply(H, d, u, l) for d > 0, where lower(x, y) is m's image of
    the pair (x, y) of u's and l's (d-1)-faces."""
    if d == 1:
        if pd0(H, 1, u) != pd1(H, 1, l):
            raise NotComposable("m: pair of squares not composable")
        two = H.comp1(H.wl12(u[5], l[1]), H.wr12(u[1], l[4]))
        return sq(H, two, l[2], u[3], lower(u[4], l[4]), lower(u[5], l[5]))
    if d == 2:
        fh1 = u[4][5]                       # bottom 1-cell of the upper pair
        top = l[4][4]
        step1 = H.wr23(H.wl13(fh1, l[1]), H.wr12(u[4][1], top))
        step2 = H.wl23(H.wl12(fh1, l[5][1]), H.wr13(u[1], top))
        return p2(H, H.comp2(step2, step1), l[2], u[3],
                  lower(u[4], l[4]), lower(u[5], l[5]))
    return p3(H, l[1], u[2], lower(u[3], l[3]), lower(u[4], l[4]))


def m_cocycle(H, V, q, p):
    """The interchanging square between m(q) o m(p) and m(q o p).

    q and p are vertically composable pairs of squares (q below p); the
    3-component whiskers the base tensor of the two off-diagonal 2-cells,
    and both 2-cell faces are identities.  V composes path cells; m's
    images of pairs of squares are V.image's when V has one (m_pseudo's
    _Images reads m's 1-table), m_apply's otherwise.
    """
    qu, ql = q
    pu, pl = p
    if qu[4] != pu[5] or ql[4] != pl[5]:
        raise NotComposable("m cocycle: pairs not vertically composable")
    image = getattr(V, "image", None) or (lambda u, l: m_apply(H, 1, u, l))
    mid = H.tensor(qu[1], pl[1])
    left2 = H.wl12(qu[5], H.wr12(ql[1], pl[2]))
    right2 = H.wr12(H.wl12(qu[3], pu[1]), pl[4])
    t = H.wl23(left2, H.wr23(mid, right2))
    a1 = H.ident(1, H.comp0(ql[2], pl[2]))
    a2 = H.ident(1, H.comp0(qu[3], pu[3]))
    gq = V.comp0(image(qu, ql), image(pu, pl))
    hq = image(V.comp0(qu, pu), V.comp0(ql, pl))
    return p2(H, t, a1, a2, gq, hq)


class _Images:
    """path(H) as m_pseudo gives it to m_cocycle: PH's comp0, and m's image
    of a pair of squares read from m's 1-table, as _m_cell's lower reads
    the table below."""

    def __init__(self, PH, table):
        self.comp0 = PH.comp0
        self.table = table

    def image(self, u, l):
        return self.table[(u, l)]


def m_pseudo(H, PH=None):
    """m as a PseudoMap on the tabulated pullback, built one dimension at a
    time by lookup: the image of a d-cell reads the images of its faces
    from m's (d-1)-table, m_cocycle runs once per composable pair over the
    tabulated PH and reads the images of its pairs from m's 1-table, and
    every value is the object PH holds (held, as PH.canonical gives it
    without building PH's face index).  m_apply and m_cocycle over
    PathView(H) are the formula oracle."""
    PH = PH or build_pathspace(H)
    K = build_pullback(PH, H, 2)
    held = {d: dict(zip(PH.cells[d], PH.cells[d])) for d in PH.DIMS}
    assign = {0: {c: held[0][H.comp0(*c)] for c in K.cells[0]}}
    for d in (1, 2, 3):
        lower = assign[d - 1]
        assign[d] = {c: held[d][_m_cell(H, d, *c, lambda x, y: lower[(x, y)])]
                     for c in K.cells[d]}
    V = _Images(PH, assign[1])
    coc = {pair: held[2][m_cocycle(H, V, *pair)] for pair in K.comp0_11}
    return PH, K, PseudoMap(K, PH, assign, coc, name=f"m({H.name})")


def verify_m_pseudo(H):
    """Lemma-level check: m is a pseudo Q1 graph map over path(H) x_H path(H),
    by validate_pseudo_map's laws on m's position copy."""
    return _validate_by_position(m_pseudo(H)[2])


# -- internal category laws ----------------------------------------------------


def verify_internal_category(H):
    """m is a pseudo map, then the face conditions, units and associativity
    of the internal category.

    K3, the triple pullback K x_H path(H) of m's 2-fold pullback K, is
    never built: its d-cells are the position triples (a, b, c) of
    path(H)'s d-cells with d1(c) = d0(b), and its composable 1-cell pairs
    are found from path(H)'s position copy, both in the order
    pullback_cells and composable_keys give them.  Associativity compares
    m(m(a, b), c) with m(a, m(b, c)) per K3 cell and, per pair, the
    cocycles G F^2 #1 G^2 of m after m x 1 and after 1 x m: F^2 pairs an
    entry of m's cocycle table with an identity of path(H).

    As in check_gray_axioms, the laws run on positions: validate_pseudo_map's
    on m's position copy, the internal ones on path(H)'s position copy, with
    m's images and cocycles re-keyed to positions; the unit-cocycle tuples
    are read off m and path(H) themselves.  A law that fails runs again on
    nested cells, for its witness: K3's triples and pairs mapped back to
    path(H)'s cells.  path(H)'s ranks and position copy are built once, for
    both.
    """
    PH, K, m = m_pseudo(H)
    rank = _ranks(PH)
    N = _by_position(PH, rank)
    internal = _internal_reports(H, PH, K, m, rank, N)
    return _validate_by_position(m, (rank, N)) + internal


def _internal_reports(H, PH, K, m, rank, N):
    """The reports of the internal laws of verify_internal_category, given
    path(H)'s ranks and its position copy N."""
    dims = PH.DIMS
    D0 = {d: dict(enumerate(pd0(H, d, c) for c in PH.cells[d])) for d in dims}
    D1 = {d: dict(enumerate(pd1(H, d, c) for c in PH.cells[d])) for d in dims}
    comps = {d: [(rank[d][a], rank[d][b]) for a, b in K.cells[d]]
             for d in dims}
    mul = {d: {(rank[d][a], rank[d][b]): rank[d][v]
               for (a, b), v in m.assignment[d].items()} for d in dims}
    triples = {d: _triples(comps[d], D0[d], D1[d]) for d in dims}
    pairs = _composable_triples(triples[1], N.src_[1], N.tgt_[1])
    r1, r2 = rank[1], rank[2]
    coc = {((r1[qu], r1[ql]), (r1[pu], r1[pl])): r2[v]
           for ((qu, ql), (pu, pl)), v in m.cocycle.items()}
    degenerate = {}

    def unit(d, i):
        # the positions of the degenerate cells on cell i's faces in H, each
        # found once per face
        for x in (D0[d][i], D1[d][i]):
            if (d, x) not in degenerate:
                degenerate[(d, x)] = rank[d][degeneracy(H, d, x)]
        return degenerate[(d, D0[d][i])], degenerate[(d, D1[d][i])]

    def nested():
        cells = {d: [tuple(PH.cells[d][i] for i in t) for t in triples[d]]
                 for d in dims}
        nested_pairs = [tuple(tuple(PH.cells[1][i] for i in t) for t in pair)
                        for pair in pairs]
        return _internal_laws(
            m, PH.cells, K.cells, m.assignment, cells,
            lambda d, c: pd0(H, d, c), lambda d, c: pd1(H, d, c),
            lambda d, c: (degeneracy(H, d, pd0(H, d, c)),
                          degeneracy(H, d, pd1(H, d, c))),
            lambda: _assoc_cocycles(
                nested_pairs, _Reads(PH.comp0), PH.id_up[1],
                _Reads(PH.comp1), _Reads(m.coc), m.assignment[1],
                m.assignment[2]))

    return run_laws(_internal_laws(
        m, {d: range(len(PH.cells[d])) for d in dims}, comps, mul, triples,
        lambda d, c: D0[d][c], lambda d, c: D1[d][c], unit,
        # N's tables read directly: an entry it lacks fails the law, which
        # then runs on the nested cells through path(H)'s guarded operations
        lambda: _assoc_cocycles(pairs, N.comp0_11, N.id_up[1], N.comp1_22,
                                coc, mul[1], mul[2])),
        witness=nested)


def _triples(comps, d0, d1):
    """The d-cells of K x_H path(H) as position triples (a, b, c): for each
    (a, b) of K's d-cells comps in order, the c with d1[c] == d0[b] in
    path(H)'s order, as pullback_cells lists them; d0[c] and d1[c] are the
    faces in H of path(H)'s c-th d-cell."""
    over = {}
    for c, y in d1.items():
        over.setdefault(y, []).append(c)
    return [(a, b, c) for a, b in comps for c in over.get(d0[b], ())]


def _composable_triples(ones, src, tgt):
    """The composable pairs (h, g) of the 1-cell triples ones, whose faces
    are componentwise (src and tgt of path(H)'s position copy), in
    composable_keys' "comp0" order: for each g in order, the h with
    src(h) = tgt(g) in order."""
    by_src = {}
    for h in ones:
        by_src.setdefault((src[h[0]], src[h[1]], src[h[2]]), []).append(h)
    return [(h, g) for g in ones
            for h in by_src.get((tgt[g[0]], tgt[g[1]], tgt[g[2]]), ())]


def _assoc_cocycles(pairs, comp0, id1, comp1, coc, m1, m2):
    """The assoc-cocycle tuples over the composable 1-cell pairs (t, s) of
    K3, read by subscript on path(H) or on positions: comp0[g, f] and
    comp1[b, a] compose path cells, id1[f] is f's identity, coc[q, p] is
    m's cocycle at a pair of K, m1[a, b] and m2[a, b] are m's images of
    K's 1- and 2-cells.  Both sides' cocycles are formed at every pair
    before any is compared, as kleisli_compose forms a composite's, so one
    that cannot be formed fails the law at its first tuple."""
    lhs = [comp1[m2[coc[(a, b), (x, y)], id1[comp0[c, z]]],
                 coc[(m1[a, b], c), (m1[x, y], z)]]
           for (a, b, c), (x, y, z) in pairs]
    rhs = [comp1[m2[id1[comp0[a, x]], coc[(b, c), (y, z)]],
                 coc[(a, m1[b, c]), (x, m1[y, z])]]
           for (a, b, c), (x, y, z) in pairs]
    return ((l == r, ("assoc-cocycle", pair))
            for pair, l, r in zip(pairs, lhs, rhs))


class _Reads:
    """A function read by subscript, as a table is: r[a, b] is f(a, b)."""

    def __init__(self, f):
        self.f = f

    def __getitem__(self, key):
        return self.f(*key)


def _internal_laws(m, cells, comps, mul, triples, d0, d1, unit,
                   assoc_cocycles):
    """The internal category laws on one route, as (name, generator) pairs:
    cells[d] lists path(H)'s d-cells, comps[d] and triples[d] the
    components of K's and K3's, mul[d][(a, b)] is m's image of (a, b), d0
    and d1 give a path cell's faces in H, unit(d, c) the degenerate cells
    on c's faces, and assoc_cocycles() the assoc-cocycle tuples."""
    PH, K = m.cod, m.dom

    def faces():
        for d in PH.DIMS:
            for a, b in comps[d]:
                mc = mul[d][(a, b)]
                yield d0(d, mc) == d0(d, b), ("d0-of-m", d, a, b)
                yield d1(d, mc) == d1(d, a), ("d1-of-m", d, a, b)

    def units():
        for d in PH.DIMS:
            for c in cells[d]:
                right, left = unit(d, c)
                yield mul[d][(c, right)] == c, ("right-unit", d, c)
                yield mul[d][(left, c)] == c, ("left-unit", d, c)
        # unital cocycles: composites with degenerate pairs are trivial
        for (q, p) in K.comp0_11:
            if K.is_id1(q) or K.is_id1(p):
                yield PH.is_id2(m.coc(q, p)), ("unit-cocycle", q, p)

    def assoc():
        cocycles = assoc_cocycles()
        for d in PH.DIMS:
            for a, b, c in triples[d]:
                yield (mul[d][(mul[d][(a, b)], c)]
                       == mul[d][(a, mul[d][(b, c)])],
                       ("assoc-cells", d, (a, b, c)))
        yield from cocycles

    return [
        ("internal-source-target", faces()),
        ("internal-units", units()),
        ("internal-associativity", assoc()),
    ]


def m_naturality_check(F, H, K_cod):
    """The strict-functor naturality square for m (elementwise)."""
    _, KH, mH = m_pseudo(H)
    from .pathspace import path_map
    fn = lambda d, c: F.maps[d][c]

    def image(d, c):
        return path_map(fn, c) if d > 0 else F.maps[1][c]

    def squares():
        for d in (0, 1, 2, 3):
            for (a, b) in KH.cells[d]:
                lhs = image(d, mH(d, (a, b)))
                rhs = m_apply(K_cod, d, image(d, a), image(d, b))
                yield lhs == rhs, (d, a, b)

    return law_report("m-naturality", squares())


# -- the inverse map o ---------------------------------------------------------


def o_cell(H, c):
    """The m-inverse of a path cell (H a Gray-groupoid)."""
    if not H.is_groupoid:
        raise NotAGroupoid(f"{H.name} is not flagged as a groupoid")
    d = pdim(c)
    if d == 0:
        return H.inv_1(c)
    if d == 1:
        f, f1 = c[4], c[5]
        fb, f1b = H.inv_1(f), H.inv_1(f1)
        w = H.wl12(f1b, H.wr12(H.inv_2(c[1]), fb))
        return sq(H, w, c[3], c[2], fb, f1b)
    if d == 2:
        gq, hq = c[4], c[5]
        f, f1 = gq[4], gq[5]
        fb, f1b = H.inv_1(f), H.inv_1(f1)
        ogq, ohq = o_cell(H, gq), o_cell(H, hq)
        w3 = H.wl13(f1b, H.wr13(H.inv_3(c[1]), fb))
        t = H.wl23(ohq[1], H.wr23(w3, ogq[1]))
        return p2(H, t, c[3], c[2], ogq, ohq)
    return p3(H, c[2], c[1], o_cell(H, c[3]), o_cell(H, c[4]))


def o_cocycle(H, V, q, p):
    """o^2: o(q) o o(p) => o(q o p), by the whiskered inverse tensor."""
    if q[4] != p[5]:
        raise NotComposable("o cocycle: squares not composable")
    fb = H.inv_1(p[4])
    f1b = H.inv_1(p[5])
    f2b = H.inv_1(q[5])
    mid = H.tensor(H.wr12(H.inv_2(q[1]), f1b), H.inv_2(p[1]))
    t = H.wl13(f2b, H.wr13(mid, fb))
    oq, op = o_cell(H, q), o_cell(H, p)
    gq = V.comp0(oq, op)
    hq = o_cell(H, V.comp0(q, p))
    a1 = H.ident(1, H.comp0(q[3], p[3]))
    a2 = H.ident(1, H.comp0(q[2], p[2]))
    return p2(H, t, a1, a2, gq, hq)


def o_pseudo(H):
    PH = build_pathspace(H)
    V = PathView(H)
    assign = {d: {c: o_cell(H, c) for c in PH.cells[d]} for d in (0, 1, 2, 3)}
    coc = {}
    for (q, p) in PH.comp0_11:
        coc[(q, p)] = o_cocycle(H, V, q, p)
    return PH, PseudoMap(PH, PH, assign, coc, name=f"o({H.name})")


def verify_internal_groupoid(H):
    """m(o(c), c) = i d0(c) and m(c, o(c)) = i d1(c), plus o's own validity."""
    PH, o = o_pseudo(H)

    def inverse_laws():
        for d in (0, 1, 2, 3):
            for c in PH.cells[d]:
                oc = o(d, c)
                lhs = m_apply(H, d, oc, c)
                yield lhs == degeneracy(H, d, pd0(H, d, c)), ("left-inverse", d, c)
                rhs = m_apply(H, d, c, oc)
                yield rhs == degeneracy(H, d, pd1(H, d, c)), ("right-inverse", d, c)

    return ([law_report("groupoid-inverse-laws", inverse_laws())]
            + validate_pseudo_map(o))
