"""Composition of paths: the pseudo map m, its cocycle, and the inverse o.

m composes a vertically composable pair of path cells by horizontal pasting;
its 2-cocycle resolves the interchange between 'composite of images' and
'image of composites' and has identity 2-cell components, so the face maps
of the resulting internal category are strict even though m is not.

The n-fold pullbacks are kernel.pullback's join on cell positions, one
factor at a time: every table entry is an integer lookup in path(H)'s (and
the previous pullback's) tables, re-keyed once by cell position.  The
internal category laws' triple pullback is pullback_cells' alone: no join.

m is built by lookup, one dimension at a time: a cell's image reads its
faces' images from m's lower table, m_cocycle runs once per composable pair
of the 2-fold pullback over the tabulated path(H), and every value is the
object path(H) holds; m_apply and m_cocycle over PathView(H) are the
formula oracle.  The associativity check reads both sides off m, with no
map over the triple pullback: cells m(m(a, b), c) against m(a, m(b, c)),
and the co-Kleisli cocycles of m after m x 1 and after 1 x m, from m's
cocycle table and path(H)'s identities.  The laws of m run on positions
(m's position copy, path(H)'s positions of the pullbacks' components); a
law that fails runs again on the nested cells, which name its witness.
"""

from __future__ import annotations

from .kernel import (NotAGroupoid, NotComposable, _ranks, composable_keys,
                     law_report, pullback, pullback_cells, run_laws)
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
    and both 2-cell faces are identities.
    """
    qu, ql = q
    pu, pl = p
    if qu[4] != pu[5] or ql[4] != pl[5]:
        raise NotComposable("m cocycle: pairs not vertically composable")
    mid = H.tensor(qu[1], pl[1])
    left2 = H.wl12(qu[5], H.wr12(ql[1], pl[2]))
    right2 = H.wr12(H.wl12(qu[3], pu[1]), pl[4])
    t = H.wl23(left2, H.wr23(mid, right2))
    a1 = H.ident(1, H.comp0(ql[2], pl[2]))
    a2 = H.ident(1, H.comp0(qu[3], pu[3]))
    gq = V.comp0(m_apply(H, 1, qu, ql), m_apply(H, 1, pu, pl))
    hq = m_apply(H, 1, V.comp0(qu, pu), V.comp0(ql, pl))
    return p2(H, t, a1, a2, gq, hq)


def m_pseudo(H, PH=None):
    """m as a PseudoMap on the tabulated pullback, built one dimension at a
    time by lookup: the image of a d-cell reads the images of its faces
    from m's (d-1)-table, m_cocycle runs once per composable pair over the
    tabulated PH, and every value is the object PH holds (held, as
    PH.canonical gives it without building PH's face index).  m_apply and
    m_cocycle over PathView(H) are the formula oracle."""
    PH = PH or build_pathspace(H)
    K = build_pullback(PH, H, 2)
    held = {d: dict(zip(PH.cells[d], PH.cells[d])) for d in PH.DIMS}
    assign = {0: {c: held[0][H.comp0(*c)] for c in K.cells[0]}}
    for d in (1, 2, 3):
        lower = assign[d - 1]
        assign[d] = {c: held[d][_m_cell(H, d, *c, lambda x, y: lower[(x, y)])]
                     for c in K.cells[d]}
    coc = {pair: held[2][m_cocycle(H, PH, *pair)] for pair in K.comp0_11}
    return PH, K, PseudoMap(K, PH, assign, coc, name=f"m({H.name})")


def verify_m_pseudo(H):
    """Lemma-level check: m is a pseudo Q1 graph map over path(H) x_H path(H),
    by validate_pseudo_map's laws on m's position copy."""
    return _validate_by_position(m_pseudo(H)[2])


# -- internal category laws ----------------------------------------------------


def verify_internal_category(H):
    """m is a pseudo map, then the face conditions, units and associativity
    of the internal category.

    K3 extends m's 2-fold pullback K by path(H) as a globular set
    (pullback_cells, no join).  Associativity compares m(m(a, b), c) with
    m(a, m(b, c)) per K3 cell and, per pair, the cocycles G F^2 #1 G^2 of
    m after m x 1 and after 1 x m: F^2 pairs an entry of m's cocycle table
    with an identity of path(H).

    As in check_gray_axioms, the laws run on positions: validate_pseudo_map's
    on m's position copy, the internal ones on path(H)'s positions of K's
    and K3's components, of m's images and of each cell's degeneracies
    (the unit-cocycle and assoc-cocycle tuples on m and path(H) themselves);
    a law that fails runs again on nested cells, for its witness.  The
    internal laws run first, so that K3 and their ranks are dropped before
    m's position copy is built.
    """
    PH, K, m = m_pseudo(H)
    internal = _internal_reports(H, PH, K, m)
    return _validate_by_position(m) + internal


def _internal_reports(H, PH, K, m):
    """The reports of the internal laws of verify_internal_category."""
    rank, dims = _ranks(PH), PH.DIMS
    K3, _ = pullback_cells(*_extension(K, PH, H), f"pb3({H.name})")
    pairs = list(composable_keys(K3, "comp0"))
    triples = {d: [tuple(rank[d][x] for x in c) for c in K3.cells[d]]
               for d in dims}
    del K3, _
    D0 = {d: dict(enumerate(pd0(H, d, c) for c in PH.cells[d])) for d in dims}
    D1 = {d: dict(enumerate(pd1(H, d, c) for c in PH.cells[d])) for d in dims}
    comps = {d: [(rank[d][a], rank[d][b]) for a, b in K.cells[d]]
             for d in dims}
    mul = {d: {(rank[d][a], rank[d][b]): rank[d][v]
               for (a, b), v in m.assignment[d].items()} for d in dims}

    def assoc_cocycles():
        # both sides' cocycles at every pair, before any tuple is compared,
        # as kleisli_compose forms a composite's: one that cannot be formed
        # fails the law at its first tuple
        lhs = [PH.comp1(m(2, (m.coc(t[:2], s[:2]),
                              PH.ident(1, PH.comp0(t[2], s[2])))),
                        m.coc((m(1, t[:2]), t[2]), (m(1, s[:2]), s[2])))
               for (t, s) in pairs]
        rhs = [PH.comp1(m(2, (PH.ident(1, PH.comp0(t[0], s[0])),
                              m.coc(t[1:], s[1:]))),
                        m.coc((t[0], m(1, t[1:])), (s[0], m(1, s[1:]))))
               for (t, s) in pairs]
        return ((l == r, ("assoc-cocycle", pair))
                for pair, l, r in zip(pairs, lhs, rhs))

    def nested():
        cells = {d: [tuple(PH.cells[d][i] for i in t) for t in triples[d]]
                 for d in dims}
        return _internal_laws(
            m, PH.cells, K.cells, m.assignment, cells,
            lambda d, c: pd0(H, d, c), lambda d, c: pd1(H, d, c),
            lambda d, c: (degeneracy(H, d, pd0(H, d, c)),
                          degeneracy(H, d, pd1(H, d, c))), assoc_cocycles)

    return run_laws(_internal_laws(
        m, {d: range(len(PH.cells[d])) for d in dims}, comps, mul, triples,
        lambda d, c: D0[d][c], lambda d, c: D1[d][c],
        lambda d, i: (rank[d][degeneracy(H, d, D0[d][i])],
                      rank[d][degeneracy(H, d, D1[d][i])]), assoc_cocycles),
        witness=nested)


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
