"""Double and triple path spaces, the parallel-cell space, and the tensor map.

The 2-path space over H collects the cells of path(path(H)) whose
componentwise face images are degenerate; 3-paths iterate the construction
once more.  Both come from path_cells, filtered by dbl_keep or tri_keep
one dimension at a time.  The 3-paths are matched to P2, the space of pairs
of 2-path cells with the same faces in path(H): one 3-path over each.  All
whiskers and horizontal composites are evaluated through the path-space
action on the pseudo map m (never through ad-hoc pasting), the 3-path
whiskers through one P' per operation and Tower.  Once a stage is built it
is read, not derived again: every universally induced value is looked up
in the stage it must land in (a miss is a construction bug, not an input
error), and an inner face is a face of the outer dj-image.  Every law picks
its tuples by an explicit face predicate read from an index (_by, _pairs),
and no law catches an exception: a construction that raises on a tuple its
predicate admits fails the law with an ("error", ...) counterexample.
"""

from __future__ import annotations

import weakref

from .kernel import (TABLES, FactorizationFailed, GrayCat, GrayError,
                     NotComposable, composable_keys, law_report, pullback,
                     run_laws)
from .kernel import hcomp_left as base_hcomp_left, hcomp_right as base_hcomp_right
from .pathspace import (PPrime, PathView, build_pathspace, degeneracy,
                        materialize, path_cells, path_map, path_squares, pd0,
                        pd1, pdim)
from .pathcomp import build_pullback, m_apply, m_cocycle, m_pseudo
from .resolution import PseudoMap


# -- degeneracy bookkeeping ----------------------------------------------------


def functorial_face(B, d, c, which):
    """The componentwise image of a cell of path(path(B)) under d0 or d1."""
    proj = pd0 if which == 0 else pd1
    if d == 0:
        return proj(B, 1, c)
    return path_map(lambda dd, x: proj(B, dd, x), c)


def undegenerate(B, d, c):
    """The base cell u with i(u) == c, or None if c is not degenerate."""
    if d == 0:
        return B.src(1, c) if B.is_id1(c) else None
    cand = c[2] if d in (1, 2) else c[1]
    return cand if c == degeneracy(B, d, cand) else None


def zip_path(d, u, v):
    """Pair two path d-cells componentwise into a path cell over a pullback."""
    if d == 0:
        return (u, v)
    if d == 1:
        return ("sq", (u[1], v[1]), (u[2], v[2]), (u[3], v[3]),
                (u[4], v[4]), (u[5], v[5]))
    if d == 2:
        return ("p2", (u[1], v[1]), (u[2], v[2]), (u[3], v[3]),
                zip_path(1, u[4], v[4]), zip_path(1, u[5], v[5]))
    return ("p3", (u[1], v[1]), (u[2], v[2]),
            zip_path(2, u[3], v[3]), zip_path(2, u[4], v[4]))


class OpMap:
    """A Tower's operation op (Tower.mbar, w_l or w_r) on pairs, with its
    cocycle coc, shaped as the pseudo map into DD that PPrime.cell reads.
    It holds its Tower weakly: the Tower keeps its OpMaps, and a reference
    cycle would keep a finished Tower's stages alive until the next full
    garbage collection."""

    def __init__(self, tower, op, coc):
        self.cod = tower.DD
        self.name = op.__name__
        self._tower = weakref.ref(tower)
        self._op, self._coc = op, coc

    def __call__(self, d, pair):
        return self._op(self._tower(), d, *pair)

    def coc(self, f1, f2):
        return self._coc(self._tower(), f1, f2)


def _by(cells, key):
    """The cells grouped by key, each group in cells order."""
    by = {}
    for c in cells:
        by.setdefault(key(c), []).append(c)
    return by


def _pairs(cells, left, right):
    """The pairs (b, a) of cells with left(b) == right(a), in the order of
    the double loop over cells, found through an index on right."""
    by = _by(cells, right)
    for b in cells:
        for a in by.get(left(b), ()):
            yield b, a


# -- the 2-path space ----------------------------------------------------------


class Tower:
    """The materialized stages over one finite H, built on demand."""

    def __init__(self, H):
        self.H = H
        self.PH = build_pathspace(H)
        self.V = PathView(H)
        self.PV = PathView(self.PH)
        _, self.K, self.m = m_pseudo(H, self.PH)
        self._pm = PPrime(self.m)
        self._dd = None
        self._ddd = None
        self._p2 = None
        # d -> P2 d-cell -> the 3-path d-cell over it, filled with DDD
        self._lift = None
        # (d, x, y) -> mbar, w_l and w_r's value; a body that raises stores
        # nothing
        self._mbars = {}
        self._wls = {}
        self._wrs = {}
        # Tower.mbar, w_l, w_r -> P' of that operation over DD
        self._pps = {}

    # stage 2: bigons ---------------------------------------------------

    def dbl_keep(self, d, c):
        return (undegenerate(self.H, d, functorial_face(self.H, d, c, 0)) is not None
                and undegenerate(self.H, d, functorial_face(self.H, d, c, 1)) is not None)

    @property
    def DD(self):
        if self._dd is None:
            self._dd = materialize(self.PV, path_cells(self.PH, self.dbl_keep),
                                   name=f"dbl({self.H.name})")
        return self._dd

    def dbar(self, d, c, which):
        """The inner face dbl(H) -> H: the face of either dj-image."""
        if not self.DD.has_cell(d, c):
            raise FactorizationFailed(f"cell {c!r} is not a 2-path")
        return (pd0 if which == 0 else pd1)(self.H, d, self.dj(d, c, 0))

    def dj(self, d, c, which):
        """The outer path-space face dbl(H) -> path(H)."""
        return (pd0 if which == 0 else pd1)(self.PH, d, c)

    def ibar(self, d, p):
        """The joint section path(H) -> dbl(H)."""
        return _bigon(self, d, degeneracy(self.PH, d, p), "ibar")

    # multiplications and whiskers ---------------------------------------

    def mbar(self, d, b, a):
        out = self._mbars.get((d, b, a))
        if out is None:
            out = self._mbars[(d, b, a)] = _mbar(self, d, b, a)
        return out

    def mbar_coc(self, q, p):
        out = m_cocycle(self.PH, self.PV, q, p)
        if not self.DD.has_cell(2, out):
            raise FactorizationFailed("mbar cocycle escaped the bigon space")
        return out

    def mbar_map(self):
        DD = self.DD
        Kb = build_pullback(DD, self.PH, 2, name=f"dblpb({self.H.name})")
        assign = {d: {c: self.mbar(d, c[0], c[1]) for c in Kb.cells[d]}
                  for d in (0, 1, 2, 3)}
        coc = {pair: self.mbar_coc(*pair) for pair in Kb.comp0_11}
        return Kb, PseudoMap(Kb, DD, assign, coc, name=f"mbar({self.H.name})")

    def w_r(self, d, p, A):
        """Whisker a bigon-space cell A by an earlier path cell p."""
        out = self._wrs.get((d, p, A))
        if out is None:
            out = self._wrs[(d, p, A)] = _w_r(self, d, p, A)
        return out

    def w_l(self, d, A, p):
        out = self._wls.get((d, A, p))
        if out is None:
            out = self._wls[(d, A, p)] = _w_l(self, d, A, p)
        return out

    def w_r_coc(self, pair1, pair2):
        (p1, A1), (p2_, A2) = pair1, pair2
        z1 = zip_path(1, degeneracy(self.PH, 1, p1), A1)
        z2 = zip_path(1, degeneracy(self.PH, 1, p2_), A2)
        return self._pm.coc(z1, z2)

    def w_l_coc(self, pair1, pair2):
        (A1, p1), (A2, p2_) = pair1, pair2
        z1 = zip_path(1, A1, degeneracy(self.PH, 1, p1))
        z2 = zip_path(1, A2, degeneracy(self.PH, 1, p2_))
        return self._pm.coc(z1, z2)

    def h_l(self, d, b, a):
        return self.mbar(d, self.w_l(d, b, self.dj(d, a, 1)),
                         self.w_r(d, self.dj(d, b, 0), a))

    def h_r(self, d, b, a):
        return self.mbar(d, self.w_r(d, self.dj(d, b, 1), a),
                         self.w_l(d, b, self.dj(d, a, 0)))

    # stage 3: 3-paths ---------------------------------------------------

    def tri_keep(self, d, c):
        f0 = functorial_face(self.PH, d, c, 0)
        f1 = functorial_face(self.PH, d, c, 1)
        return (undegenerate(self.PH, d, f0) is not None
                and undegenerate(self.PH, d, f1) is not None)

    @property
    def DDD(self):
        """The 3-path space, built as the lift of P2.

        Its cells are path_cells(DD, tri_keep).  c -> (dj0 c, dj1 c) is a
        bijection from them onto P2 (the 1-Cartesian property), checked
        here: over each P2 d-cell exactly one 3-path must lie, or
        FactorizationFailed names the P2 cell and the count found; a 3-path
        over no P2 cell is named too.  The cells are added in P2's order;
        identities and tables are P2's, carried through the bijection.
        """
        if self._ddd is None:
            self._ddd, self._lift = _lift_p2(self)
        return self._ddd

    def filler(self, d, src, tgt, im0, im1):
        """The 3-path d-cell (d >= 1) from src to tgt over the bigon cells
        (im0, im1).

        It exists and is unique by the 1-Cartesianness of (dj0, dj1): it is
        the lift of the P2 cell (im0, im1), looked up, and its faces must
        be src and tgt.
        """
        DDD = self.DDD
        c = self._lift[d].get((im0, im1))
        if d == 0 or c is None or DDD.src(d, c) != src or DDD.tgt(d, c) != tgt:
            raise FactorizationFailed(
                f"expected a unique {d}-cell filler, found 0")
        return c

    def dbar3(self, d, c, which):
        """The inner face tri(H) -> path(H): the face of either dj-image."""
        if not self.DDD.has_cell(d, c):
            raise FactorizationFailed(f"cell {c!r} is not a 3-path")
        return (pd0 if which == 0 else pd1)(self.PH, d, pd0(self.DD, d, c))

    def mbarbar(self, d, b, a):
        return _triple(self, d, m_apply(self.DD, d, b, a), "mbarbar")

    def _whisker(self, op, coc):
        """P' of op (Tower.mbar, w_l or w_r) with its cocycle coc, built
        over DD on first use."""
        pp = self._pps.get(op)
        if pp is None:
            pp = self._pps[op] = PPrime(OpMap(self, op, coc))
        return pp

    def wbar_l(self, d, c, p):
        """Whisker a 3-path by a 1-path, through the path action on w_l."""
        out = self._whisker(Tower.w_l, Tower.w_l_coc).cell(
            d, zip_path(d, c, degeneracy(self.PH, d, p)))
        return _triple(self, d, out, "wbar_l")

    def wbar_r(self, d, p, c):
        out = self._whisker(Tower.w_r, Tower.w_r_coc).cell(
            d, zip_path(d, degeneracy(self.PH, d, p), c))
        return _triple(self, d, out, "wbar_r")

    def wtil_l(self, d, c, A):
        """Whisker a 3-path by a 2-path along a 1-path (left form)."""
        out = self._whisker(Tower.mbar, Tower.mbar_coc).cell(
            d, zip_path(d, c, degeneracy(self.DD, d, A)))
        return _triple(self, d, out, "wtil_l")

    def wtil_r(self, d, A, c):
        out = self._whisker(Tower.mbar, Tower.mbar_coc).cell(
            d, zip_path(d, degeneracy(self.DD, d, A), c))
        return _triple(self, d, out, "wtil_r")

    # the parallel-cell space and the tensor map -------------------------

    @property
    def P2(self):
        if self._p2 is None:
            DD, PH = self.DD, self.PH
            ends = {d: {u: (pd0(PH, d, u), pd1(PH, d, u)) for u in DD.cells[d]}
                    for d in DD.DIMS}
            self._p2 = pullback(DD, ends, DD, ends, lambda u, v: (u, v),
                                f"P2({self.H.name})")
        return self._p2

    def tensor_obj(self, bg, bf):
        """t on a composable pair of bigons: the explicit interchanger cell."""
        H, PH = self.H, self.PH
        if self.dbar(0, bg, 0) != self.dbar(0, bf, 1):
            raise NotComposable("tensor_t: bigons not 0-composable")
        from .pathspace import sq, p2
        hl = base_hcomp_left(H, bg[1], bf[1])
        hr = base_hcomp_right(H, bg[1], bf[1])
        top = H.comp0(bg[4], bf[4])
        bot = H.comp0(bg[5], bf[5])
        x = H.src(1, top)
        y = H.tgt(1, top)
        T = sq(H, hl, H.ident(0, x), H.ident(0, y), top, bot)
        B = sq(H, hr, H.ident(0, x), H.ident(0, y), top, bot)
        W0 = self.PH.ident(0, top)
        W1 = self.PH.ident(0, bot)
        tens = H.tensor(bg[1], bf[1])
        W2 = p2(H, tens, H.ident(1, H.ident(0, x)), H.ident(1, H.ident(0, y)),
                T, B)
        return _triple(self, 0, sq(PH, W2, W0, W1, T, B), "tensor_obj")

    def tensor_t(self, d, b, a):
        """t on d-cells: bigons (d = 0) by formula, their 1-cells by the
        unique filler over (h_l, h_r); uniqueness is exactly the
        1-Cartesianness used to induce the map."""
        if d == 0:
            return self.tensor_obj(b, a)
        if d != 1:
            raise GrayError("tensor_t is defined on bigons and their 1-cells")
        return self.filler(1, self.tensor_obj(b[4], a[4]),
                           self.tensor_obj(b[5], a[5]),
                           self.h_l(1, b, a), self.h_r(1, b, a))


# -- the assembled internal Gray-category --------------------------------------


def _mbar(tw, d, b, a):
    return _bigon(tw, d, m_apply(tw.PH, d, b, a), "mbar")


def _w_r(tw, d, p, A):
    out = tw._pm.cell(d, zip_path(d, degeneracy(tw.PH, d, p), A))
    return _bigon(tw, d, out, "w_r")


def _w_l(tw, d, A, p):
    out = tw._pm.cell(d, zip_path(d, A, degeneracy(tw.PH, d, p)))
    return _bigon(tw, d, out, "w_l")


def _bigon(tw, d, out, name):
    """The bigon-space d-cell equal to out, as DD stores it, so that the
    memos of mbar, w_l and w_r hold no second copy of a cell."""
    try:
        return tw.DD.canonical(d, out)
    except KeyError:
        raise FactorizationFailed(
            f"{name} output escaped the bigon space") from None


def _triple(tw, d, out, name):
    """The 3-path d-cell equal to out, as DDD stores it."""
    try:
        return tw.DDD.canonical(d, out)
    except KeyError:
        raise FactorizationFailed(
            f"{name} output escaped the 3-path space") from None


def _lift_p2(tw):
    """DDD and the lift {d: {P2 d-cell: 3-path}}: see Tower.DDD."""
    DD, P2 = tw.DD, tw.P2
    C = GrayCat(name=f"tri({tw.H.name})")
    lift = {d: {} for d in C.DIMS}
    down = {d: {} for d in C.DIMS}
    for d, cells in enumerate(path_cells(DD, tw.tri_keep)):
        over = _by(cells, lambda c: (pd0(DD, d, c), pd1(DD, d, c)))
        for uv in P2.cells[d]:
            kept = over.pop(uv, ())
            if len(kept) != 1:
                raise FactorizationFailed(
                    f"{C.name}: the P2 {d}-cell {uv!r} lifts to "
                    f"{len(kept)} 3-paths, expected 1")
            c = lift[d][uv] = kept[0]
            down[d][c] = uv
            s = lift[d - 1][P2.src_[d][uv]] if d else None
            t = lift[d - 1][P2.tgt_[d][uv]] if d else None
            C.add_cell(d, c, s, t)
        if over:
            stray = next(iter(over.values()))[0]
            raise FactorizationFailed(
                f"{C.name}: the 3-path {d}-cell {stray!r} lies over no "
                f"P2 cell")
    for d in (0, 1, 2):
        for c in C.cells[d]:
            C.id_up[d][c] = lift[d + 1][P2.id_up[d][down[d][c]]]
    for _, attr, op, dl, dr, dout in TABLES:
        table, below = getattr(C, attr), getattr(P2, attr)
        for l, r in composable_keys(C, op):
            table[(l, r)] = lift[dout][below[(down[dl][l], down[dr][r])]]
    C.is_groupoid = P2.is_groupoid
    C.inv1 = {lift[1][x]: lift[1][y] for x, y in P2.inv1.items()}
    return C, lift


def check_1cartesian(tower):
    """Parallel 3-path 1-cells: higher cells are determined by their
    (dj0, dj1) image, and every parallel pair downstairs lifts."""
    DDD, DD, P2 = tower.DDD, tower.DD, tower.P2
    by_par = _by(DDD.cells[1], lambda w: (DDD.src(1, w), DDD.tgt(1, w)))

    def lifts():
        for group in by_par.values():
            for h in group:
                for k in group:
                    up = DDD.between(2, h, k)
                    images = [(pd0(DD, 2, c), pd1(DD, 2, c)) for c in up]
                    if len(set(images)) != len(images):
                        yield False, ("not-injective", h, k)
                        continue
                    down = P2.between(2, (pd0(DD, 1, h), pd1(DD, 1, h)),
                                      (pd0(DD, 1, k), pd1(DD, 1, k)))
                    yield set(images) == set(down), ("not-full", h, k)

    return law_report("one-cartesian", lifts())


def assemble_internal_graycat(tw, strict_functor=None):
    """Machine-check the laws of the four-stage tower tw (a Tower over H)."""
    H = tw.H
    PH, DD, DDD = tw.PH, tw.DD, tw.DDD
    # path(H)'s d-cells by their source and by their target in H
    starts = {d: _by(PH.cells[d], lambda p, d=d: pd0(H, d, p))
              for d in PH.DIMS}
    ends = {d: _by(PH.cells[d], lambda p, d=d: pd1(H, d, p))
            for d in PH.DIMS}

    def reflexive_glob():
        for d in (0, 1, 2, 3):
            for p in PH.cells[d]:
                ib = tw.ibar(d, p)
                yield tw.dj(d, ib, 0) == p and tw.dj(d, ib, 1) == p, \
                    ("ibar-section", d, p)
            for c in DD.cells[d]:
                a0, a1 = tw.dj(d, c, 0), tw.dj(d, c, 1)
                yield (pd0(H, d, a0) == pd0(H, d, a1)
                       and pd1(H, d, a0) == pd1(H, d, a1)), ("globularity", d, c)

    def pairs_dj(d):
        return _pairs(DD.cells[d], lambda b: tw.dj(d, b, 0),
                      lambda a: tw.dj(d, a, 1))

    def pairs_dbar(d):
        return _pairs(DD.cells[d], lambda b: tw.dbar(d, b, 0),
                      lambda a: tw.dbar(d, a, 1))

    def mbar_laws():
        for d in (0, 1, 2, 3):
            for b, a in pairs_dj(d):
                r = tw.mbar(d, b, a)
                yield tw.dj(d, r, 0) == tw.dj(d, a, 0), ("mbar-d0", d, b, a)
                yield tw.dj(d, r, 1) == tw.dj(d, b, 1), ("mbar-d1", d, b, a)
            for c in DD.cells[d]:
                lo = tw.ibar(d, tw.dj(d, c, 0))
                hi = tw.ibar(d, tw.dj(d, c, 1))
                yield tw.mbar(d, c, lo) == c, ("mbar-right-unit", d, c)
                yield tw.mbar(d, hi, c) == c, ("mbar-left-unit", d, c)
        for d in (0, 1):
            by_dj0 = _by(DD.cells[d], lambda c: tw.dj(d, c, 0))
            for b, a in pairs_dj(d):
                for c in by_dj0[tw.dj(d, b, 1)]:
                    lhs = tw.mbar(d, tw.mbar(d, c, b), a)
                    rhs = tw.mbar(d, c, tw.mbar(d, b, a))
                    yield lhs == rhs, ("mbar-associative", d, c, b, a)

    def whisker_laws():
        for d in (0, 1, 2, 3):
            for A in DD.cells[d]:
                a0, a1 = tw.dbar(d, A, 0), tw.dbar(d, A, 1)
                for p in PH.either(d, starts[d][a1], ends[d][a0]):
                    if pd0(H, d, p) == a1:
                        r = tw.w_r(d, p, A)
                        yield tw.dj(d, r, 0) == tw.m(d, (p, tw.dj(d, A, 0))), \
                            ("w_r-extends-m-d0", d, p, A)
                        yield tw.dj(d, r, 1) == tw.m(d, (p, tw.dj(d, A, 1))), \
                            ("w_r-extends-m-d1", d, p, A)
                        yield tw.dbar(d, r, 0) == a0, \
                            ("w_r-outer-face", d, p, A)
                        yield tw.dbar(d, r, 1) == pd1(H, d, p), \
                            ("w_r-outer-face-1", d, p, A)
                    if pd1(H, d, p) == a0:
                        r = tw.w_l(d, A, p)
                        yield tw.dj(d, r, 0) == tw.m(d, (tw.dj(d, A, 0), p)), \
                            ("w_l-extends-m-d0", d, A, p)
                        yield tw.dj(d, r, 1) == tw.m(d, (tw.dj(d, A, 1), p)), \
                            ("w_l-extends-m-d1", d, A, p)
        # compatibility and associativity of the whiskers
        for d in (0, 1):
            for A in DD.cells[d]:
                a0, a1 = tw.dbar(d, A, 0), tw.dbar(d, A, 1)
                for p in starts[d][a1]:
                    p1 = pd1(H, d, p)
                    for q in PH.either(d, starts[d][p1], ends[d][a0]):
                        if pd0(H, d, q) == p1:
                            lhs = tw.w_r(d, q, tw.w_r(d, p, A))
                            rhs = tw.w_r(d, tw.m(d, (q, p)), A)
                            yield lhs == rhs, ("w_r-associative", d, q, p, A)
                        if pd1(H, d, q) == a0:
                            lhs = tw.w_l(d, tw.w_r(d, p, A), q)
                            rhs = tw.w_r(d, p, tw.w_l(d, A, q))
                            yield lhs == rhs, ("w-mixed-compatible", d, p, A, q)
            for A in DD.cells[d]:
                for p in ends[d][tw.dbar(d, A, 0)]:
                    for q in ends[d][pd0(H, d, p)]:
                        lhs = tw.w_l(d, tw.w_l(d, A, p), q)
                        rhs = tw.w_l(d, A, tw.m(d, (p, q)))
                        yield lhs == rhs, ("w_l-associative", d, A, p, q)

    def hcomp_laws():
        for d in (0, 1, 2):
            for b, a in pairs_dbar(d):
                for h in (tw.h_l(d, b, a), tw.h_r(d, b, a)):
                    yield tw.dj(d, h, 0) == tw.m(
                        d, (tw.dj(d, b, 0), tw.dj(d, a, 0))), \
                        ("hcomp-face-d0", d, b, a)
                    yield tw.dj(d, h, 1) == tw.m(
                        d, (tw.dj(d, b, 1), tw.dj(d, a, 1))), \
                        ("hcomp-face-d1", d, b, a)

    def djj(d, c, which):
        return (pd0 if which == 0 else pd1)(DD, d, c)

    def triple_laws():
        for d in (0, 1, 2, 3):
            for b, a in _pairs(DDD.cells[d], lambda b: djj(d, b, 0),
                               lambda a: djj(d, a, 1)):
                r = tw.mbarbar(d, b, a)
                yield djj(d, r, 0) == djj(d, a, 0), ("mbarbar-d0", d, b, a)
                yield djj(d, r, 1) == djj(d, b, 1), ("mbarbar-d1", d, b, a)
            for c in DDD.cells[d]:
                lo = degeneracy(DD, d, djj(d, c, 0))
                hi = degeneracy(DD, d, djj(d, c, 1))
                yield tw.mbarbar(d, hi, c) == c, ("mbarbar-left-unit", d, c)
                yield tw.mbarbar(d, c, lo) == c, ("mbarbar-right-unit", d, c)

    def bar_whisker_laws():
        for d in (0, 1):
            for c in DDD.cells[d]:
                for p in ends[d][tw.dbar(d, djj(d, c, 0), 0)]:
                    r = tw.wbar_l(d, c, p)
                    yield djj(d, r, 0) == tw.w_l(d, djj(d, c, 0), p), \
                        ("wbar_l-extends-w_l-d0", d, c, p)
                    yield djj(d, r, 1) == tw.w_l(d, djj(d, c, 1), p), \
                        ("wbar_l-extends-w_l-d1", d, c, p)
            for c in DDD.cells[d]:
                for p in starts[d][tw.dbar(d, djj(d, c, 0), 1)]:
                    r = tw.wbar_r(d, p, c)
                    yield djj(d, r, 0) == tw.w_r(d, p, djj(d, c, 0)), \
                        ("wbar_r-extends-w_r-d0", d, p, c)
                    yield djj(d, r, 1) == tw.w_r(d, p, djj(d, c, 1)), \
                        ("wbar_r-extends-w_r-d1", d, p, c)

    def til_whisker_laws():
        for d in (0, 1):
            by_dj0 = _by(DD.cells[d], lambda A: tw.dj(d, A, 0))
            for c in DDD.cells[d]:
                for A in by_dj0[tw.dj(d, djj(d, c, 0), 1)]:
                    r = tw.wtil_r(d, A, c)
                    yield djj(d, r, 0) == tw.mbar(d, A, djj(d, c, 0)), \
                        ("wtil_r-extends-mbar-d0", d, A, c)
                    yield djj(d, r, 1) == tw.mbar(d, A, djj(d, c, 1)), \
                        ("wtil_r-extends-mbar-d1", d, A, c)
            by_dj1 = _by(DD.cells[d], lambda A: tw.dj(d, A, 1))
            for c in DDD.cells[d]:
                for A in by_dj1[tw.dj(d, djj(d, c, 0), 0)]:
                    r = tw.wtil_l(d, c, A)
                    yield djj(d, r, 0) == tw.mbar(d, djj(d, c, 0), A), \
                        ("wtil_l-extends-mbar-d0", d, c, A)
                    yield djj(d, r, 1) == tw.mbar(d, djj(d, c, 1), A), \
                        ("wtil_l-extends-mbar-d1", d, c, A)

    def interchange_laws():
        for d in (0, 1):
            for c, c2 in _pairs(DDD.cells[d], lambda c: tw.dbar3(d, c, 0),
                                lambda c2: tw.dbar3(d, c2, 1)):
                lhs = tw.mbarbar(d, tw.wtil_l(d, c, djj(d, c2, 1)),
                                 tw.wtil_r(d, djj(d, c, 0), c2))
                rhs = tw.mbarbar(d, tw.wtil_r(d, djj(d, c, 1), c2),
                                 tw.wtil_l(d, c, djj(d, c2, 0)))
                yield lhs == rhs, ("whisk23-interchange", d, c, c2)

    def tensor_laws():
        for b, a in pairs_dbar(0):
            t = tw.tensor_obj(b, a)
            yield t[4] == tw.h_l(0, b, a), ("t-face-hl", b, a)
            yield t[5] == tw.h_r(0, b, a), ("t-face-hr", b, a)
        for b, a in pairs_dbar(1):
            t = tw.tensor_t(1, b, a)
            yield pd0(DD, 1, t) == tw.h_l(1, b, a), ("t1-face-hl", b, a)
            yield pd1(DD, 1, t) == tw.h_r(1, b, a), ("t1-face-hr", b, a)

    def pm_internal_cat():
        # P applied to the internal category over H stays one: faces and
        # units of P'(m) on zipped cells of path(path(H))
        pm = tw._pm

        def ff(d, c, which):
            return functorial_face(H, d, c, which)

        P2cells = (tw.PH.cells[1], path_squares(tw.PH, tw.PH.cells[1]))
        for d in (0, 1):
            for b, a in _pairs(P2cells[d], lambda b: ff(d, b, 0),
                               lambda a: ff(d, a, 1)):
                r = pm.cell(d, zip_path(d, b, a))
                yield ff(d, r, 0) == ff(d, a, 0), ("Pm-face-d0", d, b, a)
                yield ff(d, r, 1) == ff(d, b, 1), ("Pm-face-d1", d, b, a)
            for c in P2cells[d]:
                lo = path_map(lambda dd, x: degeneracy(H, dd, x), ff(d, c, 0)) \
                    if d > 0 else degeneracy(H, 1, ff(d, c, 0))
                yield pm.cell(d, zip_path(d, c, lo)) == c, ("Pm-right-unit", d, c)

    def naturality():
        if strict_functor is None:
            return
        F = strict_functor
        fn = lambda dd, x: F.maps[dd][x]
        twK = Tower(F.cod)
        for d in (0, 1):
            for b, a in pairs_dj(d):
                lhs = _double_im(fn, d, tw.mbar(d, b, a))
                rhs = twK.mbar(d, _double_im(fn, d, b), _double_im(fn, d, a))
                yield lhs == rhs, ("mbar-natural", d, b, a)

    laws = [
        ("reflexive-globular", reflexive_glob()),
        ("mbar-category", mbar_laws()),
        ("whisker-extension", whisker_laws()),
        ("hcomp-faces", hcomp_laws()),
        ("mbarbar-category", triple_laws()),
        ("wbar-extension", bar_whisker_laws()),
        ("wtil-extension", til_whisker_laws()),
        ("whisk23-interchange", interchange_laws()),
        ("tensor-map", tensor_laws()),
        ("P-internal-category", pm_internal_cat()),
    ]
    if strict_functor is not None:
        laws.append(("strict-naturality", naturality()))
    return run_laws(laws) + [check_1cartesian(tw)]


def _double_im(fn, d, c):
    """Image of a 2-path cell under path(path(F)) for strict F."""
    inner = lambda dd, x: path_map(fn, x) if pdim(x) else fn(1, x)
    if d == 0:
        return path_map(fn, c)
    return path_map(inner, c)
