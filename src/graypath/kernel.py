"""Tabulated Gray-categories and the exhaustive axiom checker.

Cells are opaque hashable keys (interned strings for base fixtures, nested
tuples for derived cells).  All operations are partial tables guarded by
composability predicates; calling an operation on a non-composable tuple
raises NotComposable instead of silently returning garbage.  Equality of
cells is structural and exact: there are no tolerances anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass


class GrayError(Exception):
    pass


class NotComposable(GrayError):
    pass


class MissingTableEntry(GrayError):
    pass


class NotAGroupoid(GrayError):
    pass


class NotOneFree(GrayError):
    pass


class NotAFunctor(GrayError):
    pass


class Mismatch(GrayError):
    pass


class FactorizationFailed(GrayError):
    """A universally induced arrow failed to land in its codomain subobject.

    This signals a construction bug, never bad user input.
    """


class ValidationError(GrayError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations[:10]))


@dataclass
class CheckReport:
    law: str
    status: str  # "pass" | "fail"
    tuples_checked: int = 0
    counterexample: tuple | None = None

    @property
    def ok(self):
        return self.status == "pass"

    def as_dict(self):
        return {
            "law": self.law,
            "status": self.status,
            "tuples_checked": self.tuples_checked,
            "counterexample": _jsonable(self.counterexample),
        }


def _jsonable(x):
    if x is None or isinstance(x, (str, int, bool)):
        return x
    if isinstance(x, (tuple, list)):
        return [_jsonable(v) for v in x]
    return str(x)


class GrayCat:
    """A finite Gray-category: 3-globular set plus composition tables.

    Tables (keys are tuples of cells, values cells):
      comp0_11[(g, f)]     = g #0 f          (1-cells, src g = tgt f)
      whisk_l12[(k, a)]    = k #0 a          (1-cell k after 2-cell a's hom)
      whisk_r12[(a, k)]    = a #0 k
      whisk_l13[(k, G)]    = k #0 G          (3-cell analogue)
      whisk_r13[(G, k)]    = G #0 k
      comp1_22[(b, a)]     = b #1 a          (2-cells, src b = tgt a)
      whisk_l23[(c, G)]    = c #1 G          (2-cell c after 3-cell G)
      whisk_r23[(G, c)]    = G #1 c
      comp2_33[(D, G)]     = D #2 G
      tensor[(b, a)]       = b (x) a         (interchanger, 0-composable pair)

    Optional inversion tables inv1/inv2/inv3 mark groupoid structure.
    Instances are immutable after construction by convention.

    by_src, by_tgt and between find d-cells by their faces.  by_src and
    by_tgt take the face dimension k < d; the k-face of a d-cell is taken
    as src0 and tgt0 take theirs: walk sources down to dimension k+1, then
    take that cell's source or target.  They read one index, built on first
    use and dropped by add_cell, and return tuples in cells[d] order, so a
    loop over them visits what a filtered scan of cells[d] would, in the
    same order.  either merges two of their results in cells[d] order, for
    a scan that keeps a cell when one condition or another holds.
    """

    DIMS = (0, 1, 2, 3)

    def __init__(self, name=""):
        self.name = name
        self.cells = {d: [] for d in self.DIMS}
        self._cellset = {d: set() for d in self.DIMS}
        self.src_ = {d: {} for d in (1, 2, 3)}
        self.tgt_ = {d: {} for d in (1, 2, 3)}
        self.id_up = {d: {} for d in (0, 1, 2)}
        self.comp0_11 = {}
        self.whisk_l12 = {}
        self.whisk_r12 = {}
        self.whisk_l13 = {}
        self.whisk_r13 = {}
        self.comp1_22 = {}
        self.whisk_l23 = {}
        self.whisk_r23 = {}
        self.comp2_33 = {}
        self.tensor_ = {}
        self.inv1 = {}
        self.inv2 = {}
        self.inv3 = {}
        self.is_groupoid = False
        self.generators = None  # 1-free flag: list of generating 1-cells
        self._inv2_cache = {}
        self._inv3_cache = {}
        self._faces = None

    # -- construction ------------------------------------------------

    def add_cell(self, d, c, src=None, tgt=None):
        if c in self._cellset[d]:
            raise GrayError(f"duplicate {d}-cell {c!r}")
        self.cells[d].append(c)
        self._cellset[d].add(c)
        if d > 0:
            self.src_[d][c] = src
            self.tgt_[d][c] = tgt
        self._faces = None
        return c

    def has_cell(self, d, c):
        return c in self._cellset[d]

    # -- faces ---------------------------------------------------------

    def src(self, d, c):
        return self.src_[d][c]

    def tgt(self, d, c):
        return self.tgt_[d][c]

    def src0(self, d, c):
        """Source 0-cell of the ambient hom of a d-cell."""
        while d > 1:
            c = self.src_[d][c]
            d -= 1
        return self.src_[1][c] if d == 1 else c

    def tgt0(self, d, c):
        while d > 1:
            c = self.src_[d][c]
            d -= 1
        return self.tgt_[1][c] if d == 1 else c

    def ident(self, d, c):
        return self.id_up[d][c]

    def _index(self):
        if self._faces is None:
            faces = {}
            for d in (1, 2, 3):
                for c in self.cells[d]:
                    s, t = self.src_[d][c], self.tgt_[d][c]
                    faces.setdefault((d, s, t), []).append(c)
                    # k-faces for k = d-1 .. 0: walk sources down to k+1;
                    # an undeclared face ends the walk, so a loaded document
                    # gets its located structural violations, not a KeyError
                    for k in range(d - 1, -1, -1):
                        faces.setdefault(("src", d, k, s), []).append(c)
                        faces.setdefault(("tgt", d, k, t), []).append(c)
                        if k == 0 or s not in self.src_[k]:
                            break
                        s, t = self.src_[k][s], self.tgt_[k][s]
            self._faces = {key: tuple(v) for key, v in faces.items()}
            # each cell's position in cells[d], the order either merges in
            for d in self.DIMS:
                self._faces[("rank", d)] = {c: i for i, c in enumerate(self.cells[d])}
        return self._faces

    def _cells_by(self, key):
        return self._index().get(key, ())

    def by_src(self, d, s, k=None):
        """The d-cells whose k-dimensional source is s (k = d-1 by default),
        in cells[d] order; k = 0 agrees with src0."""
        return self._cells_by(("src", d, d - 1 if k is None else k, s))

    def by_tgt(self, d, t, k=None):
        """The d-cells whose k-dimensional target is t (k = d-1 by default),
        in cells[d] order; k = 0 agrees with tgt0."""
        return self._cells_by(("tgt", d, d - 1 if k is None else k, t))

    def between(self, d, s, t):
        """The d-cells from s to t, in cells[d] order."""
        return self._cells_by((d, s, t))

    def either(self, d, xs, ys):
        """The d-cells in xs or in ys (two by_src/by_tgt results), once
        each and in cells[d] order: what a cells[d] scan testing two
        conditions visits, in the same order."""
        if not xs or xs is ys:
            return ys
        if not ys:
            return xs
        return tuple(sorted(set(xs).union(ys),
                            key=self._index()[("rank", d)].__getitem__))

    def is_id1(self, f):
        x = self.src_[1][f]
        return self.id_up[0].get(x) == f

    def is_id2(self, a):
        f = self.src_[2][a]
        return self.id_up[1].get(f) == a

    def is_id3(self, g):
        a = self.src_[3][g]
        return self.id_up[2].get(a) == g

    # -- guarded operations ---------------------------------------------

    def _table(self, table, key, err):
        try:
            return table[key]
        except KeyError:
            raise MissingTableEntry(f"{self.name}: no {err} entry for {key!r}") from None

    def comp0(self, g, f):
        if self.src_[1][g] != self.tgt_[1][f]:
            raise NotComposable(f"comp0 {g!r} after {f!r}")
        return self._table(self.comp0_11, (g, f), "comp0")

    def wl12(self, k, a):
        if self.src_[1][k] != self.tgt0(2, a):
            raise NotComposable(f"wl12 {k!r} {a!r}")
        return self._table(self.whisk_l12, (k, a), "whisk_l12")

    def wr12(self, a, k):
        if self.src0(2, a) != self.tgt_[1][k]:
            raise NotComposable(f"wr12 {a!r} {k!r}")
        return self._table(self.whisk_r12, (a, k), "whisk_r12")

    def wl13(self, k, g):
        if self.src_[1][k] != self.tgt0(3, g):
            raise NotComposable(f"wl13 {k!r} {g!r}")
        return self._table(self.whisk_l13, (k, g), "whisk_l13")

    def wr13(self, g, k):
        if self.src0(3, g) != self.tgt_[1][k]:
            raise NotComposable(f"wr13 {g!r} {k!r}")
        return self._table(self.whisk_r13, (g, k), "whisk_r13")

    def comp1(self, b, a):
        if self.src_[2][b] != self.tgt_[2][a]:
            raise NotComposable(f"comp1 {b!r} after {a!r}")
        return self._table(self.comp1_22, (b, a), "comp1")

    def wl23(self, c, g):
        if self.src_[2][c] != self.tgt_[2][self.src_[3][g]]:
            raise NotComposable(f"wl23 {c!r} {g!r}")
        return self._table(self.whisk_l23, (c, g), "whisk_l23")

    def wr23(self, g, c):
        if self.tgt_[2][c] != self.src_[2][self.src_[3][g]]:
            raise NotComposable(f"wr23 {g!r} {c!r}")
        return self._table(self.whisk_r23, (g, c), "whisk_r23")

    def comp2(self, d, g):
        if self.src_[3][d] != self.tgt_[3][g]:
            raise NotComposable(f"comp2 {d!r} after {g!r}")
        return self._table(self.comp2_33, (d, g), "comp2")

    def tensor(self, b, a):
        if self.src0(2, b) != self.tgt0(2, a):
            raise NotComposable(f"tensor {b!r} {a!r}")
        return self._table(self.tensor_, (b, a), "tensor")

    # -- derived -----------------------------------------------------

    def fold0(self, cells, anchor=None):
        """#0-composite of a head-to-tail list of 1-cells; empty list -> id."""
        if not cells:
            if anchor is None:
                raise NotComposable("empty fold0 needs an anchor object")
            return self.id_up[0][anchor]
        out = cells[-1]
        for f in reversed(cells[:-1]):
            out = self.comp0(f, out)
        return out

    def inv_1(self, f):
        if f not in self.inv1:
            raise NotAGroupoid(f"{self.name}: no 1-cell inverse for {f!r}")
        return self.inv1[f]

    def inv_2(self, a):
        """Two-sided #1-inverse, from the table or by exact search."""
        if a in self.inv2:
            return self.inv2[a]
        if a in self._inv2_cache:
            return self._inv2_cache[a]
        f, g = self.src_[2][a], self.tgt_[2][a]
        for b in self.between(2, g, f):
            if (self.comp1_22.get((b, a)) == self.id_up[1][f]
                    and self.comp1_22.get((a, b)) == self.id_up[1][g]):
                self._inv2_cache[a] = b
                return b
        raise NotAGroupoid(f"{self.name}: 2-cell {a!r} has no #1-inverse")

    def inv_3(self, g):
        if g in self.inv3:
            return self.inv3[g]
        if g in self._inv3_cache:
            return self._inv3_cache[g]
        a, b = self.src_[3][g], self.tgt_[3][g]
        for h in self.between(3, b, a):
            if (self.comp2_33.get((h, g)) == self.id_up[2][a]
                    and self.comp2_33.get((g, h)) == self.id_up[2][b]):
                self._inv3_cache[g] = h
                return h
        raise NotAGroupoid(f"{self.name}: 3-cell {g!r} has no #2-inverse")

    # convenience iterators over composable tuples

    def comp0_pairs(self):
        return sorted(self.comp0_11, key=repr)

    def tensor_pairs(self):
        return sorted(self.tensor_, key=repr)


# -- horizontal composites of 0-composable 2-cells ---------------------------


def hcomp_left(C, beta, alpha):
    """(beta #0 f') #1 (g #0 alpha): the source face of beta (x) alpha."""
    f1 = C.tgt(2, alpha)
    g = C.src(2, beta)
    return C.comp1(C.wr12(beta, f1), C.wl12(g, alpha))


def hcomp_right(C, beta, alpha):
    """(g' #0 alpha) #1 (beta #0 f): the target face of beta (x) alpha."""
    f = C.src(2, alpha)
    g1 = C.tgt(2, beta)
    return C.comp1(C.wl12(g1, alpha), C.wr12(beta, f))


def tensor_whisker_lower(C, beta, G):
    """beta <| Gamma for a 3-cell Gamma varying in the lower argument."""
    f1 = C.tgt(2, C.src(3, G))
    g = C.src(2, beta)
    return C.wl23(C.wr12(beta, f1), C.wl13(g, G))


def tensor_whisker_lower_r(C, beta, G):
    f = C.src(2, C.src(3, G))
    g1 = C.tgt(2, beta)
    return C.wr23(C.wl13(g1, G), C.wr12(beta, f))


def tensor_whisker_upper(C, D, alpha):
    """Delta <| alpha for a 3-cell Delta varying in the upper argument."""
    f1 = C.tgt(2, alpha)
    g = C.src(2, C.src(3, D))
    return C.wr23(C.wr13(D, f1), C.wl12(g, alpha))


def tensor_whisker_upper_r(C, D, alpha):
    f = C.src(2, alpha)
    g1 = C.tgt(2, C.src(3, D))
    return C.wl23(C.wl12(g1, alpha), C.wr13(D, f))


# -- the axiom checker -------------------------------------------------------


def law_report(name, gen):
    """Run one law: gen yields (ok, witness) pairs; first failure is recorded.

    An exception raised while evaluating a law means some table lookup or
    composability guard broke mid-pasting; that is a failure with the error
    as its counterexample, not a crash.
    """
    n = 0
    try:
        for ok, witness in gen:
            n += 1
            if not ok:
                return CheckReport(name, "fail", n, witness)
    except (GrayError, KeyError) as exc:
        return CheckReport(name, "fail", n,
                           ("error", type(exc).__name__, str(exc)))
    return CheckReport(name, "pass", n)


def run_laws(laws):
    """One CheckReport per (name, generator) pair, in order."""
    return [law_report(name, gen) for name, gen in laws]


def check_gray_axioms(C):
    """Exhaustively verify the element-wise Gray-category laws of C.

    Returns one CheckReport per law; failures carry a counterexample tuple
    that re-fails the law when re-evaluated.  Enumeration order is the
    deterministic cell order, so counterexamples are reproducible.
    """
    return run_laws(_gray_law_generators(C))


def _gray_law_generators(C):
    def faces():
        # globularity
        for d in (2, 3):
            for c in C.cells[d]:
                s, t = C.src(d, c), C.tgt(d, c)
                ok = (C.src(d - 1, s) == C.src(d - 1, t)
                      and C.tgt(d - 1, s) == C.tgt(d - 1, t))
                yield ok, ("globularity", d, c)
        # identity cells have the right faces
        for d in (0, 1, 2):
            for c in C.cells[d]:
                i = C.id_up[d].get(c)
                ok = i is not None and C.src(d + 1, i) == c and C.tgt(d + 1, i) == c
                yield ok, ("identity-faces", d, c)
        # table outputs land in the right cell sets with the dictated faces
        for (g, f), h in sorted(C.comp0_11.items(), key=repr):
            ok = (C.has_cell(1, h) and C.src(1, h) == C.src(1, f)
                  and C.tgt(1, h) == C.tgt(1, g))
            yield ok, ("comp0-faces", g, f, h)
        for (k, a), b in sorted(C.whisk_l12.items(), key=repr):
            ok = (C.has_cell(2, b)
                  and C.src(2, b) == C.comp0(k, C.src(2, a))
                  and C.tgt(2, b) == C.comp0(k, C.tgt(2, a)))
            yield ok, ("whisk_l12-faces", k, a, b)
        for (a, k), b in sorted(C.whisk_r12.items(), key=repr):
            ok = (C.has_cell(2, b)
                  and C.src(2, b) == C.comp0(C.src(2, a), k)
                  and C.tgt(2, b) == C.comp0(C.tgt(2, a), k))
            yield ok, ("whisk_r12-faces", a, k, b)
        for (b, a), c in sorted(C.comp1_22.items(), key=repr):
            ok = (C.has_cell(2, c) and C.src(2, c) == C.src(2, a)
                  and C.tgt(2, c) == C.tgt(2, b))
            yield ok, ("comp1-faces", b, a, c)
        for (d3, g3), e3 in sorted(C.comp2_33.items(), key=repr):
            ok = (C.has_cell(3, e3) and C.src(3, e3) == C.src(3, g3)
                  and C.tgt(3, e3) == C.tgt(3, d3))
            yield ok, ("comp2-faces", d3, g3, e3)
        for (k, g3), h3 in sorted(C.whisk_l13.items(), key=repr):
            ok = (C.has_cell(3, h3)
                  and C.src(3, h3) == C.wl12(k, C.src(3, g3))
                  and C.tgt(3, h3) == C.wl12(k, C.tgt(3, g3)))
            yield ok, ("whisk_l13-faces", k, g3, h3)
        for (g3, k), h3 in sorted(C.whisk_r13.items(), key=repr):
            ok = (C.has_cell(3, h3)
                  and C.src(3, h3) == C.wr12(C.src(3, g3), k)
                  and C.tgt(3, h3) == C.wr12(C.tgt(3, g3), k))
            yield ok, ("whisk_r13-faces", g3, k, h3)
        for (c, g3), h3 in sorted(C.whisk_l23.items(), key=repr):
            ok = (C.has_cell(3, h3)
                  and C.src(3, h3) == C.comp1(c, C.src(3, g3))
                  and C.tgt(3, h3) == C.comp1(c, C.tgt(3, g3)))
            yield ok, ("whisk_l23-faces", c, g3, h3)
        for (g3, c), h3 in sorted(C.whisk_r23.items(), key=repr):
            ok = (C.has_cell(3, h3)
                  and C.src(3, h3) == C.comp1(C.src(3, g3), c)
                  and C.tgt(3, h3) == C.comp1(C.tgt(3, g3), c))
            yield ok, ("whisk_r23-faces", g3, c, h3)

    def comp0_assoc_unital():
        for f in C.cells[1]:
            x, y = C.src(1, f), C.tgt(1, f)
            ok = (C.comp0(f, C.id_up[0][x]) == f and C.comp0(C.id_up[0][y], f) == f)
            yield ok, ("comp0-unit", f)
        for (g, f) in C.comp0_pairs():
            for h in C.by_src(1, C.tgt(1, g)):
                ok = C.comp0(C.comp0(h, g), f) == C.comp0(h, C.comp0(g, f))
                yield ok, ("comp0-assoc", h, g, f)

    def local_2cat():
        for a in C.cells[2]:
            f, g = C.src(2, a), C.tgt(2, a)
            ok = (C.comp1(a, C.id_up[1][f]) == a and C.comp1(C.id_up[1][g], a) == a)
            yield ok, ("comp1-unit", a)
        for (b, a) in sorted(C.comp1_22, key=repr):
            for c in C.by_src(2, C.tgt(2, b)):
                ok = C.comp1(C.comp1(c, b), a) == C.comp1(c, C.comp1(b, a))
                yield ok, ("comp1-assoc", c, b, a)
        for g3 in C.cells[3]:
            a, b = C.src(3, g3), C.tgt(3, g3)
            ok = (C.comp2(g3, C.id_up[2][a]) == g3 and C.comp2(C.id_up[2][b], g3) == g3)
            yield ok, ("comp2-unit", g3)
        for (d3, g3) in sorted(C.comp2_33, key=repr):
            for e3 in C.by_src(3, C.tgt(3, d3)):
                ok = C.comp2(C.comp2(e3, d3), g3) == C.comp2(e3, C.comp2(d3, g3))
                yield ok, ("comp2-assoc", e3, d3, g3)
        # whisker-23 units and functoriality in the 3-cell
        for g3 in C.cells[3]:
            a = C.src(3, g3)
            f, g = C.src(2, a), C.tgt(2, a)
            ok = (C.wl23(C.id_up[1][g], g3) == g3 and C.wr23(g3, C.id_up[1][f]) == g3)
            yield ok, ("whisk23-unit", g3)
        for (c, g3) in sorted(C.whisk_l23, key=repr):
            for d3 in C.by_src(3, C.tgt(3, g3)):
                lhs = C.wl23(c, C.comp2(d3, g3))
                rhs = C.comp2(C.wl23(c, d3), C.wl23(c, g3))
                yield lhs == rhs, ("whisk_l23-comp2", c, d3, g3)
        for (g3, c) in sorted(C.whisk_r23, key=repr):
            for d3 in C.by_src(3, C.tgt(3, g3)):
                lhs = C.wr23(C.comp2(d3, g3), c)
                rhs = C.comp2(C.wr23(d3, c), C.wr23(g3, c))
                yield lhs == rhs, ("whisk_r23-comp2", d3, g3, c)
        # local interchange, via whiskers, for the d3 whose 1-dimensional
        # source is the target of g3's source
        for g3 in C.cells[3]:
            a, b = C.src(3, g3), C.tgt(3, g3)
            for d3 in C.by_src(3, C.tgt(2, a), 1):
                a2, b2 = C.src(3, d3), C.tgt(3, d3)
                lhs = C.comp2(C.wl23(b2, g3), C.wr23(d3, a))
                rhs = C.comp2(C.wr23(d3, b), C.wl23(a2, g3))
                yield lhs == rhs, ("local-interchange", d3, g3)

    def whisker12():
        for (k, a) in sorted(C.whisk_l12, key=repr):
            if C.is_id1(k):
                yield C.wl12(k, a) == a, ("whisk_l12-unit1", k, a)
            if C.is_id2(a):
                f = C.src(2, a)
                yield C.wl12(k, a) == C.id_up[1][C.comp0(k, f)], ("whisk_l12-id2", k, a)
        for (a, k) in sorted(C.whisk_r12, key=repr):
            if C.is_id1(k):
                yield C.wr12(a, k) == a, ("whisk_r12-unit1", a, k)
            if C.is_id2(a):
                f = C.src(2, a)
                yield C.wr12(a, k) == C.id_up[1][C.comp0(f, k)], ("whisk_r12-id2", a, k)
        # functorial in #1
        for (b, a) in sorted(C.comp1_22, key=repr):
            for k in C.either(1, C.by_src(1, C.tgt0(2, a)),
                              C.by_tgt(1, C.src0(2, a))):
                if C.src(1, k) == C.tgt0(2, a):
                    lhs = C.wl12(k, C.comp1(b, a))
                    rhs = C.comp1(C.wl12(k, b), C.wl12(k, a))
                    yield lhs == rhs, ("whisk_l12-comp1", k, b, a)
                if C.tgt(1, k) == C.src0(2, a):
                    lhs = C.wr12(C.comp1(b, a), k)
                    rhs = C.comp1(C.wr12(b, k), C.wr12(a, k))
                    yield lhs == rhs, ("whisk_r12-comp1", b, a, k)
        # associative in the 1-cell
        for (k, a) in sorted(C.whisk_l12, key=repr):
            for m in C.by_src(1, C.tgt(1, k)):
                lhs = C.wl12(C.comp0(m, k), a)
                rhs = C.wl12(m, C.wl12(k, a))
                yield lhs == rhs, ("whisk_l12-comp0", m, k, a)
        for (a, k) in sorted(C.whisk_r12, key=repr):
            for m in C.by_tgt(1, C.src(1, k)):
                lhs = C.wr12(a, C.comp0(k, m))
                rhs = C.wr12(C.wr12(a, k), m)
                yield lhs == rhs, ("whisk_r12-comp0", a, k, m)
            for m in C.by_src(1, C.tgt0(2, a)):
                lhs = C.wl12(m, C.wr12(a, k))
                rhs = C.wr12(C.wl12(m, a), k)
                yield lhs == rhs, ("whisk12-mixed-assoc", m, a, k)

    def whisker13():
        for (k, g3) in sorted(C.whisk_l13, key=repr):
            if C.is_id1(k):
                yield C.wl13(k, g3) == g3, ("whisk_l13-unit1", k, g3)
            if C.is_id3(g3):
                a = C.src(3, g3)
                yield C.wl13(k, g3) == C.id_up[2][C.wl12(k, a)], ("whisk_l13-id3", k, g3)
        for (g3, k) in sorted(C.whisk_r13, key=repr):
            if C.is_id1(k):
                yield C.wr13(g3, k) == g3, ("whisk_r13-unit1", g3, k)
            if C.is_id3(g3):
                a = C.src(3, g3)
                yield C.wr13(g3, k) == C.id_up[2][C.wr12(a, k)], ("whisk_r13-id3", g3, k)
        for (d3, g3) in sorted(C.comp2_33, key=repr):
            for k in C.either(1, C.by_src(1, C.tgt0(3, g3)),
                              C.by_tgt(1, C.src0(3, g3))):
                if C.src(1, k) == C.tgt0(3, g3):
                    lhs = C.wl13(k, C.comp2(d3, g3))
                    rhs = C.comp2(C.wl13(k, d3), C.wl13(k, g3))
                    yield lhs == rhs, ("whisk_l13-comp2", k, d3, g3)
                if C.tgt(1, k) == C.src0(3, g3):
                    lhs = C.wr13(C.comp2(d3, g3), k)
                    rhs = C.comp2(C.wr13(d3, k), C.wr13(g3, k))
                    yield lhs == rhs, ("whisk_r13-comp2", d3, g3, k)
        # 1-whiskers distribute over 2-whiskers of 3-cells
        for (c, g3) in sorted(C.whisk_l23, key=repr):
            for k in C.by_src(1, C.tgt0(3, g3)):
                lhs = C.wl13(k, C.wl23(c, g3))
                rhs = C.wl23(C.wl12(k, c), C.wl13(k, g3))
                yield lhs == rhs, ("whisk13-over-23", k, c, g3)

    def tensor_laws():
        for (b, a) in C.tensor_pairs():
            t = C.tensor(b, a)
            ok = (C.has_cell(3, t)
                  and C.src(3, t) == hcomp_left(C, b, a)
                  and C.tgt(3, t) == hcomp_right(C, b, a))
            yield ok, ("tensor-faces", b, a)
            # tensors are invertible interchangers
            try:
                C.inv_3(t)
                ok = True
            except NotAGroupoid:
                ok = False
            yield ok, ("tensor-invertible", b, a)
            if C.is_id2(b) or C.is_id2(a):
                yield C.is_id3(t), ("tensor-identity-trivial", b, a)
        # naturality in both arguments
        for (b, a) in C.tensor_pairs():
            for g3 in C.either(3, C.by_src(3, a), C.by_src(3, b)):
                if C.src(3, g3) == a and C.tgt0(3, g3) == C.src0(2, b):
                    a2 = C.tgt(3, g3)
                    lhs = C.comp2(tensor_whisker_lower_r(C, b, g3), C.tensor(b, a))
                    rhs = C.comp2(C.tensor(b, a2), tensor_whisker_lower(C, b, g3))
                    yield lhs == rhs, ("tensor-natural-lower", b, g3)
                if C.src(3, g3) == b and C.src0(3, g3) == C.tgt0(2, a):
                    b2 = C.tgt(3, g3)
                    lhs = C.comp2(tensor_whisker_upper_r(C, g3, a), C.tensor(b, a))
                    rhs = C.comp2(C.tensor(b2, a), tensor_whisker_upper(C, g3, a))
                    yield lhs == rhs, ("tensor-natural-upper", g3, a)
        # functorial along #1 in each argument
        for (b, a) in C.tensor_pairs():
            for a2 in C.by_src(2, C.tgt(2, a)):
                if C.tgt0(2, a2) == C.src0(2, b):
                    g1 = C.tgt(2, b)
                    g0 = C.src(2, b)
                    lhs = C.tensor(b, C.comp1(a2, a))
                    step1 = C.wr23(C.tensor(b, a2), C.wl12(g0, a))
                    step2 = C.wl23(C.wl12(g1, a2), C.tensor(b, a))
                    yield lhs == C.comp2(step2, step1), ("tensor-comp1-lower", b, a2, a)
            for b2 in C.by_src(2, C.tgt(2, b)):
                if C.src0(2, b2) == C.tgt0(2, a):
                    f0 = C.src(2, a)
                    f1 = C.tgt(2, a)
                    lhs = C.tensor(C.comp1(b2, b), a)
                    step1 = C.wl23(C.wr12(b2, f1), C.tensor(b, a))
                    step2 = C.wr23(C.tensor(b2, a), C.wr12(b, f0))
                    yield lhs == C.comp2(step2, step1), ("tensor-comp1-upper", b2, b, a)
        # compatibility with 0-whiskers on the outside and in the middle.
        # These are part of the cited element-wise definition; the resolution
        # and path space proofs rely on them, so the checker includes them.
        for (b, a) in C.tensor_pairs():
            for k in C.either(1, C.by_src(1, C.tgt0(2, b)),
                              C.by_tgt(1, C.src0(2, a))):
                if C.src(1, k) == C.tgt0(2, b):
                    lhs = C.tensor(C.wl12(k, b), a)
                    rhs = C.wl13(k, C.tensor(b, a))
                    yield lhs == rhs, ("tensor-whisker-left", k, b, a)
                if C.tgt(1, k) == C.src0(2, a):
                    lhs = C.tensor(b, C.wr12(a, k))
                    rhs = C.wr13(C.tensor(b, a), k)
                    yield lhs == rhs, ("tensor-whisker-right", b, a, k)
        for b in C.cells[2]:
            for k in C.by_tgt(1, C.src0(2, b)):
                for a in C.by_tgt(2, C.src(1, k), 0):
                    lhs = C.tensor(C.wr12(b, k), a)
                    rhs = C.tensor(b, C.wl12(k, a))
                    yield lhs == rhs, ("tensor-whisker-middle", b, k, a)

    def groupoid_laws():
        if not C.is_groupoid:
            return
        for f in C.cells[1]:
            fb = C.inv_1(f)
            x, y = C.src(1, f), C.tgt(1, f)
            ok = (C.comp0(fb, f) == C.id_up[0][x] and C.comp0(f, fb) == C.id_up[0][y])
            yield ok, ("groupoid-inv1", f)
        for a in C.cells[2]:
            try:
                C.inv_2(a)
                ok = True
            except NotAGroupoid:
                ok = False
            yield ok, ("groupoid-inv2", a)

    return [
        ("incidence-and-faces", faces()),
        ("comp0-category", comp0_assoc_unital()),
        ("local-2-category", local_2cat()),
        ("whisker-12-functorial", whisker12()),
        ("whisker-13-functorial", whisker13()),
        ("tensor-laws", tensor_laws()),
        ("groupoid-laws", groupoid_laws()),
    ]


def all_pass(reports):
    return all(r.ok for r in reports)


# -- structural validation (used by the loader) ------------------------------


def structural_violations(C, limit=20):
    """Dangling ids, non-closure, globularity failures - with locations."""
    out = []

    def note(msg):
        if len(out) < limit:
            out.append(msg)

    for d in (1, 2, 3):
        for c in C.cells[d]:
            if C.src_[d][c] not in C._cellset[d - 1]:
                note(f"{d}-cell {c!r}: src {C.src_[d][c]!r} not a declared {d-1}-cell")
            if C.tgt_[d][c] not in C._cellset[d - 1]:
                note(f"{d}-cell {c!r}: tgt {C.tgt_[d][c]!r} not a declared {d-1}-cell")
    for d in (2, 3):
        for c in C.cells[d]:
            s, t = C.src_[d].get(c), C.tgt_[d].get(c)
            if s in C._cellset[d - 1] and t in C._cellset[d - 1]:
                if (C.src_[d - 1][s] != C.src_[d - 1][t]
                        or C.tgt_[d - 1][s] != C.tgt_[d - 1][t]):
                    note(f"{d}-cell {c!r}: globularity fails (src/tgt of faces differ)")
    for d in (0, 1, 2):
        for c in C.cells[d]:
            i = C.id_up[d].get(c)
            if i is None:
                note(f"{d}-cell {c!r}: no identity cell declared")
            elif i not in C._cellset[d + 1]:
                note(f"{d}-cell {c!r}: identity {i!r} not declared")
            elif C.src_[d + 1][i] != c or C.tgt_[d + 1][i] != c:
                note(f"{d}-cell {c!r}: identity {i!r} has wrong faces")

    tables = [
        ("comp0", C.comp0_11, 1, 1, 1), ("whisk_l12", C.whisk_l12, 1, 2, 2),
        ("whisk_r12", C.whisk_r12, 2, 1, 2), ("whisk_l13", C.whisk_l13, 1, 3, 3),
        ("whisk_r13", C.whisk_r13, 3, 1, 3), ("comp1", C.comp1_22, 2, 2, 2),
        ("whisk_l23", C.whisk_l23, 2, 3, 3), ("whisk_r23", C.whisk_r23, 3, 2, 3),
        ("comp2", C.comp2_33, 3, 3, 3), ("tensor", C.tensor_, 2, 2, 3),
    ]
    for name, table, dl, dr, dout in tables:
        for (l, r), v in table.items():
            if l not in C._cellset[dl]:
                note(f"{name}[{l!r},{r!r}]: left operand not a {dl}-cell")
            if r not in C._cellset[dr]:
                note(f"{name}[{l!r},{r!r}]: right operand not a {dr}-cell")
            if v not in C._cellset[dout]:
                note(f"{name}[{l!r},{r!r}]: result {v!r} not a {dout}-cell")

    # tables defined exactly on composable tuples
    for (g, f) in _expected_comp0(C):
        if (g, f) not in C.comp0_11:
            note(f"comp0 missing entry for composable pair ({g!r},{f!r})")
    for key in _expected_comp1(C):
        if key not in C.comp1_22:
            note(f"comp1 missing entry for composable pair {key!r}")
    for key in _expected_tensor(C):
        if key not in C.tensor_:
            note(f"tensor missing entry for 0-composable pair {key!r}")
    return out


def _expected_comp0(C):
    for g in C.cells[1]:
        for f in C.by_tgt(1, C.src_[1][g]):
            yield (g, f)


def _expected_comp1(C):
    for a in C.cells[2]:
        for b in C.by_src(2, C.tgt_[2][a]):
            yield (b, a)


def _expected_tensor(C):
    # a 2-cell with an undeclared source has no 0-source; the first loop of
    # structural_violations has already located it
    for b in C.cells[2]:
        if C.src_[2][b] in C._cellset[1]:
            for a in C.by_tgt(2, C.src0(2, b), 0):
                yield (b, a)


# -- finite plain categories and pullback along a functor --------------------


class FinCat:
    """A small ordinary category: the index of pullback_along_functor."""

    def __init__(self, name=""):
        self.name = name
        self.objects = []
        self.morphisms = []
        self.src = {}
        self.tgt = {}
        self.ids = {}
        self.comp = {}

    def add_object(self, x):
        self.objects.append(x)

    def add_morphism(self, f, x, y):
        self.morphisms.append(f)
        self.src[f] = x
        self.tgt[f] = y


class Functor:
    """A functor from a FinCat to the underlying category of a GrayCat."""

    def __init__(self, dom, cod, ob_map, mor_map):
        self.dom = dom
        self.cod = cod
        self.ob_map = dict(ob_map)
        self.mor_map = dict(mor_map)

    def validate(self):
        C, G = self.dom, self.cod
        for x in C.objects:
            if self.ob_map.get(x) not in G._cellset[0]:
                raise NotAFunctor(f"object {x!r} not mapped to a 0-cell")
        for f in C.morphisms:
            ff = self.mor_map.get(f)
            if ff not in G._cellset[1]:
                raise NotAFunctor(f"morphism {f!r} not mapped to a 1-cell")
            if (G.src(1, ff) != self.ob_map[C.src[f]]
                    or G.tgt(1, ff) != self.ob_map[C.tgt[f]]):
                raise NotAFunctor(f"morphism {f!r}: image has wrong endpoints")
        for x in C.objects:
            if self.mor_map[C.ids[x]] != G.id_up[0][self.ob_map[x]]:
                raise NotAFunctor(f"identity at {x!r} not preserved")
        for (g, f), h in C.comp.items():
            if G.comp0(self.mor_map[g], self.mor_map[f]) != self.mor_map[h]:
                raise NotAFunctor(f"composition {g!r} o {f!r} not preserved")


def pullback_along_functor(F, G):
    """The Gray-category F*G pulled back along F: C -> G_1.

    2-cells are pairs (alpha; f, g) with alpha: Ff => Fg in G, 3-cells are
    (Gamma; a2, b2) over them; the tensor has the faces computed in G.
    Returns (F*G, projection dict per dimension).
    """
    F.validate()
    C = F.dom
    P = GrayCat(name=f"pb({G.name})")
    for x in C.objects:
        P.add_cell(0, x)
    for f in C.morphisms:
        P.add_cell(1, f, C.src[f], C.tgt[f])
    im = F.mor_map
    for f in C.morphisms:
        for g in C.morphisms:
            if C.src[f] == C.src[g] and C.tgt[f] == C.tgt[g]:
                for a in G.between(2, im[f], im[g]):
                    P.add_cell(2, ("pb2", a, f, g), f, g)
    for c2 in P.cells[2]:
        _, a, f, g = c2
        for d2 in P.cells[2]:
            _, b, f2, g2 = d2
            if (f, g) == (f2, g2):
                for G3 in G.between(3, a, b):
                    P.add_cell(3, ("pb3", G3, c2, d2), c2, d2)
    for x in C.objects:
        P.id_up[0][x] = C.ids[x]
    for f in C.morphisms:
        P.id_up[1][f] = ("pb2", G.id_up[1][im[f]], f, f)
    for c2 in P.cells[2]:
        _, a, f, g = c2
        P.id_up[2][c2] = ("pb3", G.id_up[2][a], c2, c2)
    P.comp0_11 = dict(C.comp)
    for c2 in P.cells[2]:
        _, a, f, g = c2
        for k in C.morphisms:
            if C.src[k] == C.tgt[f]:
                P.whisk_l12[(k, c2)] = ("pb2", G.wl12(im[k], a),
                                        C.comp[(k, f)], C.comp[(k, g)])
            if C.tgt[k] == C.src[f]:
                P.whisk_r12[(c2, k)] = ("pb2", G.wr12(a, im[k]),
                                        C.comp[(f, k)], C.comp[(g, k)])
    for c3 in P.cells[3]:
        _, G3, s2, t2 = c3
        _, a, f, g = s2
        _, b, _, _ = t2
        for k in C.morphisms:
            if C.src[k] == C.tgt[f]:
                P.whisk_l13[(k, c3)] = ("pb3", G.wl13(im[k], G3),
                                        P.whisk_l12[(k, s2)], P.whisk_l12[(k, t2)])
            if C.tgt[k] == C.src[f]:
                P.whisk_r13[(c3, k)] = ("pb3", G.wr13(G3, im[k]),
                                        P.whisk_r12[(s2, k)], P.whisk_r12[(t2, k)])
    for b2 in P.cells[2]:
        for a2 in P.by_tgt(2, P.src(2, b2)):
            P.comp1_22[(b2, a2)] = ("pb2", G.comp1(b2[1], a2[1]),
                                    P.src(2, a2), P.tgt(2, b2))
    for c3 in P.cells[3]:
        s2, t2 = P.src(3, c3), P.tgt(3, c3)
        for c2 in P.by_src(2, P.tgt(2, s2)):
            P.whisk_l23[(c2, c3)] = ("pb3", G.wl23(c2[1], c3[1]),
                                     P.comp1_22[(c2, s2)], P.comp1_22[(c2, t2)])
        for c2 in P.by_tgt(2, P.src(2, s2)):
            P.whisk_r23[(c3, c2)] = ("pb3", G.wr23(c3[1], c2[1]),
                                     P.comp1_22[(s2, c2)], P.comp1_22[(t2, c2)])
    for d3 in P.cells[3]:
        for g3 in P.by_tgt(3, P.src(3, d3)):
            P.comp2_33[(d3, g3)] = ("pb3", G.comp2(d3[1], g3[1]),
                                    P.src(3, g3), P.tgt(3, d3))
    # tensor per the pulled-back formula: faces are computed in G
    for b2 in P.cells[2]:
        for a2 in P.by_tgt(2, P.src0(2, b2), 0):
            t3 = G.tensor(b2[1], a2[1])
            P.tensor_[(b2, a2)] = ("pb3", t3,
                                   hcomp_left(P, b2, a2), hcomp_right(P, b2, a2))
    proj = {
        0: {x: F.ob_map[x] for x in C.objects},
        1: dict(F.mor_map),
        2: {c: c[1] for c in P.cells[2]},
        3: {c: c[1] for c in P.cells[3]},
    }
    return P, proj


# -- products, subobjects, pullbacks of Gray-categories ----------------------


def sub_graycat(C, keep, name=""):
    """The full substructure on the cells satisfying keep(d, c).

    Tables are restricted; closure is asserted (a failure here is a
    construction bug, matching the universal-arrow convention).
    """
    S = GrayCat(name=name or f"sub({C.name})")
    for d in C.DIMS:
        for c in C.cells[d]:
            if keep(d, c):
                if d == 0:
                    S.add_cell(0, c)
                else:
                    S.add_cell(d, c, C.src_[d][c], C.tgt_[d][c])
    for d in (0, 1, 2):
        for c in S.cells[d]:
            i = C.id_up[d][c]
            if not S.has_cell(d + 1, i):
                raise FactorizationFailed(f"identity of {c!r} escapes the subobject")
            S.id_up[d][c] = i

    def restrict(table, dl, dr):
        return {(l, r): v for (l, r), v in table.items()
                if S.has_cell(dl, l) and S.has_cell(dr, r)}

    S.comp0_11 = restrict(C.comp0_11, 1, 1)
    S.whisk_l12 = restrict(C.whisk_l12, 1, 2)
    S.whisk_r12 = restrict(C.whisk_r12, 2, 1)
    S.whisk_l13 = restrict(C.whisk_l13, 1, 3)
    S.whisk_r13 = restrict(C.whisk_r13, 3, 1)
    S.comp1_22 = restrict(C.comp1_22, 2, 2)
    S.whisk_l23 = restrict(C.whisk_l23, 2, 3)
    S.whisk_r23 = restrict(C.whisk_r23, 3, 2)
    S.comp2_33 = restrict(C.comp2_33, 3, 3)
    S.tensor_ = restrict(C.tensor_, 2, 2)
    for table, dout in [(S.comp0_11, 1), (S.whisk_l12, 2), (S.whisk_r12, 2),
                        (S.whisk_l13, 3), (S.whisk_r13, 3), (S.comp1_22, 2),
                        (S.whisk_l23, 3), (S.whisk_r23, 3), (S.comp2_33, 3),
                        (S.tensor_, 3)]:
        for key, v in table.items():
            if not S.has_cell(dout, v):
                raise FactorizationFailed(
                    f"{S.name}: table result {v!r} for {key!r} escapes the subobject")
    S.is_groupoid = C.is_groupoid
    S.inv1 = {f: g for f, g in C.inv1.items() if S.has_cell(1, f)}
    S.inv2 = {f: g for f, g in C.inv2.items() if S.has_cell(2, f)}
    S.inv3 = {f: g for f, g in C.inv3.items() if S.has_cell(3, f)}
    return S


def product_graycat(A, B, name=""):
    """Componentwise product A x B."""
    P = GrayCat(name=name or f"{A.name}x{B.name}")
    for d in P.DIMS:
        for a in A.cells[d]:
            for b in B.cells[d]:
                if d == 0:
                    P.add_cell(0, (a, b))
                else:
                    P.add_cell(d, (a, b),
                               (A.src_[d][a], B.src_[d][b]),
                               (A.tgt_[d][a], B.tgt_[d][b]))
    for d in (0, 1, 2):
        for (a, b) in P.cells[d]:
            P.id_up[d][(a, b)] = (A.id_up[d][a], B.id_up[d][b])

    def pair_table(ta, tb):
        out = {}
        for (l1, r1), v1 in ta.items():
            for (l2, r2), v2 in tb.items():
                out[((l1, l2), (r1, r2))] = (v1, v2)
        return out

    P.comp0_11 = pair_table(A.comp0_11, B.comp0_11)
    P.whisk_l12 = pair_table(A.whisk_l12, B.whisk_l12)
    P.whisk_r12 = pair_table(A.whisk_r12, B.whisk_r12)
    P.whisk_l13 = pair_table(A.whisk_l13, B.whisk_l13)
    P.whisk_r13 = pair_table(A.whisk_r13, B.whisk_r13)
    P.comp1_22 = pair_table(A.comp1_22, B.comp1_22)
    P.whisk_l23 = pair_table(A.whisk_l23, B.whisk_l23)
    P.whisk_r23 = pair_table(A.whisk_r23, B.whisk_r23)
    P.comp2_33 = pair_table(A.comp2_33, B.comp2_33)
    P.tensor_ = pair_table(A.tensor_, B.tensor_)
    P.is_groupoid = A.is_groupoid and B.is_groupoid
    return P


class StrictMap:
    """A strict Gray-functor between tabulated Gray-categories."""

    def __init__(self, dom, cod, maps, name=""):
        self.dom = dom
        self.cod = cod
        self.maps = {d: dict(maps[d]) for d in GrayCat.DIMS}
        self.name = name

    def __call__(self, d, c):
        return self.maps[d][c]

    def validate(self):
        A, B = self.dom, self.cod
        bad = []
        for d in A.DIMS:
            for c in A.cells[d]:
                if self.maps[d].get(c) not in B._cellset[d]:
                    bad.append(("cell", d, c))
        for d in (1, 2, 3):
            for c in A.cells[d]:
                if (self.maps[d - 1][A.src_[d][c]] != B.src_[d][self.maps[d][c]]
                        or self.maps[d - 1][A.tgt_[d][c]] != B.tgt_[d][self.maps[d][c]]):
                    bad.append(("faces", d, c))
        for d in (0, 1, 2):
            for c in A.cells[d]:
                if self.maps[d + 1][A.id_up[d][c]] != B.id_up[d][self.maps[d][c]]:
                    bad.append(("identity", d, c))
        tables = [
            (A.comp0_11, B.comp0, 1, 1, 1), (A.whisk_l12, B.wl12, 1, 2, 2),
            (A.whisk_r12, B.wr12, 2, 1, 2), (A.whisk_l13, B.wl13, 1, 3, 3),
            (A.whisk_r13, B.wr13, 3, 1, 3), (A.comp1_22, B.comp1, 2, 2, 2),
            (A.whisk_l23, B.wl23, 2, 3, 3), (A.whisk_r23, B.wr23, 3, 2, 3),
            (A.comp2_33, B.comp2, 3, 3, 3), (A.tensor_, B.tensor, 2, 2, 3),
        ]
        for table, op, dl, dr, dout in tables:
            for (l, r), v in table.items():
                if op(self.maps[dl][l], self.maps[dr][r]) != self.maps[dout][v]:
                    bad.append(("table", op.__name__, l, r))
        if bad:
            raise Mismatch(f"not a strict Gray-functor: {bad[:5]}")
        return True


def identity_map(C):
    return StrictMap(C, C, {d: {c: c for c in C.cells[d]} for d in C.DIMS},
                     name=f"id_{C.name}")


def compose_maps(G, F):
    if F.cod is not G.dom:
        raise Mismatch("strict map composition: endpoints differ")
    return StrictMap(F.dom, G.cod,
                     {d: {c: G.maps[d][F.maps[d][c]] for c in F.dom.cells[d]}
                      for d in GrayCat.DIMS},
                     name=f"{G.name}o{F.name}")
