"""TupleView: the formula oracle for the n-fold pullbacks of path(H).

With graypath.pathcomp.composable_tuples and pathspace.materialize it
builds the tables that the tests compare build_pullback against.
"""


class TupleView:
    """Componentwise operations on n-tuples of path cells over one view."""

    def __init__(self, V, n, name=""):
        self.V = V
        self.name = name or f"{V.name}^{n}"
        self.is_groupoid = V.is_groupoid

    def _zip(self, op, *tuples):
        return tuple(map(op, *tuples))

    def src(self, d, c):
        return tuple(self.V.src(d, x) for x in c)

    def tgt(self, d, c):
        return tuple(self.V.tgt(d, x) for x in c)

    def ident(self, d, c):
        return tuple(self.V.ident(d, x) for x in c)

    def comp0(self, h, g):
        return self._zip(self.V.comp0, h, g)

    def comp1(self, b, a):
        return self._zip(self.V.comp1, b, a)

    def comp2(self, d3, g3):
        return self._zip(self.V.comp2, d3, g3)

    def wl12(self, k, a):
        return self._zip(self.V.wl12, k, a)

    def wr12(self, a, k):
        return self._zip(self.V.wr12, a, k)

    def wl13(self, k, g):
        return self._zip(self.V.wl13, k, g)

    def wr13(self, g, k):
        return self._zip(self.V.wr13, g, k)

    def wl23(self, c, g):
        return self._zip(self.V.wl23, c, g)

    def wr23(self, g, c):
        return self._zip(self.V.wr23, g, c)

    def tensor(self, b, a):
        return self._zip(self.V.tensor, b, a)
