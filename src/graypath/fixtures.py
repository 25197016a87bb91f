"""The shipped fixture library.

T1     terminal Gray-category (one cell per dimension 0 and identities above)
INT    free on a single 1-cell a: 0 -> 1
BIG    one nontrivial 2-cell alpha: f => g between x and y
PAIR   1-cells f: x->y, g: y->z and their composite h = g #0 f
CYC2   one-object groupoid on Z/2 with trivial higher cells
TWIST  free Gray-category on two 0-composable 2-cells alpha: f=>f',
       beta: g=>g'; carries the interchanger beta (x) alpha and its inverse
CHAIN3 / CHAIN4   free categories on composable chains (kappa coherence tests)

Every fixture passes check_gray_axioms; tables are total on composable
tuples, with identity-padded entries filled in programmatically.
"""

from __future__ import annotations

from .kernel import GrayCat, GrayError, composable_keys, hcomp_left


class UnknownFixture(GrayError):
    pass


def fixture(name):
    try:
        builder = _FIXTURES[name.upper()]
    except KeyError:
        raise UnknownFixture(
            f"{name!r}; known: {', '.join(sorted(_FIXTURES))}") from None
    return builder()


def fixture_names():
    return sorted(_FIXTURES)


def _finish(C):
    """Fill in the table entries forced by unit laws, then a few sanity fills.

    Builders declare the interesting entries; everything involving an
    identity cell on one side follows from unitality and is generated here
    so that tables are defined exactly on composable tuples.
    """
    # comp0 with identities
    for f in C.cells[1]:
        x, y = C.src(1, f), C.tgt(1, f)
        C.comp0_11.setdefault((f, C.id_up[0][x]), f)
        C.comp0_11.setdefault((C.id_up[0][y], f), f)
    # 1-on-2 whiskers
    for a in C.cells[2]:
        x, y = C.src0(2, a), C.tgt0(2, a)
        C.whisk_l12.setdefault((C.id_up[0][y], a), a)
        C.whisk_r12.setdefault((a, C.id_up[0][x]), a)
    for k, f in composable_keys(C, "comp0"):
        kf = C.comp0_11[(k, f)]
        C.whisk_l12.setdefault((k, C.id_up[1][f]), C.id_up[1][kf])
        C.whisk_r12.setdefault((C.id_up[1][k], f), C.id_up[1][kf])
    # comp1 with identity 2-cells
    for a in C.cells[2]:
        f, g = C.src(2, a), C.tgt(2, a)
        C.comp1_22.setdefault((a, C.id_up[1][f]), a)
        C.comp1_22.setdefault((C.id_up[1][g], a), a)
    # 1-on-3 whiskers
    for g3 in C.cells[3]:
        x, y = C.src0(3, g3), C.tgt0(3, g3)
        C.whisk_l13.setdefault((C.id_up[0][y], g3), g3)
        C.whisk_r13.setdefault((g3, C.id_up[0][x]), g3)
    for k, a in composable_keys(C, "wl12"):
        C.whisk_l13.setdefault((k, C.id_up[2][a]),
                               C.id_up[2][C.whisk_l12[(k, a)]])
    for a, k in composable_keys(C, "wr12"):
        C.whisk_r13.setdefault((C.id_up[2][a], k),
                               C.id_up[2][C.whisk_r12[(a, k)]])
    # 2-on-3 whiskers with identity 3-cells
    for g3 in C.cells[3]:
        a = C.src(3, g3)
        f, g = C.src(2, a), C.tgt(2, a)
        C.whisk_l23.setdefault((C.id_up[1][g], g3), g3)
        C.whisk_r23.setdefault((g3, C.id_up[1][f]), g3)
    for b, a in composable_keys(C, "comp1"):
        ba = C.id_up[2][C.comp1_22[(b, a)]]
        C.whisk_l23.setdefault((b, C.id_up[2][a]), ba)
        C.whisk_r23.setdefault((C.id_up[2][b], a), ba)
    # comp2 with identities
    for g3 in C.cells[3]:
        a, b = C.src(3, g3), C.tgt(3, g3)
        C.comp2_33.setdefault((g3, C.id_up[2][a]), g3)
        C.comp2_33.setdefault((C.id_up[2][b], g3), g3)
    # tensors with an identity 2-cell collapse to identity 3-cells
    for b, a in composable_keys(C, "tensor"):
        if (b, a) not in C.tensor_ and (C.is_id2(b) or C.is_id2(a)):
            C.tensor_[(b, a)] = C.id_up[2][hcomp_left(C, b, a)]
    return C


def _trivial_above_1(C):
    """Only identity 2- and 3-cells; tables follow from unit laws."""
    for f in C.cells[1]:
        a = f"id[{f}]"
        C.add_cell(2, a, f, f)
        C.id_up[1][f] = a
    for a in C.cells[2]:
        g = f"id[{a}]"
        C.add_cell(3, g, a, a)
        C.id_up[2][a] = g


def t1():
    C = GrayCat("T1")
    C.add_cell(0, "*")
    C.id_up[0]["*"] = "id*"
    C.add_cell(1, "id*", "*", "*")
    C.comp0_11[("id*", "id*")] = "id*"
    _trivial_above_1(C)
    C.generators = []
    return _finish(C)


def interval():
    C = GrayCat("INT")
    for x in ("0", "1"):
        C.add_cell(0, x)
        C.id_up[0][x] = f"id{x}"
        C.add_cell(1, f"id{x}", x, x)
    C.add_cell(1, "a", "0", "1")
    _trivial_above_1(C)
    C.generators = ["a"]
    return _finish(C)


def big():
    C = GrayCat("BIG")
    for x in ("x", "y"):
        C.add_cell(0, x)
        C.id_up[0][x] = f"id{x}"
        C.add_cell(1, f"id{x}", x, x)
    C.add_cell(1, "f", "x", "y")
    C.add_cell(1, "g", "x", "y")
    for h in ("idx", "idy", "f", "g"):
        a = f"id[{h}]"
        C.add_cell(2, a, h, h)
        C.id_up[1][h] = a
    C.add_cell(2, "alpha", "f", "g")
    for a in C.cells[2]:
        g3 = f"id[{a}]"
        C.add_cell(3, g3, a, a)
        C.id_up[2][a] = g3
    # whiskers by identities only; alpha has no nontrivial whiskers in BIG
    C.whisk_l12[("idy", "alpha")] = "alpha"
    C.whisk_r12[("alpha", "idx")] = "alpha"
    C.whisk_l13[("idy", "id[alpha]")] = "id[alpha]"
    C.whisk_r13[("id[alpha]", "idx")] = "id[alpha]"
    C.generators = ["f", "g"]
    return _finish(C)


def pair():
    C = GrayCat("PAIR")
    for x in ("x", "y", "z"):
        C.add_cell(0, x)
        C.id_up[0][x] = f"id{x}"
        C.add_cell(1, f"id{x}", x, x)
    C.add_cell(1, "f", "x", "y")
    C.add_cell(1, "g", "y", "z")
    C.add_cell(1, "h", "x", "z")
    C.comp0_11.update({("g", "f"): "h"})
    _trivial_above_1(C)
    C.generators = ["f", "g"]
    return _finish(C)


def chain(n):
    """Free category on a composable chain of n generating 1-cells."""
    C = GrayCat(f"CHAIN{n}")
    for i in range(n + 1):
        x = f"x{i}"
        C.add_cell(0, x)
        C.id_up[0][x] = f"id{x}"
        C.add_cell(1, f"id{x}", x, x)
    # generator ci: x{i} -> x{i+1}; composite c[i..j] spans x{i} -> x{j}
    def name(i, j):
        return f"c{i}{j}"
    for i in range(n):
        C.add_cell(1, name(i, i + 1), f"x{i}", f"x{i+1}")
    for span in range(2, n + 1):
        for i in range(0, n - span + 1):
            C.add_cell(1, name(i, i + span), f"x{i}", f"x{i+span}")
    comp = {}
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                comp[(name(j, k), name(i, j))] = name(i, k)
    C.comp0_11.update(comp)
    _trivial_above_1(C)
    C.generators = [name(i, i + 1) for i in range(n)]
    return _finish(C)


def cyc2():
    C = GrayCat("CYC2")
    C.add_cell(0, "*")
    C.id_up[0]["*"] = "e"
    C.add_cell(1, "e", "*", "*")
    C.add_cell(1, "s", "*", "*")
    C.comp0_11.update({("s", "s"): "e"})
    _trivial_above_1(C)
    C.is_groupoid = True
    C.inv1 = {"e": "e", "s": "s"}
    C.inv2 = {a: a for a in C.cells[2]}
    C.inv3 = {g: g for g in C.cells[3]}
    return _finish(C)


def twist():
    """Free Gray-category on alpha: f => f' (x to y) and beta: g => g' (y to z).

    2-cells of hom(x,z) are the monotone paths in the 2x2 whisker grid;
    the interchanger tau = beta (x) alpha runs from the left to the right
    horizontal composite, with inverse tau~ adjoined (interchangers are
    invertible).
    """
    C = GrayCat("TWIST")
    for x in ("x", "y", "z"):
        C.add_cell(0, x)
        C.id_up[0][x] = f"id{x}"
        C.add_cell(1, f"id{x}", x, x)
    for f, (s, t) in {"f": ("x", "y"), "fp": ("x", "y"),
                      "g": ("y", "z"), "gp": ("y", "z")}.items():
        C.add_cell(1, f, s, t)
    comp = {}
    for gg in ("g", "gp"):
        for ff in ("f", "fp"):
            comp[(gg, ff)] = f"{gg}.{ff}"
            C.add_cell(1, f"{gg}.{ff}", "x", "z")
    C.comp0_11.update(comp)

    for h in list(C.cells[1]):
        a = f"id[{h}]"
        C.add_cell(2, a, h, h)
        C.id_up[1][h] = a
    C.add_cell(2, "alpha", "f", "fp")
    C.add_cell(2, "beta", "g", "gp")
    # whiskered generators in hom(x, z)
    C.add_cell(2, "g.alpha", "g.f", "g.fp")
    C.add_cell(2, "gp.alpha", "gp.f", "gp.fp")
    C.add_cell(2, "beta.f", "g.f", "gp.f")
    C.add_cell(2, "beta.fp", "g.fp", "gp.fp")
    # the two horizontal composites
    C.add_cell(2, "b<a", "g.f", "gp.fp")
    C.add_cell(2, "b>a", "g.f", "gp.fp")

    C.whisk_l12[("g", "alpha")] = "g.alpha"
    C.whisk_l12[("gp", "alpha")] = "gp.alpha"
    C.whisk_r12[("beta", "f")] = "beta.f"
    C.whisk_r12[("beta", "fp")] = "beta.fp"
    C.comp1_22[("beta.fp", "g.alpha")] = "b<a"
    C.comp1_22[("gp.alpha", "beta.f")] = "b>a"

    for a in list(C.cells[2]):
        g3 = f"id[{a}]"
        C.add_cell(3, g3, a, a)
        C.id_up[2][a] = g3
    C.add_cell(3, "tau", "b<a", "b>a")
    C.add_cell(3, "tau~", "b>a", "b<a")
    C.comp2_33[("tau~", "tau")] = "id[b<a]"
    C.comp2_33[("tau", "tau~")] = "id[b>a]"
    C.inv3 = {"tau": "tau~", "tau~": "tau"}
    C.tensor_[("beta", "alpha")] = "tau"
    C.generators = ["f", "fp", "g", "gp"]
    return _finish(C)


_FIXTURES = {
    "T1": t1,
    "INT": interval,
    "BIG": big,
    "PAIR": pair,
    "CYC2": cyc2,
    "TWIST": twist,
    "CHAIN3": lambda: chain(3),
    "CHAIN4": lambda: chain(4),
}
