"""The path composition m, its cocycle, internal category laws, and o."""

import functools
import random

import pytest

from graypath.fixtures import fixture
from graypath.faults import corrupt_m_cocycle
from graypath.kernel import (TABLES, StrictMap, _key_order, all_pass,
                             composable_keys, identity_map, law_report,
                             pullback_cells, run_laws)
from graypath import pathcomp, presentation, resolution
from graypath.resolution import (PseudoMap, kleisli_compose,
                                 validate_pseudo_map)
from graypath.pathcomp import (build_pullback, composable_tuples, m_apply,
                               m_cocycle, m_naturality_check, m_pseudo,
                               o_cell, o_pseudo, verify_internal_category,
                               verify_internal_groupoid, verify_m_pseudo)
from graypath.pathspace import (PathView, build_pathspace, degeneracy,
                                materialize, pd0, pd1)
from tuple_view import TupleView


@pytest.fixture(scope="module")
def pair_setup():
    H = fixture("PAIR")
    PH = build_pathspace(H)
    return H, PH, PathView(H)


def test_m_identity_paths(pair_setup):
    H, PH, V = pair_setup
    for f in H.cells[1]:
        y = H.tgt(1, f)
        up = V.ident(0, H.ident(0, y))
        lo = V.ident(0, f)
        # the identity square on id_y is a left unit for pasting
        r = m_apply(H, 1, up, lo)
        assert r == lo


def test_m_pair_squares(pair_setup):
    """Two commuting squares over f and g paste to one over h = g #0 f."""
    H, PH, V = pair_setup
    lo = ("sq", "id[f]", "idx", "idy", "f", "f")
    up = ("sq", "id[g]", "idy", "idz", "g", "g")
    r = m_apply(H, 1, up, lo)
    assert r[4] == "h" and r[5] == "h"
    assert r[1] == H.ident(1, "h")


def test_m_2cell_twist_matches_stepwise_oracle():
    H = fixture("TWIST")
    PH = build_pathspace(H)
    V = PathView(H)
    K = build_pullback(PH, H, 2)
    checked = 0
    for (u, l) in K.cells[2]:
        if H.is_id3(u[1]) and H.is_id3(l[1]):
            continue
        fh1 = u[4][5]
        top = l[4][4]
        step1 = H.wr23(H.wl13(fh1, l[1]), H.wr12(u[4][1], top))
        step2 = H.wl23(H.wl12(fh1, l[5][1]), H.wr13(u[1], top))
        assert m_apply(H, 2, u, l)[1] == H.comp2(step2, step1)
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("name", ["INT", "PAIR"])
def test_m_cocycle_trivial_when_tensors_trivial(name):
    H = fixture(name)
    PH = build_pathspace(H)
    V = PathView(H)
    K = build_pullback(PH, H, 2)
    for (q, p) in K.comp0_11:
        c = m_cocycle(H, V, q, p)
        assert PH.is_id2(c)


def test_m_cocycle_twist_component_is_whiskered_interchanger():
    H = fixture("TWIST")
    PH = build_pathspace(H)
    V = PathView(H)
    K = build_pullback(PH, H, 2)
    seen_tau = 0
    for (q, p) in K.comp0_11:
        c = m_cocycle(H, V, q, p)
        # 2-cell faces of the cocycle are always identities
        assert H.is_id2(c[2]) and H.is_id2(c[3])
        base = H.tensor(q[0][1], p[1][1])
        if base == "tau":
            # the 3-component is tau in its whisker context, never dropped
            assert not PH.is_id2(c)
            seen_tau += 1
    assert seen_tau > 0


@pytest.mark.parametrize("name", ["T1", "BIG"])
def test_verify_m_pseudo(name):
    reports = verify_m_pseudo(fixture(name))
    assert all_pass(reports), [r for r in reports if not r.ok]


@pytest.mark.parametrize("name", ["INT", "CYC2"])
def test_verify_internal_category(name):
    reports = verify_internal_category(fixture(name))
    assert all_pass(reports), [r for r in reports if not r.ok]
    assert all(r.tuples_checked > 0 for r in reports)


def test_m_natural_for_strict_functor():
    H = fixture("BIG")
    T = fixture("T1")
    maps = {0: {x: "*" for x in H.cells[0]},
            1: {f: "id*" for f in H.cells[1]},
            2: {a: "id[id*]" for a in H.cells[2]},
            3: {g: "id[id[id*]]" for g in H.cells[3]}}
    bang = StrictMap(H, T, maps, name="!")
    bang.validate()
    rep = m_naturality_check(bang, H, T)
    assert rep.ok


def test_m_naturality_reports_a_broken_map():
    """A map that stops being a functor after validation fails the square
    with the tuples checked so far, instead of raising."""
    H = fixture("BIG")
    F = identity_map(H)
    F.validate()
    F.maps[2]["alpha"] = "id[f]"
    rep = m_naturality_check(F, H, H)
    assert not rep.ok
    assert rep.tuples_checked > 0
    assert rep.counterexample[:2] == ("error", "NotComposable")


def test_o_identity_and_inverse_laws():
    H = fixture("CYC2")
    reports = verify_internal_groupoid(H)
    assert all_pass(reports), [r for r in reports if not r.ok]


def test_o_cocycle_trivial_when_tensors_trivial():
    H = fixture("CYC2")
    PH, o = o_pseudo(H)
    for pair in o.cocycle:
        assert PH.is_id2(o.cocycle[pair])


def test_o_requires_groupoid():
    from graypath.kernel import NotAGroupoid
    H = fixture("BIG")
    with pytest.raises(NotAGroupoid):
        o_cell(H, ("sq", "alpha", "idx", "idy", "f", "g"))


def test_unit_law_quantified_over_all_cells():
    for name in ("BIG", "CYC2"):
        H = fixture(name)
        PH = build_pathspace(H)
        V = PathView(H)
        for d in range(4):
            for c in PH.cells[d]:
                lo = degeneracy(H, d, pd0(H, d, c))
                hi = degeneracy(H, d, pd1(H, d, c))
                assert m_apply(H, d, c, lo) == c
                assert m_apply(H, d, hi, c) == c


@pytest.mark.parametrize("name", ["BIG", "PAIR", "CYC2"])
def test_pullback_lookup_matches_formula_oracle(name):
    """Tables filled by lookup in path(H) equal those filled by the path
    formulas, document for document."""
    H = fixture(name)
    PH = build_pathspace(H)
    for n in (2, 3):
        cells = composable_tuples(PH, H, n)
        oracle = materialize(TupleView(PathView(H), n),
                             tuple(cells[d] for d in range(4)),
                             name=f"pb{n}({H.name})")
        assert presentation.dumps(build_pullback(PH, H, n)) == \
            presentation.dumps(oracle)


@pytest.mark.parametrize("name", ["BIG", "PAIR", "CYC2", "CHAIN3"])
def test_tabulated_cocycles_and_identities_match_the_formulas(name):
    """The associativity law reads m's cocycle table and path(H)'s
    identities; both agree with the path formulas they replace."""
    H = fixture(name)
    V = PathView(H)
    PH, K, m = m_pseudo(H)
    for (q, p) in K.comp0_11:
        assert m.coc(q, p) == m_cocycle(H, V, q, p)
    for (a, b) in PH.comp0_11:
        assert PH.ident(1, PH.comp0(a, b)) == V.ident(1, V.comp0(a, b))


@pytest.mark.parametrize("name, pairs", [
    ("BIG", 80), ("PAIR", 175), ("CYC2", 256), ("CHAIN3", 980)])
def test_internal_category_derives_each_cocycle_once(monkeypatch, name,
                                                     pairs):
    """m_cocycle runs once per composable pair of the 2-fold pullback, when
    m is built; the induced maps of the triple pullback read m's table.
    Re-deriving them ran it 416, 1,155, 4,352 and 9,212 times."""
    calls = []
    body = pathcomp.m_cocycle

    def counted(*args):
        calls.append(args[2:])
        return body(*args)
    monkeypatch.setattr(pathcomp, "m_cocycle", counted)
    reports = verify_internal_category(fixture(name))
    assert all_pass(reports), [r for r in reports if not r.ok]
    assert len(calls) == pairs
    H = fixture(name)
    K = build_pullback(build_pathspace(H), H, 2)
    assert len(K.comp0_11) == pairs
    assert set(calls) == set(K.comp0_11)


# sha256 of `graypath --report json check m NAME` for the fixtures that
# tests/test_golden_digests.py does not pin, taken before pullbacks were
# filled by a join on cell positions and before the tensor laws were
# memoized per value pair
CHECK_M_REPORTS = {
    "T1": "6dde4480618a02fa69a88252afa1057aba319932dedd3821a651df34a0c7a321",
    "INT": "9fc0674b2485a7db2cd0d0b92b157ccbd2efc852494145dc1ef48ab5b64074e7",
    "CHAIN4":
        "028026308ce82f4bcade47a2b7718ae21886ca056a130b44b8e6de8accbc165b",
    "TWIST":
        "21ff36b01b2e6253ab4c23457ac0f1d2b3578afc146d7791fe47924c20347e15",
}


@pytest.mark.parametrize("name", sorted(CHECK_M_REPORTS))
def test_check_m_report_digest(name):
    import hashlib

    from click.testing import CliRunner

    from graypath.cli import main
    r = CliRunner().invoke(main, ["--report", "json", "check", "m", name])
    assert r.exit_code == 0, r.output
    assert hashlib.sha256(r.output.encode("utf-8")).hexdigest() == \
        CHECK_M_REPORTS[name]


M_INPUTS = ["BIG", "PAIR", "CYC2", "CHAIN3"]


@functools.lru_cache(maxsize=None)
def _m(name):
    return m_pseudo(fixture(name))[2]


@pytest.mark.parametrize("name", M_INPUTS)
def test_a_passing_pseudo_map_check_sorts_no_table(monkeypatch, name):
    """validate_pseudo_map(m) reads the domain tables in insertion order:
    when every law passes, nothing is sorted by _key_order."""
    calls = []
    body = resolution._key_order

    def counted(table):
        calls.append(len(table))
        return body(table)
    monkeypatch.setattr(resolution, "_key_order", counted)
    assert all_pass(validate_pseudo_map(_m(name)))
    assert calls == []


def _local_sesquifunctor(F, order):
    """The local-sesquifunctor law over F's domain tables in one order."""
    rows = {row[0]: row for row in TABLES}
    for name in ("comp1", "comp2", "whisk_l23", "whisk_r23"):
        _, attr, op, dl, dr, dout = rows[name]
        dom_op, cod_op = getattr(F.dom, op), getattr(F.cod, op)
        for (l, r), _ in order(getattr(F.dom, attr)):
            yield F(dout, dom_op(l, r)) == cod_op(F(dl, l), F(dr, r)), \
                (name, l, r)


def test_a_failing_local_sesquifunctor_names_the_sorted_witness():
    """With one 2- or 3-cell image of m changed so that local-sesquifunctor
    fails, its report (witness, tuple count and all) is the one a run over
    the tables sorted from the start gives; on some of the 20 faults the
    first failure in insertion order is another tuple."""
    rng = random.Random(19)
    faults = elsewhere = 0
    while faults < 20:
        m = _m(rng.choice(M_INPUTS))
        d = rng.choice((2, 3))
        c = rng.choice(m.dom.cells[d])
        image = rng.choice(m.cod.cells[d])
        if image == m(d, c):
            continue
        assign = {e: dict(m.assignment[e]) for e in m.assignment}
        assign[d][c] = image
        F = PseudoMap(m.dom, m.cod, assign, m.cocycle, name=m.name)
        report = validate_pseudo_map(F)[1]
        if report.ok:
            continue
        faults += 1
        law = "local-sesquifunctor"
        assert report.as_dict() == \
            law_report(law, _local_sesquifunctor(F, _key_order)).as_dict()
        first = law_report(law, _local_sesquifunctor(F, dict.items))
        elsewhere += first.as_dict() != report.as_dict()
    assert elsewhere > 0


def _assoc_by_kleisli_compose(H, PH, K, m):
    """internal-associativity by a second route: the induced maps m x 1
    and 1 x m of the triple pullback as pseudo maps, each composed with m
    by kleisli_compose, then compared cell by cell and pair by pair."""
    K3, _ = pullback_cells(*pathcomp._extension(K, PH, H), "pb3")
    pairs = list(composable_keys(K3, "comp0"))

    def induced(cell, coc, name):
        assign = {d: {c: cell(d, c) for c in K3.cells[d]}
                  for d in (0, 1, 2, 3)}
        return PseudoMap(K3, K, assign, {p: coc(*p) for p in pairs}, name)

    def laws():
        mx1 = induced(lambda d, c: (m(d, c[:2]), c[2]),
                      lambda t, s: (m.coc(t[:2], s[:2]),
                                    PH.ident(1, PH.comp0(t[2], s[2]))),
                      "mx1")
        x1m = induced(lambda d, c: (c[0], m(d, c[1:])),
                      lambda t, s: (PH.ident(1, PH.comp0(t[0], s[0])),
                                    m.coc(t[1:], s[1:])),
                      "1xm")
        lhs, rhs = kleisli_compose(m, mx1), kleisli_compose(m, x1m)
        for d in (0, 1, 2, 3):
            for c in K3.cells[d]:
                yield lhs(d, c) == rhs(d, c), ("assoc-cells", d, c)
        for pair in pairs:
            yield lhs.coc(*pair) == rhs.coc(*pair), ("assoc-cocycle", pair)

    return law_report("internal-associativity", laws()).as_dict()


def _assoc_report(H):
    """The internal-associativity report of verify_internal_category(H)."""
    [report] = [r for r in verify_internal_category(H)
                if r.law == "internal-associativity"]
    return report.as_dict()


@pytest.mark.parametrize("name", M_INPUTS)
def test_associativity_read_off_m_matches_kleisli_compose(name):
    """Associativity read straight off m reports what composing m with
    m x 1 and 1 x m by kleisli_compose reports."""
    H = fixture(name)
    PH, K, m = m_pseudo(H)
    expected = _assoc_by_kleisli_compose(H, PH, K, m)
    assert expected["status"] == "pass"
    assert _assoc_report(H) == expected


@pytest.mark.parametrize("name", ["CYC2", "CHAIN3"])
def test_associativity_routes_agree_on_corrupted_cocycles(monkeypatch, name):
    """With one cocycle of m swapped (seeds 0-9), the two routes give the
    same failing report, counterexample and tuple count included."""
    H = fixture(name)
    for seed in range(10):
        m, _ = corrupt_m_cocycle(H, seed)
        PH, K = m.cod, m.dom
        monkeypatch.setattr(pathcomp, "m_pseudo", lambda H: (PH, K, m))
        report = _assoc_report(H)
        monkeypatch.undo()
        assert report["status"] == "fail", seed
        assert report == _assoc_by_kleisli_compose(H, PH, K, m), seed


@pytest.mark.parametrize("name", ["CYC2", "CHAIN3"])
def test_associativity_routes_agree_on_a_differing_cocycle(monkeypatch,
                                                          name):
    """path(H)'s comp1 made to return a fresh value whenever its left
    operand is one of the 2-cells the composite cocycles are formed from:
    both routes fail at the same pair, with the same report."""
    H = fixture(name)
    PH, K, m = m_pseudo(H)
    comp1, lefts = PH.comp1, []

    def recorded(b, a):
        lefts.append(b)
        return comp1(b, a)
    monkeypatch.setattr(PH, "comp1", recorded)
    _assoc_by_kleisli_compose(H, PH, K, m)
    chosen = lefts[len(lefts) // 2]
    monkeypatch.setattr(PH, "comp1",
                        lambda b, a: object() if b == chosen else comp1(b, a))
    monkeypatch.setattr(pathcomp, "m_pseudo", lambda H: (PH, K, m))
    report = _assoc_report(H)
    assert report["status"] == "fail"
    assert report["counterexample"][0] == "assoc-cocycle"
    assert report == _assoc_by_kleisli_compose(H, PH, K, m)


def test_a_swapped_cell_image_fails_associativity_at_its_cell(monkeypatch):
    """m's image of one 3-cell (m(a, b), c) of CHAIN3's 2-fold pullback
    swapped for another 3-cell of path(H).  Read off m, associativity fails
    at the first K3 cell whose two sides differ, every cell before it
    passed.  kleisli_compose builds all of both composites first, and one
    pairing with the swapped image is no cell of K: that route fails with
    an error, at no tuple."""
    H = fixture("CHAIN3")
    PH, K, m = m_pseudo(H)
    K3, _ = pullback_cells(*pathcomp._extension(K, PH, H), "pb3")
    a, b, c = K3.cells[3][len(K3.cells[3]) // 2]
    key = (m(3, (a, b)), c)
    m.assignment[3][key] = next(x for x in PH.cells[3] if x != m(3, key))
    monkeypatch.setattr(pathcomp, "m_pseudo", lambda H: (PH, K, m))
    [report] = [r for r in verify_internal_category(H)
                if r.law == "internal-associativity"]
    law, d, (a, b, c) = report.counterexample
    assert (law, d) == ("assoc-cells", 3)
    assert m(3, (m(3, (a, b)), c)) != m(3, (a, m(3, (b, c))))
    assert report.tuples_checked == sum(len(K3.cells[e]) for e in (0, 1, 2)) \
        + K3.cells[3].index((a, b, c)) + 1
    expected = _assoc_by_kleisli_compose(H, PH, K, m)
    assert expected["counterexample"][0] == "error"
    assert expected["tuples_checked"] == 0


def _all_nested(H, PH, K, m):
    """verify_internal_category's reports with every law run on m and its
    nested cells: validate_pseudo_map(m), then the internal laws as they
    read before they ran on positions."""
    K3, _ = pullback_cells(*pathcomp._extension(K, PH, H), "pb3")
    pairs = list(composable_keys(K3, "comp0"))

    def faces():
        for d in (0, 1, 2, 3):
            for (a, b) in K.cells[d]:
                mc = m(d, (a, b))
                yield pd0(H, d, mc) == pd0(H, d, b), ("d0-of-m", d, a, b)
                yield pd1(H, d, mc) == pd1(H, d, a), ("d1-of-m", d, a, b)

    def units():
        for d in (0, 1, 2, 3):
            for c in PH.cells[d]:
                right = degeneracy(H, d, pd0(H, d, c))
                left = degeneracy(H, d, pd1(H, d, c))
                yield m(d, (c, right)) == c, ("right-unit", d, c)
                yield m(d, (left, c)) == c, ("left-unit", d, c)
        for (q, p) in K.comp0_11:
            if K.is_id1(q) or K.is_id1(p):
                yield PH.is_id2(m.coc(q, p)), ("unit-cocycle", q, p)

    def assoc():
        lhs = [PH.comp1(m(2, (m.coc(t[:2], s[:2]),
                              PH.ident(1, PH.comp0(t[2], s[2])))),
                        m.coc((m(1, t[:2]), t[2]), (m(1, s[:2]), s[2])))
               for (t, s) in pairs]
        rhs = [PH.comp1(m(2, (PH.ident(1, PH.comp0(t[0], s[0])),
                              m.coc(t[1:], s[1:]))),
                        m.coc((t[0], m(1, t[1:])), (s[0], m(1, s[1:]))))
               for (t, s) in pairs]
        for d in (0, 1, 2, 3):
            for (a, b, c) in K3.cells[d]:
                yield (m(d, (m(d, (a, b)), c)) == m(d, (a, m(d, (b, c)))),
                       ("assoc-cells", d, (a, b, c)))
        for pair, l, r in zip(pairs, lhs, rhs):
            yield l == r, ("assoc-cocycle", pair)

    return validate_pseudo_map(m) + run_laws([
        ("internal-source-target", faces()),
        ("internal-units", units()),
        ("internal-associativity", assoc()),
    ])


def _faulty_ms(H):
    """m of H with one fault each: a cocycle swapped by corrupt_m_cocycle
    (seeds 0-39), the image of one 1-, 2- and 3-cell swapped for another
    cell of path(H), and one 2-cell image that is no cell of path(H)."""
    for seed in range(40):
        yield corrupt_m_cocycle(H, seed)[0]
    PH, K, m = m_pseudo(H)

    def with_image(d, c, image):
        assign = {e: dict(m.assignment[e]) for e in m.assignment}
        assign[d][c] = image
        return PseudoMap(K, PH, assign, m.cocycle, name=m.name)

    for d in (1, 2, 3):
        c = K.cells[d][len(K.cells[d]) // 2]
        yield with_image(d, c, next(x for x in PH.cells[d] if x != m(d, c)))
    c = K.cells[2][len(K.cells[2]) // 2]
    yield with_image(2, c, ("p2", "no-such-3-cell") + m(2, c)[2:])


@pytest.mark.parametrize("name", ["CYC2", "CHAIN3"])
def test_check_m_on_positions_reports_as_all_nested(monkeypatch, name):
    """verify_internal_category runs its laws on positions and re-runs a
    failing one on m: on 44 faulty m's its reports are the all-nested
    route's, report for report, and a passing run sorts no table."""
    H = fixture(name)
    calls, maps = [], []

    def counted(table):
        calls.append(len(table))
        return _key_order(table)
    laws, internal = resolution._pseudo_map_laws, pathcomp._internal_laws

    def spied(F, order):
        maps.append(F.dom.cells)
        return laws(F, order)

    def spied_internal(m, cells, *args):
        maps.append(cells)
        return internal(m, cells, *args)
    monkeypatch.setattr(resolution, "_key_order", counted)
    monkeypatch.setattr(resolution, "_pseudo_map_laws", spied)
    monkeypatch.setattr(pathcomp, "_internal_laws", spied_internal)
    assert all_pass(verify_internal_category(H))
    assert calls == []
    # each route ran once, on cells that are positions
    assert [[type(c[d]) for d in range(4)] for c in maps] == [[range] * 4] * 2
    faults = 0
    for m in _faulty_ms(H):
        PH, K = m.cod, m.dom
        monkeypatch.setattr(pathcomp, "m_pseudo", lambda H: (PH, K, m))
        reports = [r.as_dict() for r in verify_internal_category(H)]
        assert reports == [r.as_dict() for r in _all_nested(H, PH, K, m)]
        faults += any(r["status"] == "fail" for r in reports)
    assert faults == 44


@pytest.mark.parametrize("name", ["T1", "INT", "BIG", "PAIR", "CYC2", "TWIST",
                                  "CHAIN3", "CHAIN4"])
def test_m_by_lookup_is_the_formula(name):
    """Every image and cocycle of m_pseudo, built by lookup, is what
    m_apply and m_cocycle over PathView(H) give, and is the object that
    path(H)'s cells hold."""
    H = fixture(name)
    V = PathView(H)
    PH, K, m = m_pseudo(H)
    for d in (0, 1, 2, 3):
        for c, v in m.assignment[d].items():
            assert v == m_apply(H, d, *c)
            assert v is PH.canonical(d, v)
    for (q, p), v in m.cocycle.items():
        assert v == m_cocycle(H, V, q, p)
        assert v is PH.canonical(2, v)
