"""The two tensor laws of validate_pseudo_map, memoized per value pair.

compositor-tensors-trivial and mixed-tensors-vanish test is_id3(tensor(x,
y)) once per distinct pair of values.  The laws written out below are the
unmemoized ones they replaced: one tensor and one is_id3 per tuple.  With
is_id3 made to fail for one chosen value pair, both give the same reports,
and each distinct value pair reaches tensor once.
"""

from collections import Counter

import pytest

from graypath.fixtures import fixture
from graypath.kernel import GrayError, composable_keys, run_laws
from graypath.pathcomp import m_pseudo
from graypath.resolution import PseudoMap, validate_pseudo_map

LAWS = ("compositor-tensors-trivial", "mixed-tensors-vanish")


def _pairs(dom):
    """dom's composable 1-cell pairs, and for each object x the pairs
    (f3, f4) with tgt(f3) = x, in the same order."""
    pairs = list(composable_keys(dom, "comp0"))
    after = {x: [(f3, f4) for (f3, f4) in pairs if dom.tgt(1, f3) == x]
             for x in dom.cells[0]}
    return pairs, after


def _value_pairs(F):
    """The (x, y) each tuple of the two laws tensors, in tuple order."""
    dom = F.dom
    pairs, after = _pairs(dom)
    for (f1, f2) in pairs:
        for (f3, f4) in after[dom.src(1, f2)]:
            yield F.coc(f1, f2), F.coc(f3, f4)
    for (g, f) in pairs:
        c = F.coc(g, f)
        for a in dom.by_tgt(2, dom.src(1, f), 0):
            yield c, F(2, a)
        for a in dom.by_src(2, dom.tgt(1, g), 0):
            yield F(2, a), c


def _unmemoized(F):
    dom, cod = F.dom, F.cod
    pairs, after = _pairs(dom)

    def compositor_tensors_trivial():
        for (f1, f2) in pairs:
            for (f3, f4) in after[dom.src(1, f2)]:
                t = cod.tensor(F.coc(f1, f2), F.coc(f3, f4))
                yield cod.is_id3(t), ("compositor-tensor-trivial",
                                      (f1, f2), (f3, f4))

    def mixed_tensors_vanish():
        for (g, f) in pairs:
            c = F.coc(g, f)
            for a in dom.by_tgt(2, dom.src(1, f), 0):
                t = cod.tensor(c, F(2, a))
                yield cod.is_id3(t), ("tensor-cocycle-left", (g, f), a)
            for a in dom.by_src(2, dom.tgt(1, g), 0):
                t = cod.tensor(F(2, a), c)
                yield cod.is_id3(t), ("tensor-cocycle-right", a, (g, f))

    return run_laws(zip(LAWS, (compositor_tensors_trivial(),
                               mixed_tensors_vanish())))


@pytest.fixture(scope="module", params=["CYC2", "CHAIN3"])
def m(request):
    return m_pseudo(fixture(request.param))[2]


def _first_met(F):
    """Each distinct value pair with the index of the first tuple that
    tensors it, in that order."""
    first = {}
    for n, xy in enumerate(_value_pairs(F)):
        first.setdefault(xy, n)
    return list(first.items())


@pytest.mark.parametrize("when", ["mid", "late"])
@pytest.mark.parametrize("how", ["false", "raise"])
def test_a_failing_value_pair_fails_as_unmemoized(monkeypatch, m, when, how):
    """is_id3 fails on the tensor of one chosen value pair: the middle one
    of the distinct pairs in the order they are first met, or the last one
    met.  It returns False, or raises.  The memoized laws report what the
    unmemoized ones do: status, tuples checked and counterexample."""
    cod = m.cod
    met = _first_met(m)
    chosen, _ = met[len(met) // 2] if when == "mid" else met[-1]
    marker = object()
    tensor, is_id3 = cod.tensor, cod.is_id3

    def marked_tensor(b, a):
        return marker if (b, a) == chosen else tensor(b, a)

    def failing_is_id3(t):
        if t is not marker:
            return is_id3(t)
        if how == "raise":
            raise GrayError(f"is_id3 fails on {chosen!r}")
        return False

    monkeypatch.setattr(cod, "tensor", marked_tensor)
    monkeypatch.setattr(cod, "is_id3", failing_is_id3)
    expected = _unmemoized(m)
    assert any(not r.ok for r in expected)
    reports = validate_pseudo_map(m)
    assert [r.as_dict() for r in reports[-2:]] == \
        [r.as_dict() for r in expected]


@pytest.mark.parametrize("which", [0, -1])
def test_a_missing_cocycle_fails_as_unmemoized(m, which):
    """With the cocycle of one composable pair of non-identities missing,
    its read raises at the tuple where the unmemoized laws first read it,
    not before."""
    dom = m.dom
    pairs = [p for p in composable_keys(dom, "comp0")
             if not (dom.is_id1(p[0]) or dom.is_id1(p[1]))]
    cocycle = dict(m.cocycle)
    del cocycle[pairs[which]]
    F = PseudoMap(dom, m.cod, m.assignment, cocycle, name=m.name)
    expected = _unmemoized(F)
    assert [r.status for r in expected] == ["fail", "fail"]
    assert [r.as_dict() for r in validate_pseudo_map(F)[-2:]] == \
        [r.as_dict() for r in expected]


def test_without_faults_the_reports_are_unmemoized(m):
    assert [r.as_dict() for r in validate_pseudo_map(m)[-2:]] == \
        [r.as_dict() for r in _unmemoized(m)]


def test_each_value_pair_reaches_tensor_once(monkeypatch, m):
    """Beyond the tensors of tensor-coherence, validate_pseudo_map calls
    tensor once per distinct value pair of the two tensor laws."""
    dom, cod = m.dom, m.cod
    calls = Counter()
    tensor = cod.tensor

    def counted(b, a):
        calls[(b, a)] += 1
        return tensor(b, a)

    monkeypatch.setattr(cod, "tensor", counted)
    assert all(r.ok for r in validate_pseudo_map(m))
    coherence = Counter((m(2, b), m(2, a)) for b in dom.cells[2]
                        for a in dom.by_tgt(2, dom.src0(2, b), 0))
    met = _first_met(m)
    assert calls - coherence == Counter(dict.fromkeys(
        (xy for xy, _ in met), 1))
    assert len(met) < sum(1 for _ in _value_pairs(m))
