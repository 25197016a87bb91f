"""The acceptance gate: one test per criterion, at the stated bounds.

Each test prints a single PASS line with its runtime; the bounds are wall
clock on desk hardware and generous for this suite.
"""

import time

import pytest

from graypath.fixtures import fixture
from graypath.kernel import all_pass, check_gray_axioms

SIX = ["T1", "INT", "BIG", "PAIR", "CYC2", "TWIST"]


def _report(name, t0, bound):
    dt = time.monotonic() - t0
    print(f"PASS {name}: {dt:.2f}s (bound {bound}s)")
    assert dt < bound, f"{name} exceeded its {bound}s budget ({dt:.1f}s)"


def test_criterion_1_gray_axiom_suite():
    for name in SIX:
        t0 = time.monotonic()
        C = fixture(name)
        reports = check_gray_axioms(C)
        assert all_pass(reports), (name, [r for r in reports if not r.ok])
        _report(f"criterion-1 gray-axioms {name}", t0, 1.0)


def test_criterion_2_pathspace_is_gray_category():
    from graypath.pathspace import build_pathspace
    for name in SIX:
        t0 = time.monotonic()
        P = build_pathspace(fixture(name))
        reports = check_gray_axioms(P)
        assert all_pass(reports), (name, [r for r in reports if not r.ok])
        _report(f"criterion-2 pathspace {name}", t0, 30.0)


def test_criterion_3_m_is_pseudo_map():
    from graypath.pathcomp import verify_m_pseudo
    for name in SIX:
        t0 = time.monotonic()
        reports = verify_m_pseudo(fixture(name))
        assert all_pass(reports), (name, [r for r in reports if not r.ok])
        _report(f"criterion-3 m-pseudo {name}", t0, 60.0)


def test_criterion_4_internal_category_laws():
    from graypath.pathcomp import verify_internal_category, verify_internal_groupoid
    for name in SIX:
        t0 = time.monotonic()
        reports = verify_internal_category(fixture(name))
        assert all_pass(reports), (name, [r for r in reports if not r.ok])
        if name == "CYC2":
            groupoid = verify_internal_groupoid(fixture(name))
            assert all_pass(groupoid), [r for r in groupoid if not r.ok]
        _report(f"criterion-4 internal-category {name}", t0, 60.0)


def test_criterion_5_comonad_laws():
    from graypath.resolution import comonad_law_check
    t0 = time.monotonic()
    for name in ("PAIR", "TWIST"):
        reports = comonad_law_check(fixture(name), max_len=3)
        assert all_pass(reports), (name, [r for r in reports if not r.ok])
        assert all(r.tuples_checked > 0 for r in reports)
    _report("criterion-5 comonad-laws PAIR+TWIST", t0, 5.0)


def test_criterion_6_tilde_vee_bijection():
    from graypath.homspace import enumerate_strict_functors
    from graypath.resolution import (strict_as_pseudo, tilde_vee_roundtrip,
                                     validate_pseudo_map)
    t0 = time.monotonic()
    B = fixture("BIG")
    # pseudo maps BIG -|-> BIG: cocycles are forced trivial (no invertible
    # non-identity 2-cells), so the strict enumeration is exhaustive
    funs, reports = enumerate_strict_functors(B, B, cap=100000)
    assert all(r.ok for r in reports)
    count = 0
    for F in funs:
        P = strict_as_pseudo(F)
        assert all_pass(validate_pseudo_map(P))
        assert tilde_vee_roundtrip(P, max_len=2)
        count += 1
    assert count >= 4
    _report(f"criterion-6 tilde-vee ({count} maps)", t0, 60.0)


def test_criterion_7_kappa_coherence():
    from itertools import product
    from graypath.resolution import (kappa_coherence_check, kappa_tensor_check,
                                     q1_normalize)
    from graypath.kernel import NotComposable
    t0 = time.monotonic()
    C = fixture("CHAIN4")
    nonid = [f for f in C.cells[1] if not C.is_id1(f)]
    triples = 0
    for f1, f2, f3 in product(nonid, repeat=3):
        try:
            q1_normalize(C, [f1, f2, f3])
        except NotComposable:
            continue
        assert kappa_coherence_check(C, f1, f2, f3)
        triples += 1
    assert triples > 0
    tuples = []
    for n in (2, 3):
        for combo in product(nonid, repeat=n):
            try:
                q1_normalize(C, list(combo))
            except NotComposable:
                continue
            tuples.append(combo)
    pairs = 0
    for pb in tuples:
        for pa in tuples:
            if C.src(1, pb[-1]) == C.tgt(1, pa[0]):
                assert kappa_tensor_check(C, pb, pa)
                pairs += 1
    assert pairs > 0
    _report(f"criterion-7 kappa ({triples} triples, {pairs} tensors)", t0, 1.0)


def test_criterion_8_tower_assembly():
    from graypath.highercells import Tower, assemble_internal_graycat
    for name in ("T1", "BIG", "CYC2"):
        t0 = time.monotonic()
        reports = assemble_internal_graycat(Tower(fixture(name)))
        assert all_pass(reports), (name, [r for r in reports if not r.ok])
        tmap = [r for r in reports if r.law == "tensor-map"]
        assert tmap and tmap[0].tuples_checked > 0
        _report(f"criterion-8 tower {name}", t0, 300.0)


def test_criterion_9_hom_space_oracle_and_sesquicategory():
    from graypath.homspace import (compose_0, compose_0_oracle,
                                   enumerate_strict_functors,
                                   enumerate_transformations,
                                   sesquicategory_check)
    from graypath.pathcomp import m_pseudo
    from graypath.resolution import strict_as_pseudo
    t0 = time.monotonic()
    G, H = fixture("INT"), fixture("BIG")
    PH, K, m = m_pseudo(H)
    funs, _ = enumerate_strict_functors(G, H)
    pseudos = [strict_as_pseudo(F) for F in funs]
    trans = {}
    for i, F in enumerate(pseudos):
        for j, Gp in enumerate(pseudos):
            ts, _ = enumerate_transformations(F, Gp)
            trans[(i, j)] = ts
    checked = 0
    for (i, j), ts in trans.items():
        for (j2, k), us in trans.items():
            if j2 != j:
                continue
            for a in ts:
                for b in us:
                    assert compose_0(b, a).key() == \
                        compose_0_oracle(b, a, PH, K, m).key()
                    checked += 1
    assert checked > 0
    reports = sesquicategory_check(G, H)
    assert all_pass(reports), [r for r in reports if not r.ok]
    _report(f"criterion-9 hom-oracle ({checked} pairs) + sesquicategory",
            t0, 120.0)


def test_criterion_10_fault_injection():
    from graypath.faults import (corrupt_m_cocycle, corrupt_transformation,
                                 run_fault_trials)
    from graypath.homspace import (enumerate_strict_functors,
                                   enumerate_transformations,
                                   validate_transformation)
    from graypath.resolution import strict_as_pseudo, validate_pseudo_map
    t0 = time.monotonic()
    # 38 gray-table faults across the corruptible fixtures
    names = ["INT", "BIG", "PAIR", "CYC2", "TWIST", "CHAIN3"]
    detected, total, misses = run_fault_trials(fixture, names, 38, seed=0)
    assert detected == total == 38, misses
    # 6 m-cocycle faults
    for i in range(6):
        m, info = corrupt_m_cocycle(fixture("BIG"), seed=100 + i)
        reports = validate_pseudo_map(m)
        assert not all_pass(reports), info
        bad = [r for r in reports if not r.ok]
        assert any(r.counterexample is not None for r in bad)
        detected += 1
    # 6 transformation faults
    B = fixture("BIG")
    funs, _ = enumerate_strict_functors(fixture("INT"), B)
    ts, _ = enumerate_transformations(strict_as_pseudo(funs[2]),
                                      strict_as_pseudo(funs[2]))
    for i in range(6):
        bad, info = corrupt_transformation(ts[i % len(ts)], seed=200 + i)
        reports = validate_transformation(bad)
        assert not all(r.ok for r in reports), info
        detected += 1
    assert detected == 50
    _report("criterion-10 fault-injection (50/50 detected)", t0, 120.0)
