"""Seeded single-entry corruption, used to prove the checkers have teeth.

A corruption replaces one table entry by a different cell of the same
dimension, so only tables whose output dimension has two cells or more are
corrupted; a Gray-category without such a table has no corruption and
raises GrayError.  Replacements with different faces are preferred (always
caught by the incidence laws); same-face swaps exercise the equational
laws.
"""

from __future__ import annotations

import random

from .kernel import TABLES, GrayError, gray_axioms_hold, sub_graycat


def copy_graycat(C):
    """A copy of C whose tables can be corrupted without touching C."""
    D = sub_graycat(C, lambda d, c: True, name=C.name)
    D.generators = list(C.generators) if C.generators is not None else None
    return D


def corrupt_graycat(C, seed):
    """Return (corrupted copy, description) for a random single-entry fault."""
    rng = random.Random(seed)
    D = copy_graycat(C)
    candidates = [(attr, dout) for _, attr, _, _, _, dout in TABLES
                  if getattr(D, attr) and len(D.cells[dout]) > 1]
    if not candidates:
        raise GrayError(f"{C.name}: no table has a second cell to swap in")
    table_name, dim = rng.choice(candidates)
    table = getattr(D, table_name)
    key = rng.choice(sorted(table, key=repr))
    old = table[key]
    others = [c for c in D.cells[dim] if c != old]
    diff_faces = [c for c in others
                  if (D.src_[dim][c], D.tgt_[dim][c])
                  != (D.src_[dim][old], D.tgt_[dim][old])]
    pool = diff_faces if (diff_faces and rng.random() < 0.7) else others
    new = rng.choice(sorted(pool, key=repr))
    table[key] = new
    return D, (table_name, key, old, new)


def corrupt_m_cocycle(H, seed):
    """Swap one m-cocycle entry for a parallel 2-cell of the path space."""
    from .pathcomp import m_pseudo
    rng = random.Random(seed)
    PH, _, m = m_pseudo(H)
    keys = sorted(m.cocycle, key=repr)
    key = rng.choice(keys)
    old = m.cocycle[key]
    others = [c for c in PH.between(2, PH.src(2, old), PH.tgt(2, old))
              if c != old]
    if not others:
        others = [c for c in PH.cells[2] if c != old]
    m.cocycle[key] = rng.choice(sorted(others, key=repr))
    return m, (key, old, m.cocycle[key])


def corrupt_transformation(t, seed):
    """Swap one cocycle or 1-cell component of a transformation."""
    rng = random.Random(seed)
    H = t.H
    from .homspace import LaxTransformation
    key = rng.choice(sorted(t.at1, key=repr))
    old = t.at1[key]
    others = [c for c in H.cells[2] if c != old]
    at1 = dict(t.at1)
    at1[key] = rng.choice(sorted(others, key=repr))
    t2 = LaxTransformation(t.F, t.G, t.at0, at1, t.at2, t.coc, name="bad")
    return t2, (key, old, at1[key])


def fault_detected(C):
    """Whether a Gray law fails on a corrupt_graycat copy C (gray_axioms_hold
    stops at the first, with no witness).  A swap of one table value for a
    declared cell keeps a sound input's structure, so structural_violations
    would find nothing and is not run."""
    return not gray_axioms_hold(C)


def run_fault_trials(make_fixture, names, count, seed=0):
    """Corrupt `count` seeded single entries across the named fixtures.

    Each fixture is built once: corrupt_graycat corrupts a copy.  Returns
    (detected, total, misses); the acceptance demands detected == total.
    """
    built = {}
    misses = []
    for i in range(count):
        name = names[i % len(names)]
        if name not in built:
            built[name] = make_fixture(name)
        D, info = corrupt_graycat(built[name], seed + i)
        if not fault_detected(D):
            misses.append((name, seed + i, info))
    return count - len(misses), count, misses
