"""The benchmark's workloads: job lists, expected verdicts and output checks.

A job is one `graypath` CLI call (run in-process with ``--report json``) or
one library call that has no CLI verb.  Jobs that depend on each other (a
document written, then validated, then checked) form a group; the seed
shuffles the groups of a workload and sets the ``--seed`` of the fault
trials.  Every job is expected to pass.

The cell counts below were recorded from the seed code; a construction that
builds different cells is an output error, whatever its speed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

FIXTURES = ["T1", "INT", "BIG", "PAIR", "CYC2", "TWIST", "CHAIN3", "CHAIN4"]

FIXTURE_CELLS = {
    "T1": [1, 1, 1, 1], "INT": [2, 3, 3, 3], "BIG": [2, 4, 5, 5],
    "PAIR": [3, 6, 6, 6], "CYC2": [1, 2, 2, 2], "TWIST": [3, 11, 19, 21],
    "CHAIN3": [4, 10, 10, 10], "CHAIN4": [5, 15, 15, 15],
}

PATH_CELLS = {
    "INT": [3, 6, 6, 6], "BIG": [4, 14, 19, 19], "PAIR": [6, 20, 20, 20],
    "CYC2": [2, 8, 8, 8], "CHAIN3": [10, 50, 50, 50],
    "CHAIN4": [15, 105, 105, 105], "TWIST": [11, 117, 274, 322],
}


def _stages(path, upper):
    return {"path": path, "bigon": upper, "triple": upper, "parallel": upper}


TOWER_STAGES = {
    "T1": _stages([1, 1, 1, 1], [1, 1, 1, 1]),
    "INT": _stages([3, 6, 6, 6], [3, 6, 6, 6]),
    "BIG": _stages([4, 14, 19, 19], [5, 19, 24, 24]),
    "CYC2": _stages([2, 8, 8, 8], [2, 8, 8, 8]),
    "PAIR": _stages([6, 20, 20, 20], [6, 20, 20, 20]),
}

BIGON_CELLS = {"INT": [3, 6, 6, 6], "TWIST": [19, 274, 673, 745]}

HOM_CELLS = {
    ("T1", "INT"): [2, 3, 3, 3], ("INT", "BIG"): [4, 14, 19, 19],
    ("INT", "CYC2"): [2, 8, 8, 8], ("PAIR", "BIG"): [6, 30, 45, 45],
}

# compose_0 / compose_0_oracle pairs checked by the hom-space library job
ORACLE_PAIRS = {("T1", "INT"): 4, ("INT", "BIG"): 30}

FAULT_COUNT = 200


@dataclass
class Job:
    """One unit of work; ``expect`` holds report fields it must produce."""

    id: str
    argv: list | None = None        # CLI arguments after --report json
    call: tuple | None = None       # (library job function, arguments)
    expect: dict = field(default_factory=dict)
    writes: str | None = None       # document the job saves
    echo: bool = False              # plain-text output (fixtures dump)


def _cells(C):
    return [len(C.cells[d]) for d in range(4)]


# -- library jobs (no CLI verb) -------------------------------------------------


def bigon_stage(name):
    """Tower(X).DD: the bigon stage, built from the path space."""
    from graypath.fixtures import fixture
    from graypath.highercells import Tower
    tw = Tower(fixture(name))
    return {"ok": True, "path": _cells(tw.PH), "bigon": _cells(tw.DD)}


def hom_oracle(gname, hname):
    """compose_0 against compose_0_oracle on all composable transformation
    pairs of [G,H], then the sesquicategory laws (acceptance criterion 9)."""
    from graypath.fixtures import fixture
    from graypath.homspace import (compose_0, compose_0_oracle,
                                   enumerate_strict_functors,
                                   enumerate_transformations,
                                   sesquicategory_check)
    from graypath.pathcomp import m_pseudo
    from graypath.resolution import strict_as_pseudo
    G, H = fixture(gname), fixture(hname)
    PH, K, m = m_pseudo(H)
    funs, _ = enumerate_strict_functors(G, H)
    pseudos = [strict_as_pseudo(F) for F in funs]
    trans = {}
    for i, F in enumerate(pseudos):
        for j, Gp in enumerate(pseudos):
            trans[(i, j)] = enumerate_transformations(F, Gp)[0]
    pairs = agree = 0
    for (i, j), ts in trans.items():
        for (j2, k), us in trans.items():
            if j2 != j:
                continue
            for a in ts:
                for b in us:
                    pairs += 1
                    agree += compose_0(b, a).key() == \
                        compose_0_oracle(b, a, PH, K, m).key()
    reports = sesquicategory_check(G, H)
    return {"ok": pairs > 0 and agree == pairs and all(r.ok for r in reports),
            "pairs": pairs, "agree": agree,
            "reports": [r.as_dict() for r in reports]}


# -- job constructors -----------------------------------------------------------


def _check_gray(target):
    return Job(f"check-gray:{target}", ["check", "gray", target])


def _document_group(name, first, cells):
    """Write a document, validate it, run the Gray axioms on the loaded copy."""
    doc = f"{name}.graycat.json"
    return [
        first,
        Job(f"validate:{doc}", ["validate", doc],
            expect={"structure": sum(cells)}),
        Job(f"check-gray:{doc}", ["check", "gray", doc]),
    ]


def _dump(name):
    doc = f"{name}.graycat.json"
    first = Job(f"dump:{name}", ["fixtures", "dump", name, doc], writes=doc,
                echo=True)
    return _document_group(name, first, FIXTURE_CELLS[name])


def _pathspace(name):
    doc = f"path-{name}.graycat.json"
    first = Job(f"pathspace:{name}", ["pathspace", name, "--out", doc],
                expect={"cells": PATH_CELLS[name]}, writes=doc)
    return _document_group(f"path-{name}", first, PATH_CELLS[name])


def _tower(name):
    return Job(f"tower:{name}", ["tower", name],
               expect={"stages": TOWER_STAGES[name]})


def _hom(g, h):
    return Job(f"hom:{g},{h}", ["hom", g, h], expect={"cells": HOM_CELLS[(g, h)]})


def _bigon(name):
    return Job(f"Tower({name}).DD", call=(bigon_stage, (name,)),
               expect={"path": PATH_CELLS[name], "bigon": BIGON_CELLS[name]})


def _oracle(g, h):
    return Job(f"hom-oracle:{g},{h}", call=(hom_oracle, (g, h)),
               expect={"pairs": ORACLE_PAIRS[(g, h)]})


def _faults(target, count, seed):
    return Job(f"faults:{target}", ["--seed", str(seed), "faults", target,
                                    "--count", str(count)],
               expect={"detected": count})


def _groups_intcat(seed):
    return ([[_check_gray(n)] for n in FIXTURES]
            + [[Job(f"check-m:{n}", ["check", "m", n])]
               for n in ("BIG", "PAIR", "CYC2", "CHAIN3")])


def _groups_tower(seed):
    return ([[_tower(n)] for n in ("T1", "INT", "BIG", "CYC2", "PAIR")]
            + [[_bigon("TWIST")]])


def _groups_hom(seed):
    return ([[_hom(g, h)] for g, h in (("INT", "BIG"), ("INT", "CYC2"),
                                       ("PAIR", "BIG"))]
            + [[_oracle("INT", "BIG")]])


def _groups_docs(seed):
    return ([_dump(n) for n in FIXTURES]
            + [_pathspace(n) for n in ("BIG", "PAIR", "CYC2", "CHAIN3",
                                       "CHAIN4", "TWIST")]
            + [[Job(f"check-comonad:{n}", ["check", "comonad", n])]
               for n in ("PAIR", "TWIST", "CHAIN4")]
            + [[_faults("all", FAULT_COUNT, seed)]])


def _groups_selftest(seed):
    """A tiny subset over T1 and INT that reaches every layer."""
    return [[_check_gray("T1")], [_check_gray("INT")],
            [Job("check-m:INT", ["check", "m", "INT"])],
            [_tower("T1")], [_tower("INT")], [_hom("T1", "INT")],
            _dump("INT"), _pathspace("INT"),
            [Job("check-comonad:INT", ["check", "comonad", "INT"])],
            [_faults("INT", 5, seed)], [_bigon("INT")], [_oracle("T1", "INT")]]


WORKLOADS = {
    "intcat": _groups_intcat,
    "tower": _groups_tower,
    "hom": _groups_hom,
    "docs": _groups_docs,
}
SELFTEST = "selftest"
_ALL = {**WORKLOADS, SELFTEST: _groups_selftest}


def jobs(workload, seed):
    """The job list of one pass; the seed fixes the order of the groups."""
    groups = _ALL[workload](seed)
    random.Random(seed).shuffle(groups)
    return [job for group in groups for job in group]


# -- output checks -----------------------------------------------------------------


def check(job, rc, text):
    """Problems with one job's output: exit code, verdict, recorded cells."""
    if rc != 0:
        return [f"exit code {rc}"]
    if job.echo:
        return [] if text.strip() == job.writes else [f"output {text!r}"]
    try:
        doc = json.loads(text)
    except ValueError:
        return ["report is not JSON"]
    problems = [] if doc.get("ok") is True else ["verdict is not ok"]
    for key, want in job.expect.items():
        if key == "structure":
            got = sum(r["tuples_checked"] for r in doc.get("reports", ()))
        else:
            got = doc.get(key)
        if got != want:
            problems.append(f"{key}: got {got!r}, want {want!r}")
    return problems
