"""Span tracer for the traced benchmark pass.

The tracer wraps the coarse entry points of each graypath layer and rebinds
each wrapper in every ``graypath`` module namespace that holds the original,
so calls made inside a module are caught too.  Each call records a span:
layer, function, start, end, parent span and job id.  Spans stay in memory
and are written out by the caller when the pass ends.

Cell-level helpers (``sq``, ``pd0``, ``m_apply``, the ``GrayCat`` table
lookups, ...) are not wrapped: they run millions of times per pass, and
their cost shows up as the self time of the entry point that called them.
Nothing here touches ``src/``; the wrapping happens at run time only.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

# layer -> wrapped public functions of graypath.<layer>
ENTRY_POINTS = {
    "fixtures": ["fixture"],
    "presentation": ["save", "load", "dumps", "loads", "to_document",
                     "from_document", "parse_dsl"],
    "kernel": ["check_gray_axioms", "structural_violations",
               "pullback_along_functor", "sub_graycat", "product_graycat",
               "compose_maps"],
    "resolution": ["validate_pseudo_map", "comonad_law_check",
                   "generator_decomposition", "kleisli_compose",
                   "strict_as_pseudo", "tilde", "vee", "tilde_vee_roundtrip",
                   "strictify", "section_k", "kappa_coherence_check",
                   "kappa_tensor_check", "pseudo_maps_equal"],
    "pathspace": ["build_pathspace", "path_cells", "materialize", "p_functor",
                  "face_map", "degeneracy_map", "p_on_pseudo"],
    "pathcomp": ["build_pullback", "composable_tuples", "m_pseudo",
                 "verify_m_pseudo", "verify_internal_category",
                 "verify_internal_groupoid", "m_naturality_check", "o_pseudo"],
    "highercells": ["assemble_internal_graycat", "check_1cartesian"],
    "homspace": ["hom_graycat", "restricted_space", "sesquicategory_check",
                 "enumerate_strict_functors", "enumerate_transformations",
                 "enumerate_modifications", "enumerate_perturbations",
                 "validate_transformation", "validate_modification",
                 "validate_perturbation", "compose_0", "compose_0_oracle",
                 "trans_to_pseudo", "pseudo_to_trans", "mod_to_pseudo",
                 "pert_to_pseudo", "compose_mods", "compose_perts",
                 "whisker_trans_mod", "whisker_mod_trans",
                 "whisker_trans_pert", "whisker_mod_pert", "tensor_mods",
                 "hom_hl_mod", "hom_hr_mod", "identity_transformation",
                 "precompose", "postcompose", "rho"],
    "faults": ["run_fault_trials", "fault_detected", "corrupt_graycat",
               "copy_graycat", "corrupt_m_cocycle", "corrupt_transformation"],
}

# Tower's lazily built stages -> the slot that caches each; Tower.__init__
# is wrapped as "highercells.Tower".
TOWER_PROPERTIES = {"DD": "_dd", "DDD": "_ddd", "P2": "_p2"}

# Functions whose input is keyed to count redundant builds within a job:
# function -> (argument holding the base Gray-category, extra key arguments)
REDUNDANCY_KEYS = {
    "pathcomp.build_pullback": ("H", ("n",)),
    "pathspace.build_pathspace": ("B", ()),
    "highercells.Tower": ("H", ()),
}


def _cells(C):
    return sum(len(C.cells[d]) for d in range(4))


def _tuples(reports):
    return sum(r.tuples_checked for r in reports)


def _size(path):
    return os.path.getsize(path)


# layer.function -> counters computed from the call's arguments and result
COUNTERS = {
    "pathcomp.build_pullback": lambda a, r: {"cells": _cells(r)},
    "pathspace.materialize": lambda a, r: {"cells": _cells(r)},
    "pathspace.path_cells": lambda a, r: {"cells": sum(len(cs) for cs in r)},
    "highercells.DD": lambda a, r: {"cells": _cells(r)},
    "homspace.hom_graycat": lambda a, r: {"cells": _cells(r[0])},
    "kernel.check_gray_axioms": lambda a, r: {"tuples": _tuples(r)},
    "pathcomp.verify_m_pseudo": lambda a, r: {"tuples": _tuples(r)},
    "pathcomp.verify_internal_category": lambda a, r: {"tuples": _tuples(r)},
    "pathcomp.verify_internal_groupoid": lambda a, r: {"tuples": _tuples(r)},
    "highercells.assemble_internal_graycat":
        lambda a, r: {"tuples": _tuples(r)},
    "presentation.save": lambda a, r: {"bytes_written": _size(a["path"])},
    "presentation.load": lambda a, r: {"bytes_read": _size(a["path"])},
    "faults.run_fault_trials":
        lambda a, r: {"trials": r[1], "detected": r[0]},
}


class Tracer:
    """Records spans for the wrapped calls of one process."""

    def __init__(self):
        # span: [layer, fn, start, end, parent, job, redundant, counters]
        self.spans = []
        self._stack = []
        self._seen = set()
        self.job = None
        self._undo = []

    # -- recording ----------------------------------------------------------

    def begin_job(self, job_id):
        self.job = job_id
        self._seen = set()

    def call(self, layer, fn, thunk, key=None, counter=None, args=None):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [layer, fn, 0.0, 0.0, parent, self.job, False, None]
        if key is not None:
            span[6] = key in self._seen
            self._seen.add(key)
        self.spans.append(span)
        self._stack.append(idx)
        span[2] = time.perf_counter()
        try:
            result = thunk()
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            span[7] = counter(args, result)
        return result

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every entry point and rebind it across graypath modules."""
        import graypath.highercells as highercells
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "graypath" or n.startswith("graypath.")]
        for layer, names in ENTRY_POINTS.items():
            mod = sys.modules[f"graypath.{layer}"]
            for name in names:
                orig = getattr(mod, name)
                if orig.__module__ != mod.__name__:
                    raise RuntimeError(f"{layer}.{name} is defined in "
                                       f"{orig.__module__}")
                wrapper = self._wrap(layer, name, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._rebind(m, attr, wrapper, orig)
        tower = highercells.Tower
        self._rebind(tower, "__init__",
                     self._wrap("highercells", "Tower", tower.__init__),
                     tower.__init__)
        for prop, slot in TOWER_PROPERTIES.items():
            orig = vars(tower)[prop]
            self._rebind(tower, prop, self._wrap_property(prop, slot, orig),
                         orig)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []

    def _rebind(self, owner, attr, new, orig):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, orig))

    def _wrap(self, layer, name, orig):
        qual = f"{layer}.{name}"
        counter = COUNTERS.get(qual)
        keyspec = REDUNDANCY_KEYS.get(qual)
        sig = inspect.signature(orig) if (counter or keyspec) else None
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            key = None
            if keyspec is not None:
                base_arg, extra = keyspec
                base = bound[base_arg]
                key = (qual, base.name,
                       tuple(len(base.cells[d]) for d in range(4)),
                       tuple(bound[e] for e in extra))
            return tracer.call(layer, name, lambda: orig(*args, **kwargs),
                               key=key, counter=counter, args=bound)
        return wrapper

    def _wrap_property(self, prop, slot, orig):
        """Record a span only when the property builds its stage."""
        fget = orig.fget
        tracer = self

        def get(tw):
            if getattr(tw, slot) is not None:
                return fget(tw)
            return tracer.call("highercells", prop, lambda: fget(tw),
                               counter=COUNTERS.get(f"highercells.{prop}"))
        return property(get, doc=orig.__doc__)


# -- per-layer metrics ---------------------------------------------------------

LAYERS = ["cli"] + list(ENTRY_POINTS)

# (metric, unit, kind, layer.function or counter source)
#   s        total time of the function's outermost calls
#   calls    number of calls
#   redundant  calls whose input was already built earlier in the same job
#   counter  sum of the named counter over the function's calls
FUNCTION_METRICS = [
    ("pathcomp.build_pullback.s", "s", "s", "pathcomp.build_pullback"),
    ("pathcomp.build_pullback.calls", "count", "calls",
     "pathcomp.build_pullback"),
    ("pathcomp.build_pullback.redundant", "count", "redundant",
     "pathcomp.build_pullback"),
    ("pathcomp.build_pullback.cells", "count", "cells",
     "pathcomp.build_pullback"),
    ("pathcomp.verify_internal_category.s", "s", "s",
     "pathcomp.verify_internal_category"),
    ("pathcomp.verify_m_pseudo.s", "s", "s", "pathcomp.verify_m_pseudo"),
    ("pathspace.build_pathspace.calls", "count", "calls",
     "pathspace.build_pathspace"),
    ("pathspace.build_pathspace.redundant", "count", "redundant",
     "pathspace.build_pathspace"),
    ("kernel.check_gray_axioms.s", "s", "s", "kernel.check_gray_axioms"),
    ("kernel.structural_violations.s", "s", "s",
     "kernel.structural_violations"),
    ("highercells.Tower.s", "s", "s", "highercells.Tower"),
    ("highercells.Tower.calls", "count", "calls", "highercells.Tower"),
    ("highercells.Tower.redundant", "count", "redundant",
     "highercells.Tower"),
    ("highercells.DD.s", "s", "s", "highercells.DD"),
    ("highercells.DDD.s", "s", "s", "highercells.DDD"),
    ("highercells.P2.s", "s", "s", "highercells.P2"),
    ("highercells.DD.cells", "count", "cells", "highercells.DD"),
    ("highercells.assemble_internal_graycat.s", "s", "s",
     "highercells.assemble_internal_graycat"),
    ("pathspace.path_cells.cells", "count", "cells", "pathspace.path_cells"),
    ("pathspace.materialize.s", "s", "s", "pathspace.materialize"),
    ("pathspace.materialize.cells", "count", "cells",
     "pathspace.materialize"),
    ("homspace.hom_graycat.s", "s", "s", "homspace.hom_graycat"),
    ("homspace.enumerate_transformations.calls", "count", "calls",
     "homspace.enumerate_transformations"),
    ("homspace.enumerate_transformations.s", "s", "s",
     "homspace.enumerate_transformations"),
    ("homspace.enumerate_modifications.s", "s", "s",
     "homspace.enumerate_modifications"),
    ("homspace.enumerate_perturbations.s", "s", "s",
     "homspace.enumerate_perturbations"),
    ("homspace.mod_to_pseudo.calls", "count", "calls",
     "homspace.mod_to_pseudo"),
    ("homspace.mod_to_pseudo.s", "s", "s", "homspace.mod_to_pseudo"),
    ("homspace.trans_to_pseudo.calls", "count", "calls",
     "homspace.trans_to_pseudo"),
    ("homspace.compose_mods.s", "s", "s", "homspace.compose_mods"),
    ("homspace.cells", "count", "cells", "homspace.hom_graycat"),
    ("presentation.save.s", "s", "s", "presentation.save"),
    ("presentation.load.s", "s", "s", "presentation.load"),
    ("presentation.bytes_written", "bytes", "bytes_written",
     "presentation.save"),
    ("presentation.bytes_read", "bytes", "bytes_read", "presentation.load"),
    ("resolution.validate_pseudo_map.calls", "count", "calls",
     "resolution.validate_pseudo_map"),
    ("resolution.validate_pseudo_map.s", "s", "s",
     "resolution.validate_pseudo_map"),
    ("resolution.comonad_law_check.s", "s", "s",
     "resolution.comonad_law_check"),
    ("resolution.generator_decomposition.calls", "count", "calls",
     "resolution.generator_decomposition"),
    ("fixtures.fixture.calls", "count", "calls", "fixtures.fixture"),
    ("fixtures.fixture.s", "s", "s", "fixtures.fixture"),
]

# tuples checked, summed over each layer's own law checkers
TUPLE_SOURCES = {
    "kernel.tuples": ["kernel.check_gray_axioms"],
    "pathcomp.tuples": ["pathcomp.verify_m_pseudo",
                        "pathcomp.verify_internal_category",
                        "pathcomp.verify_internal_groupoid"],
    "highercells.tuples": ["highercells.assemble_internal_graycat"],
}

# the builders whose materialize call consumes path_cells output
PATH_CELL_CONSUMERS = {"pathspace.build_pathspace", "highercells.DD",
                       "highercells.DDD"}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, jobs):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.

    ``jobs`` is the number of jobs the pass ran.  Ratios whose base is zero
    (no fault trials, no path cells enumerated) read 0.0.
    """
    n = len(spans)
    qual = [f"{s[0]}.{s[1]}" for s in spans]
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[4] >= 0:
            child[s[4]] += dur[i]

    def outermost(i, same):
        p = spans[i][4]
        while p >= 0:
            if same(p):
                return False
            p = spans[p][4]
        return True

    out = {}
    for layer in LAYERS:
        idx = [i for i in range(n) if spans[i][0] == layer]
        out[f"{layer}.calls"] = (len(idx), "count")
        out[f"{layer}.busy_s"] = (sum(
            dur[i] for i in idx
            if outermost(i, lambda p: spans[p][0] == layer)), "s")
        out[f"{layer}.self_s"] = (sum(dur[i] - child[i] for i in idx), "s")

    by_fn = {}
    for i in range(n):
        by_fn.setdefault(qual[i], []).append(i)

    def counter(fn, name):
        return sum((spans[i][7] or {}).get(name, 0) for i in by_fn.get(fn, ()))

    for name, unit, kind, fn in FUNCTION_METRICS:
        idx = by_fn.get(fn, [])
        if kind == "s":
            value = sum(dur[i] for i in idx
                        if outermost(i, lambda p: qual[p] == fn))
        elif kind == "calls":
            value = len(idx)
        elif kind == "redundant":
            value = sum(1 for i in idx if spans[i][6])
        else:
            value = counter(fn, kind)
        out[name] = (value, unit)

    for name, fns in TUPLE_SOURCES.items():
        out[name] = (sum(counter(fn, "tuples") for fn in fns), "count")
    out["kernel.tuples_per_s"] = (_ratio(out["kernel.tuples"][0],
                                         out["kernel.check_gray_axioms.s"][0]),
                                  "1/s")
    kept = sum((spans[i][7] or {}).get("cells", 0)
               for i in by_fn.get("pathspace.materialize", ())
               if spans[i][4] >= 0 and qual[spans[i][4]] in PATH_CELL_CONSUMERS)
    out["pathspace.keep_ratio"] = (
        _ratio(kept, out["pathspace.path_cells.cells"][0]), "ratio")
    trials = counter("faults.run_fault_trials", "trials")
    detected = counter("faults.run_fault_trials", "detected")
    out["faults.trials"] = (trials, "count")
    out["faults.detected"] = (detected, "count")
    out["faults.detection_ratio"] = (_ratio(detected, trials), "ratio")
    out["cli.jobs"] = (jobs, "count")
    return out
