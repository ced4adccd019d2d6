"""Span recorder for the traced run, installed from outside the library.

The recorder wraps selected public functions of ``lietrip`` at every place
their name is bound (the defining module, each module that imported the
name, the package namespace) and a few methods on the classes, so calls
made inside the library are traced too.  No library file changes.

Each span is a dict with ``name``, ``start``, ``end``, ``parent`` (index of
the enclosing span or None), ``job`` and optional counters computed from
the arguments (``cells``/``nnz`` for rref, ``key`` for the distinct-input
ratio, ``d2_cells`` for H^2).  Spans stay in memory; ``write`` dumps them
as JSON lines and ``aggregate`` turns a list of spans into per-name calls,
self time and counters; self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from math import comb

# (module, attribute, span name); a dotted attribute is a method on a class.
TRACED = [
    ("exactlin", "rref", "exactlin.rref"),
    ("exactlin", "rank", "exactlin.rank"),
    ("exactlin", "solve", "exactlin.solve"),
    ("exactlin", "solve_with_certificate", "exactlin.solve_with_certificate"),
    ("exactlin", "inverse", "exactlin.inverse"),
    ("exactlin", "kernel_basis", "exactlin.kernel_basis"),
    ("exactlin", "quotient", "exactlin.quotient"),
    ("exactlin", "Matrix.matmul", "exactlin.matmul"),
    ("exactlin", "Subspace.span", "exactlin.subspace_span"),
    ("exactlin", "Subspace.intersect", "exactlin.subspace_intersect"),
    ("exactlin", "Subspace.contains_subspace", "exactlin.contains_subspace"),
    ("lts", "lie_triple_system", "lts.lie_triple_system"),
    ("lts", "check_lts_axioms", "lts.check_axioms"),
    ("lts", "derivation_algebra", "lts.derivation_algebra"),
    ("lts", "inner_derivation_algebra", "lts.inner_derivation_algebra"),
    ("lts", "lts_of_lie", "lts.lts_of_lie"),
    ("lts", "odd_part_lts", "lts.odd_part_lts"),
    ("lts", "is_lts_hom", "lts.is_lts_hom"),
    ("grlie", "graded_lie", "grlie.graded_lie"),
    ("grlie", "check_graded_lie", "grlie.check_graded"),
    ("grlie", "is_graded_hom", "grlie.is_graded_hom"),
    ("grlie", "center", "grlie.center"),
    ("grlie", "is_generated_by_odd", "grlie.generated_by_odd"),
    ("grlie", "central_quotient", "grlie.central_quotient"),
    ("embed", "standard_imbedding", "embed.standard_imbedding"),
    ("embed", "wedge_module", "embed.wedge_module"),
    ("embed", "module_quotient_algebra", "embed.module_quotient"),
    ("embed", "pair_algebra", "embed.pair_algebra"),
    ("embed", "universal_imbedding", "embed.universal_imbedding"),
    ("embed", "extend_hom", "embed.extend_hom"),
    ("embed", "universal_central_0_extension", "embed.u0ext"),
    ("cohom", "coboundary", "cohom.coboundary"),
    ("cohom", "graded_cochain_basis", "cohom.graded_cochain_basis"),
    ("cohom", "h2_graded", "cohom.h2"),
    ("cohom", "split_central_0_extension", "cohom.split"),
    ("cohom", "envelope_criterion", "cohom.envelope_criterion"),
    ("serialize", "save", "serialize.save"),
    ("serialize", "load", "serialize.load"),
]

LAYERS = ("exactlin", "lts", "grlie", "embed", "cohom", "serialize")
MODULES = ("exactlin", "lts", "grlie", "embed", "cohom", "corpus", "serialize", "cli")


def _rref_counts(args, kwargs):
    m = args[0] if args else kwargs["m"]
    return {"cells": m.rows * m.cols, "nnz": sum(1 for row in m.entries for x in row if x)}


def _lts_key(args, kwargs):
    t = args[0] if args else kwargs["T"]
    return {"key": hash((t.field, t.dim, t.triple))}


def _graded_key(args, kwargs):
    alg = args[0] if args else kwargs["L"]
    return {"key": hash((alg.field, alg.dim0, alg.dim1, alg.bracket))}


def _slots(alg, mod, degree):
    """Number of graded cochain slots, as counted by the library's h2."""
    total = 0
    for odd in range(degree + 1):
        combos = comb(alg.dim1, odd) * comb(alg.dim0, degree - odd)
        total += combos * (mod.dim1 if odd % 2 else mod.dim0)
    return total


def _h2_cells(args, kwargs):
    alg, mod = args[:2] if len(args) >= 2 else (kwargs["L"], kwargs["M"])
    return {"d2_cells": _slots(alg, mod, 3) * _slots(alg, mod, 2)}


COUNTERS = {
    "exactlin.rref": _rref_counts,
    "lts.check_axioms": _lts_key,
    "lts.derivation_algebra": _lts_key,
    "grlie.check_graded": _graded_key,
    "cohom.h2": _h2_cells,
}


class Recorder:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.job = None

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = {"name": name, "start": 0.0, "end": 0.0,
                    "parent": stack[-1] if stack else None, "job": self.job}
            if counter is not None:
                span.update(counter(args, kwargs))
            stack.append(len(spans))
            spans.append(span)
            span["start"] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()

        return traced

    def install(self, package):
        """Replace every binding of each traced name with one wrapper."""
        import importlib
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        modules.append(package)
        for mod_name, attr, span_name in TRACED:
            home = importlib.import_module(f"{package.__name__}.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(span_name, raw.__func__)))
                else:
                    setattr(cls, meth, self.wrap(span_name, raw))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(span_name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)



def write(path, spans, header) -> None:
    """One JSON line for the header, then one per span."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"header": header}) + "\n")
        for s in spans:
            fh.write(json.dumps(s) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def aggregate(spans, selfs, keep):
    """Per-name calls, self time, summed counters and distinct keys over
    the spans for which ``keep(span)`` holds."""
    stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "cells": 0, "nnz": 0,
                                 "d2_cells": 0, "keys": set()})
    for s, own in zip(spans, selfs):
        if not keep(s):
            continue
        st = stats[s["name"]]
        st["calls"] += 1
        st["self_s"] += own
        for k in ("cells", "nnz", "d2_cells"):
            st[k] += s.get(k, 0)
        if "key" in s:
            st["keys"].add(s["key"])
    return stats


def root_time_by_job(spans):
    """Wall time inside top-level spans, per job id."""
    out = defaultdict(float)
    for s in spans:
        if s["parent"] is None:
            out[s["job"]] += s["end"] - s["start"]
    return out
